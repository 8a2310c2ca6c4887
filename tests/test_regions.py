import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstar import regions
from radstar.core import (CLASSES, Family, ParameterError, TargetSpec,
                          default_target)
from radstar.regions import (E, SIN1, SQRT2, cardioid_quartic,
                             containment_threshold, membership_mask,
                             nephroid_sextic, region_boundary)
from winding_oracle import IndeterminateWindingError, winding_contains

ALL_TARGETS = [default_target(f) for f in Family]


def region_contains(t, w):
    return bool(membership_mask(t, complex(w)))


# ---------------------------------------------------------------------------
# Membership predicates

def test_membership_mask_covers_every_family():
    # one exact predicate per family, vectorized, no family left to a fallback
    for t in ALL_TARGETS:
        mask = membership_mask(t, [1.0, 0.0, 1.0 + 1e-3j])
        assert mask.dtype == bool and mask.shape == (3,), t.label()
        assert mask.tolist() == [True, False, True], t.label()


def test_point_one_inside_every_region():
    for t in ALL_TARGETS:
        assert region_contains(t, 1.0 + 0.0j), t.label()


def test_origin_outside_every_region():
    for t in ALL_TARGETS:
        assert not region_contains(t, 0.0j), t.label()


def test_halfplane_membership():
    t = TargetSpec(Family.STARLIKE_ORDER, alpha=0.25)
    assert region_contains(t, 0.26)
    assert not region_contains(t, 0.24)
    assert region_contains(t, 0.3 + 100.0j)


def test_lemniscate_membership():
    t = default_target(Family.LEMNISCATE)
    assert region_contains(t, 1.0)
    assert not region_contains(t, SQRT2)  # boundary vertex
    assert not region_contains(t, SQRT2 + 1e-9)
    assert region_contains(t, SQRT2 - 1e-6)
    # the mirror-image left loop is excluded
    assert not region_contains(t, -1.0)


def test_parabolic_membership():
    t = default_target(Family.PARABOLIC)
    assert region_contains(t, 1.0)
    assert not region_contains(t, 0.5)  # vertex of the parabola
    assert region_contains(t, 0.5 + 1e-9)
    assert not region_contains(t, 1.0 + 1.1j)  # |w-1| > Re w there


def test_exponential_membership():
    t = default_target(Family.EXPONENTIAL)
    assert region_contains(t, math.exp(0.999))
    assert not region_contains(t, E)
    assert not region_contains(t, 1.0 / E)
    assert region_contains(t, 1.0 / E + 1e-9)
    assert not region_contains(t, 0.0)


def test_cardioid_quartic_calibration():
    # interior sample value at w = 1
    assert cardioid_quartic(1.0, 0.0) == pytest.approx(-48.0, abs=1e-12)
    # cusp of the curve at w = 1/3 and far vertex at w = 3
    assert cardioid_quartic(1.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert cardioid_quartic(3.0, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_cardioid_membership():
    t = default_target(Family.CARDIOID)
    assert region_contains(t, 1.0)
    assert not region_contains(t, 3.0 + 1e-9)
    assert not region_contains(t, 1.0 / 3.0 - 1e-9)


def test_lune_membership():
    t = default_target(Family.LUNE)
    assert region_contains(t, 1.0)
    # the lobe meets the real axis at sqrt(2) -/+ 1
    assert region_contains(t, SQRT2 - 1.0 + 1e-9)
    assert not region_contains(t, SQRT2 - 1.0 - 1e-9)
    assert region_contains(t, SQRT2 + 1.0 - 1e-9)
    assert not region_contains(t, SQRT2 + 1.0 + 1e-9)
    # |w^2 - 1| < 2|w| also holds on the mirrored left lobe, which is not
    # part of the domain
    assert not region_contains(t, -1.0)
    assert not region_contains(t, -1.5 + 0.3j)
    # the image of z + sqrt(1 + z^2) just inside the unit circle
    z = 0.999 * np.exp(2j * math.pi * np.arange(2001) / 2001)
    assert np.all(membership_mask(t, z + np.sqrt(1.0 + z * z)))


def test_rl_membership():
    t = default_target(Family.RATIONAL_RL)
    assert region_contains(t, 1.0)
    # the left loop of |(w - sqrt(2))^2 - 1| = 1 meets the real axis at
    # w = 0 and at its node w = sqrt(2)
    assert not region_contains(t, SQRT2 + 1e-9)
    assert region_contains(t, SQRT2 - 1e-9)
    assert region_contains(t, 1e-6)
    assert not region_contains(t, -1e-6)
    # inside |w^2 - sqrt(2) w + 1| < 1 but outside the generator image
    for w in (1.0 + 0.4j, 0.7 + 0.5j, 1.2 + 0.3j):
        assert not region_contains(t, w), w


def test_strongly_starlike_membership():
    t = TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.5)
    assert region_contains(t, 1.0 + 0.999j)
    assert not region_contains(t, 1.0 + 1.001j)
    assert not region_contains(t, -1.0)
    assert not region_contains(t, 0.0)


def test_nephroid_membership():
    t = default_target(Family.NEPHROID)
    assert region_contains(t, 1.0)
    # real-axis extent is (1/3, 5/3)
    assert not region_contains(t, 5.0 / 3.0 + 1e-9)
    assert region_contains(t, 5.0 / 3.0 - 1e-6)
    assert not region_contains(t, 1.0 / 3.0 - 1e-9)
    assert nephroid_sextic(5.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_sigmoid_membership():
    t = default_target(Family.SIGMOID_SG)
    assert region_contains(t, 1.0)
    hi = 2.0 * E / (1.0 + E)
    lo = 2.0 / (1.0 + E)
    assert not region_contains(t, hi + 1e-9)
    assert region_contains(t, hi - 1e-6)
    assert not region_contains(t, lo - 1e-9)
    assert not region_contains(t, 2.0)


# The cardioid, nephroid, exponential, sigmoid, sine and rational masks,
# each against its exact value: the polynomials in Fraction on the exact
# values of the float inputs; |log w| - 1, |log(w / (2 - w))| - 1,
# |arcsin(w - 1)| - 1 and min |sigma -/+ K w| - 2, with
# sigma^2 = K^2 (w^2 + 4w - 4) and K = sqrt2 + 1, with mpmath at 50 digits.
# The exact value is negative inside.

def _exact_cardioid(w):
    x, y = Fraction(w.real), Fraction(w.imag)
    return (81 * x**4 - 324 * x**3 + 162 * x**2 * y**2 + 270 * x**2
            - 324 * x * y**2 - 84 * x + 81 * y**4 - 54 * y**2 + 9)


def _exact_nephroid(w):
    u, v = Fraction(w.real), Fraction(w.imag)
    return (u * u - 2 * u + v * v + Fraction(5, 9)) ** 3 - Fraction(4, 3) * v * v


def _exact_log_excess(u):
    from mpmath import log
    return math.inf if u == 0 else abs(log(u)) - 1


def _exact_exponential(w):
    from mpmath import mpc
    return _exact_log_excess(mpc(w.real, w.imag))


def _exact_sigmoid(w):
    from mpmath import mpc
    w = mpc(w.real, w.imag)
    return math.inf if w == 2 else _exact_log_excess(w / (2 - w))


def _exact_sine(w):
    from mpmath import asin, mpc
    return abs(asin(mpc(w.real, w.imag) - 1)) - 1


def _exact_rational(w):
    from mpmath import mpc, sqrt
    w = mpc(w.real, w.imag)
    k = sqrt(2) + 1
    sigma = sqrt(k * k * (w * w + 4 * w - 4))
    return min(abs(sigma - k * w), abs(sigma + k * w)) - 2


_EXACT = {Family.CARDIOID: _exact_cardioid, Family.NEPHROID: _exact_nephroid,
          Family.EXPONENTIAL: _exact_exponential,
          Family.SIGMOID_SG: _exact_sigmoid, Family.SINE: _exact_sine,
          Family.RATIONAL_R: _exact_rational}

# w = 0, the sigmoid's pole w = 2, the cardioid's cusp and the nephroid's
# right end on the real axis
_ANCHORS = [0.0, 2.0, 1.0 / 3.0, 5.0 / 3.0]


@pytest.mark.parametrize("fam", list(_EXACT))
def test_mask_agrees_with_exact_value(fam):
    from mpmath import workdps
    t = default_target(fam)
    gen = regions.FAMILIES[fam].generator
    edge = gen(regions._anchored_circle(regions._anchored_angles(400)))
    rng = np.random.default_rng(20261019)
    lo, hi = edge.real.min() - 0.25, edge.real.max() + 0.25
    h = np.abs(edge.imag).max() + 0.25
    box = rng.uniform(lo, hi, 1500) + 1j * rng.uniform(-h, h, 1500)
    z = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 400))
    near = np.concatenate([gen((1.0 - 1e-6) * z), gen((1.0 + 1e-6) * z)])
    ws = np.concatenate([box, near, _ANCHORS])
    mask = membership_mask(t, ws)
    checked = [0, 0]
    with workdps(50):
        for w, m in zip(ws.tolist(), mask.tolist()):
            exact = _EXACT[fam](w)
            if abs(exact) >= 1e-9:
                assert m == (exact < 0), (fam, w)
                checked[m] += 1
    # both sides well covered, and most pushed boundary points decided
    assert min(checked) > 300 and sum(checked) > len(box) + 0.9 * len(near)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
def test_strongly_starlike_mask_agrees_with_exact_value(gamma):
    # the sector against |arg w| - pi gamma / 2 with mpmath at 50 digits, at
    # seeded box points and at points 1e-6 in angle either side of each ray;
    # w = 0, the apex, is outside
    from mpmath import arg, mpc, mpf, pi, workdps
    t = TargetSpec(Family.STRONGLY_STARLIKE, gamma=gamma)
    rng = np.random.default_rng(20261020)
    box = rng.uniform(-2.0, 4.0, 1500) + 1j * rng.uniform(-4.0, 4.0, 1500)
    half = 0.5 * math.pi * gamma
    r = rng.uniform(1e-3, 4.0, 400)
    near = np.concatenate([r * np.exp(1j * (ray + d))
                           for ray in (half, -half) for d in (-1e-6, 1e-6)])
    ws = np.concatenate([box, near, [0.0, 1.0, -1.0]])
    mask = membership_mask(t, ws)
    checked = [0, 0]
    with workdps(50):
        bound = mpf(gamma) * pi / 2
        for w, m in zip(ws.tolist(), mask.tolist()):
            exact = math.inf if w == 0 else abs(arg(mpc(w.real, w.imag))) - bound
            if abs(exact) >= 1e-9:
                assert m == (exact < 0), (gamma, w)
                checked[m] += 1
    assert min(checked) > 300 and sum(checked) > len(box) + 0.9 * len(near)


# 0, 2, 1, -0.3 and 2.5 on the real axis, -2.4, where |beta| of the sine
# mask rounds above 1, and 1e-6 either side of the real-axis ends of the
# sine domain, 1 -/+ sin 1, and of the left end 2(sqrt2 - 1) of the
# rational domain
_ARCSIN_ANCHORS = [0.0, 2.0, 1.0, -0.3, 2.5, -2.4] + [
    c + d for c in (1.0 + SIN1, 1.0 - SIN1, 2.0 * (SQRT2 - 1.0))
    for d in (-1e-6, 1e-6)]


@pytest.mark.parametrize("fam, expected", [
    (Family.EXPONENTIAL, [False, True, True, False, True]),
    (Family.SIGMOID_SG, [False, False, True, False, False]),
    (Family.CARDIOID, [False, True, True, False, True]),
    (Family.NEPHROID, [False, False, True, False, False]),
    (Family.SINE, [False, False, True, False, False, False,
                   True, False, False, True, True, True]),
    (Family.RATIONAL_R, [False, False, True, False, False, False,
                         True, True, False, False, False, True]),
])
def test_mask_anchors_raise_no_warning(fam, expected):
    # log|0| = -inf, the division at w = 2, arcsin beyond +-1 and arccosh
    # below 1 stay out of the masks or inside their own np.errstate, whatever
    # the caller's float policy
    ws = _ARCSIN_ANCHORS if fam in (Family.SINE, Family.RATIONAL_R) else \
        [0.0, 2.0, 1.0, *_ANCHORS[2:]]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        mask = membership_mask(default_target(fam), ws)
    assert mask.tolist() == expected


def test_sine_mask_near_real_axis():
    # on and next to the real axis the sine mask raises no float warning:
    # |beta| rounds above 1 there, and alpha stays at least 1; on the axis
    # the domain is (1 - sin 1, 1 + sin 1)
    rng = np.random.default_rng(20)
    x = rng.uniform(-10.0, 12.0, 60_000)
    t = default_target(Family.SINE)
    for y in (0.0, 1e-300, -1e-20, 1e-12, -1e-8):
        with np.errstate(all="raise"):
            mask = membership_mask(t, x + 1j * y)
        far = np.abs(np.abs(x - 1.0) - SIN1) > 1e-6
        assert np.array_equal(mask[far], (np.abs(x - 1.0) < SIN1)[far]), y


# ---------------------------------------------------------------------------
# Winding-number oracle

def test_winding_unit_circle():
    th = np.linspace(0.0, 2.0 * math.pi, 257)
    circ = np.exp(1j * th)
    assert winding_contains(circ, 0.0j)
    assert winding_contains(circ, 0.5 + 0.3j)
    assert not winding_contains(circ, 1.5)
    with pytest.raises(IndeterminateWindingError):
        winding_contains(circ, complex(circ[10]))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_winding_circle_interior_points(r, th):
    angles = np.linspace(0.0, 2.0 * math.pi, 129)
    circ = np.exp(1j * angles)
    assert winding_contains(circ, r * cmath.exp(1j * th))


def test_sine_membership_anchors():
    t = default_target(Family.SINE)
    assert region_contains(t, 1.0)
    assert not region_contains(t, 1.0 + SIN1 + 1e-6)
    assert region_contains(t, 1.0 + SIN1 - 1e-6)
    assert region_contains(t, 1.0 - SIN1 + 1e-6)
    assert not region_contains(t, 1.0 - SIN1 - 1e-6)


def test_rational_membership_anchors():
    t = default_target(Family.RATIONAL_R)
    lo = 2.0 * (SQRT2 - 1.0)
    assert region_contains(t, 1.0)
    assert region_contains(t, lo + 1e-6)
    assert not region_contains(t, lo - 1e-6)
    assert not region_contains(t, 10.0)


def test_membership_mask_matches_scalar():
    for fam in (Family.SINE, Family.RATIONAL_R):
        t = default_target(fam)
        rng = np.random.default_rng(7)
        ws = (rng.uniform(0.3, 2.0, 60)
              + 1j * rng.uniform(-1.0, 1.0, 60))
        mask = membership_mask(t, ws)
        for w, m in zip(ws, mask):
            assert bool(m) == region_contains(t, complex(w))


def test_algebraic_generator_consistency():
    # Families with a circle-image generator: random points classified
    # identically by the membership predicate and the winding number.
    rng = np.random.default_rng(20240824)
    for fam in (Family.CARDIOID, Family.NEPHROID, Family.LEMNISCATE,
                Family.EXPONENTIAL, Family.SIGMOID_SG, Family.SINE,
                Family.RATIONAL_R, Family.RATIONAL_RL, Family.LUNE):
        t = default_target(fam)
        gen = regions.FAMILIES[fam].generator
        boundary = gen(regions._anchored_circle(regions._anchored_angles(4096)))
        pts = rng.uniform(-1.0, 3.5, 400) + 1j * rng.uniform(-2.0, 2.0, 400)
        n_checked = 0
        for w in pts:
            w = complex(w)
            if np.min(np.abs(boundary - w)) < 1e-3:
                continue  # too near the sampled boundary to trust either side
            try:
                wind = winding_contains(boundary, w)
            except IndeterminateWindingError:
                continue
            assert region_contains(t, w) == wind, (fam, w)
            n_checked += 1
        assert n_checked > 300, fam


# ---------------------------------------------------------------------------
# Boundary sampling

def test_boundary_closed_for_all_families():
    for t in ALL_TARGETS:
        _, pts = region_boundary(t, 257)
        assert len(pts) == 257
        assert abs(pts[0] - pts[-1]) < 1e-12, t.label()


def test_boundary_small_n():
    with pytest.raises(ParameterError):
        region_boundary(default_target(Family.CARDIOID), 3)
    with pytest.raises(ParameterError):
        region_boundary(default_target(Family.CARDIOID), 1_000_001)
    _, pts = region_boundary(default_target(Family.CARDIOID), 8)
    assert len(pts) == 8


def test_boundary_contains_real_axis_anchors():
    # anchored angle grid always includes z = 1 and z = -1
    for n in (8, 64, 257):
        _, pts = region_boundary(default_target(Family.CARDIOID), n)
        assert any(abs(p - 3.0) < 1e-12 for p in pts)
        assert any(abs(p - 1.0 / 3.0) < 1e-12 for p in pts)
    _, pts = region_boundary(default_target(Family.SINE), 64)
    assert any(abs(p - (1.0 + SIN1)) < 1e-12 for p in pts)
    _, pts = region_boundary(default_target(Family.NEPHROID), 64)
    assert any(abs(p - 5.0 / 3.0) < 1e-12 for p in pts)
    _, pts = region_boundary(default_target(Family.RATIONAL_R), 64)
    assert any(abs(p - 2.0 * (SQRT2 - 1.0)) < 1e-12 for p in pts)


def test_boundary_parameters_align_with_samples():
    for t in (default_target(Family.CARDIOID), default_target(Family.LUNE),
              default_target(Family.PARABOLIC)):
        th, pts = region_boundary(t, 33)
        assert len(th) == len(pts) == 33
        assert th[0] == 0.0
        assert th[-1] == pytest.approx(2.0 * math.pi)
    # generator families: sample k is exactly the generator at angle k
    t = default_target(Family.NEPHROID)
    th, pts = region_boundary(t, 33)
    gen = regions.FAMILIES[Family.NEPHROID].generator
    np.testing.assert_allclose(pts, gen(np.exp(1j * th)), atol=1e-14)


def test_truncated_boundaries_stay_within_cap():
    for t in (TargetSpec(Family.STARLIKE_ORDER, alpha=0.0),
              TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.5),
              default_target(Family.PARABOLIC)):
        _, pts = region_boundary(t, 513)
        assert np.max(np.abs(pts)) <= 4.0 + 1e-9


def test_lune_boundary_on_the_two_circles():
    _, pts = region_boundary(default_target(Family.LUNE), 257)
    d = np.minimum(np.abs(np.abs(pts - 1.0) - SQRT2),
                   np.abs(np.abs(pts + 1.0) - SQRT2))
    assert np.max(d) < 1e-9


# ---------------------------------------------------------------------------
# Containment thresholds

def test_threshold_rejects_center_below_one():
    with pytest.raises(ParameterError):
        containment_threshold(default_target(Family.CARDIOID), 0.999)


def test_threshold_rejects_nan_center():
    # NaN is not below 1, but it is no center either: every family refuses it
    for t in ALL_TARGETS:
        with pytest.raises(ParameterError):
            containment_threshold(t, math.nan)


def test_threshold_exact_values():
    assert containment_threshold(
        TargetSpec(Family.STARLIKE_ORDER, alpha=0.25), 1.0) == 0.75
    assert containment_threshold(
        default_target(Family.LEMNISCATE), 1.0) == pytest.approx(SQRT2 - 1.0)
    assert containment_threshold(
        default_target(Family.PARABOLIC), 1.0) == 0.5
    assert containment_threshold(
        default_target(Family.EXPONENTIAL), 1.0) == pytest.approx(1.0 - 1.0 / E)
    assert containment_threshold(
        default_target(Family.CARDIOID), 1.0) == pytest.approx(2.0 / 3.0)
    assert containment_threshold(
        default_target(Family.SINE), 1.0) == pytest.approx(SIN1)
    assert containment_threshold(
        default_target(Family.LUNE), 1.0) == pytest.approx(2.0 - SQRT2)
    assert containment_threshold(
        default_target(Family.RATIONAL_R), 1.0) == pytest.approx(3.0 - 2.0 * SQRT2)
    assert containment_threshold(
        TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.5), 1.0) == \
        pytest.approx(math.sin(math.pi / 4.0))
    assert containment_threshold(
        default_target(Family.NEPHROID), 1.0) == pytest.approx(2.0 / 3.0)
    assert containment_threshold(
        default_target(Family.NEPHROID), 5.0 / 3.0) == pytest.approx(0.0)
    assert containment_threshold(
        default_target(Family.SIGMOID_SG), 1.0) == \
        pytest.approx(2.0 * E / (1.0 + E) - 1.0)


def test_rl_threshold_composite():
    t = default_target(Family.RATIONAL_RL)
    # at c = sqrt(2) the inner quantity hits 1 and the threshold vanishes
    assert containment_threshold(t, SQRT2) == pytest.approx(0.0, abs=1e-12)
    # beyond the admissible band the disk cannot fit at all
    assert containment_threshold(t, SQRT2 + 1.0 + 1e-9) == 0.0
    assert containment_threshold(t, 1.0) == \
        pytest.approx(math.sqrt(math.sqrt(1.0 - (SQRT2 - 1.0) ** 2)
                                - (1.0 - (SQRT2 - 1.0) ** 2)))


def test_rl_threshold_zero_from_sqrt2():
    # the RL domain is the left loop of the lemniscate with its node at
    # sqrt2: a center from there on is outside it, so no disk fits
    t = default_target(Family.RATIONAL_RL)
    centers = [SQRT2, math.nextafter(SQRT2, 3.0), 2.0,
               math.nextafter(SQRT2 + 1.0, 0.0)]
    centers += np.linspace(SQRT2, SQRT2 + 1.0, 1000, endpoint=False).tolist()
    for c in centers:
        assert containment_threshold(t, c) == 0.0, c
        assert not region_contains(t, c), c
    assert containment_threshold(t, SQRT2 - 1e-6) > 0.0


def test_threshold_disks_fit_inside_regions():
    # A disk of 0.995 * threshold radius around an admissible center stays
    # inside the region (512-point sampling), for every family.
    th = 2.0 * math.pi * np.arange(512) / 512
    for t in ALL_TARGETS:
        for c in (1.0, 1.1, 1.3):
            R = containment_threshold(t, c)
            if R <= 1e-6:
                continue
            pts = c + 0.995 * R * np.exp(1j * th)
            assert np.all(membership_mask(t, pts)), (t.label(), c)


def test_readings_are_what_assembly_takes():
    # the solver calls a reading in place of bounds.quartic (an affine
    # threshold) or of the disk center (threshold None), and gives every
    # family without an affine threshold the proof written for RL alone
    assert [f for f, fd in regions.FAMILIES.items()
            if fd.threshold is None] == [Family.RATIONAL_RL]
    for family, fd in regions.FAMILIES.items():
        for class_id, readings in fd.readings.items():
            for variant, reading in readings.items():
                assert callable(reading), (family, class_id, variant)
                if fd.threshold is None:
                    c = reading(0.5)
                    assert isinstance(c, float) and 1.0 <= c < math.inf
                    continue
                for m in (0.0, CLASSES[class_id].max_mag):
                    coeffs = reading(m)
                    assert len(coeffs) == 5, (family, class_id, variant, m)
                    assert all(isinstance(x, float) and math.isfinite(x)
                               for x in coeffs), (family, class_id, variant, m)
