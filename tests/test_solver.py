import enum
import importlib.util
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radstar import bounds, regions, solver
from radstar.core import (CLASSES, ClassId, ConditionKind, DomainError,
                          Family, NoRootError, ParameterError, RadiusCondition,
                          TargetSpec, UnsupportedCombinationError, Variant,
                          class_from_coeff_mag, default_target, make_class)
from radstar.regions import containment_threshold, region_boundary
from radstar.solver import (assemble_condition, compute_radius, radius_table,
                            smallest_root_in_01, supported_targets)
from scan_oracle import SCAN_STEP, first_stop, horner_loop, scan_smallest_root


def _poly_condition(coeffs):
    return RadiusCondition(Variant.CENTER_CORRECTED,
                           coeffs=tuple(float(c) for c in coeffs))


# ---------------------------------------------------------------------------
# Assembly

def test_base_starlike_polynomial_g1_extreme():
    # mag 1, threshold p=0, q=1: h = N - (1+r^2)(r^2+2r+1)
    cond = assemble_condition(make_class(ClassId.G1, -1.0),
                              TargetSpec(Family.STARLIKE_ORDER, alpha=0.0))
    assert cond.kind is ConditionKind.POLYNOMIAL
    assert cond.coeffs == pytest.approx([-1.0, 2.0, 6.0, 2.0, -1.0])


def test_base_starlike_root_closed_form_g1():
    # the assembled quartic is reciprocal; with s = r + 1/r it factors through
    # s^2 - 2s - 8 = 0, whose usable root gives rho = 2 - sqrt(3)
    res = compute_radius(make_class(ClassId.G1, -1.0),
                         TargetSpec(Family.STARLIKE_ORDER, alpha=0.0))
    assert res.rho == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-10)


def test_g2_nephroid_polynomial_and_root():
    cond = assemble_condition(make_class(ClassId.G2, -1.0),
                              default_target(Family.NEPHROID))
    # same quartic up to the positive factor 3 cleared during assembly
    assert [3.0 * c for c in cond.coeffs] == \
        pytest.approx([-2.0, 5.0, 21.0, 19.0, 5.0])
    res = smallest_root_in_01(cond)
    assert res.rho == pytest.approx(0.2, abs=1e-10)


def test_condition_negative_at_origin():
    for class_id in ClassId:
        spec = class_from_coeff_mag(class_id, 0.5)
        for t in supported_targets(class_id):
            cond = assemble_condition(spec, t)
            assert cond(0.0) < 0.0, t.label()


def test_condition_matches_disk_inequality():
    # h(r) and radius(r) - threshold(center(r)) must agree in sign wherever
    # both are clearly nonzero; the polynomial is that inequality cleared of
    # its positive denominator.
    rng = np.random.default_rng(99)
    for class_id in ClassId:
        for mag in (0.0, 0.5, 1.0):
            spec = class_from_coeff_mag(class_id, mag)
            for t in supported_targets(class_id):
                cond = assemble_condition(spec, t)
                for r in rng.uniform(1e-3, 0.999, 25):
                    r = float(r)
                    d = bounds.disk(spec, r)
                    lhs = d.radius - regions.containment_threshold(t, d.center)
                    h = cond(r)
                    if abs(lhs) > 1e-9 and abs(h) > 1e-9:
                        assert (lhs > 0.0) == (h > 0.0), (t.label(), mag, r)


def test_printed_variant_identical_for_unflagged_targets():
    spec = make_class(ClassId.G1, -1.0)
    for t in supported_targets(ClassId.G1):
        if t.family in (Family.NEPHROID, Family.RATIONAL_RL):
            continue
        a = compute_radius(spec, t, Variant.CENTER_CORRECTED)
        b = compute_radius(spec, t, Variant.PRINTED)
        assert a.rho == b.rho, t.label()


def test_flagged_nephroid_variants_differ():
    spec = make_class(ClassId.G1, -1.0)
    t = default_target(Family.NEPHROID)
    rho_c = compute_radius(spec, t, Variant.CENTER_CORRECTED).rho
    rho_p = compute_radius(spec, t, Variant.PRINTED).rho
    rho_q = compute_radius(spec, t, Variant.PRINTED_PROOF).rho
    assert rho_c == pytest.approx(0.151388, abs=5e-7)
    assert rho_p == pytest.approx(0.174893, abs=5e-7)
    assert rho_q == pytest.approx(0.156466, abs=5e-7)


def test_printed_proof_variant_restricted():
    # only g1 nephroid has a printed-proof reading; RL has a printed one only
    for class_id, family in ((ClassId.G1, Family.CARDIOID),
                             (ClassId.G1, Family.RATIONAL_RL),
                             (ClassId.G2, Family.RATIONAL_RL),
                             (ClassId.G2, Family.NEPHROID)):
        with pytest.raises(ParameterError, match="no printed-proof reading"):
            assemble_condition(make_class(class_id, -1.0), default_target(family),
                               Variant.PRINTED_PROOF)


def test_quartic_is_the_product_form():
    # the closed-form coefficients against h = N - (p(1 - r^2) + q(1 + r^2)) X
    # (G1) and h = N - (p(1 - r^2) + q) X (G2) evaluated as written
    rng = np.random.default_rng(7)
    for _ in range(500):
        m, p, q, r = rng.uniform(0.0, 2.0), *rng.uniform(-2.0, 2.0, 2), rng.uniform()
        x1, x2 = r * r + 2.0 * m * r + 1.0, r * r + m * r + 1.0
        h1 = (2.0 * (1.0 + m) * r * (1.0 + r) ** 2
              - (p * (1.0 - r * r) + q * (1.0 + r * r)) * x1)
        h2 = ((1.0 + m) * r + (4.0 + m) * r * r + (1.0 + m) * r ** 3
              - (p * (1.0 - r * r) + q) * x2)
        for class_id, h in ((ClassId.G1, h1), (ClassId.G2, h2)):
            cond = _poly_condition(bounds.quartic(class_id, m, p, q))
            assert cond(r) == pytest.approx(h, rel=1e-12, abs=1e-12), class_id


def test_rl_condition_is_composite():
    cond = assemble_condition(make_class(ClassId.G1, -1.0),
                              default_target(Family.RATIONAL_RL))
    assert cond.kind is ConditionKind.COMPOSITE
    res = smallest_root_in_01(cond)
    assert 0.0 < res.rho < 1.0
    assert res.residual <= 1e-10


def test_g2_unsupported_requires_extended():
    spec = make_class(ClassId.G2, -1.0)
    t = default_target(Family.EXPONENTIAL)
    with pytest.raises(UnsupportedCombinationError):
        assemble_condition(spec, t)
    cond = assemble_condition(spec, t, extended=True)
    assert cond.extrapolation
    res = smallest_root_in_01(cond)
    assert res.extrapolation and 0.0 < res.rho < 1.0


def test_g2_base_starlike_allowed_without_extended():
    cond = assemble_condition(make_class(ClassId.G2, -1.0),
                              TargetSpec(Family.STARLIKE_ORDER, alpha=0.0))
    assert not cond.extrapolation


def test_g2_positive_order_requires_extended():
    spec = make_class(ClassId.G2, -1.0)
    t = TargetSpec(Family.STARLIKE_ORDER, alpha=0.25)
    with pytest.raises(UnsupportedCombinationError):
        assemble_condition(spec, t)
    assert assemble_condition(spec, t, extended=True).extrapolation


# ---------------------------------------------------------------------------
# Root isolation

_COEFF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFF, min_size=1, max_size=5).map(tuple),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8))
@example((-0.0,) * 5, [0.0, 0.5])  # the loop's first 0.0 * r makes this +0.0
def test_unrolled_horner_matches_loop(coeffs, rs):
    # the evaluator built once per condition gives the loop's floats, signs
    # of zero included
    cond = _poly_condition(coeffs)
    for r in rs:
        assert struct.pack("<d", cond(r)) == struct.pack("<d", horner_loop(coeffs, r))


def test_polynomial_degree_limited():
    with pytest.raises(ParameterError, match="at most 5"):
        _poly_condition([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_root_simple_linear():
    res = smallest_root_in_01(_poly_condition([-0.25, 1.0]))
    assert res.rho == pytest.approx(0.25, abs=1e-12)
    assert res.bracket[0] <= res.rho <= res.bracket[1]


def test_root_picks_smallest():
    # zeros at 0.2 and 0.5
    res = smallest_root_in_01(_poly_condition([-0.1, 0.7, -1.0]))
    assert res.rho == pytest.approx(0.2, abs=1e-12)


def test_no_root_raises():
    with pytest.raises(NoRootError) as ei:
        smallest_root_in_01(_poly_condition([-1.0, 0.0, 0.0, 0.0, 0.999]))
    assert ei.value.h_at_0 == -1.0
    assert ei.value.h_near_1 < 0.0


def _composite_condition(h):
    return RadiusCondition(Variant.CENTER_CORRECTED, evaluator=h)


def _nan_between(a, b):
    # -1 below a, NaN on [a, b), +1 from b on
    return _composite_condition(
        lambda r: -1.0 if r < a else (math.nan if r < b else 1.0))


def test_nan_condition_raises():
    # NaN on [0.3, 0.6): NaN must not pass the scan as negative and report
    # the edge of the NaN stretch as a root
    with pytest.raises(NoRootError, match="NaN at r=0.3"):
        smallest_root_in_01(_nan_between(0.3, 0.6))
    # NaN inside the bracket found by the scan stops the bisection
    with pytest.raises(NoRootError, match=r"NaN at r=0\.010[45]"):
        smallest_root_in_01(_nan_between(0.0102, 0.0108))
    # NaN at the origin is neither negative nor a parameter error
    with pytest.raises(NoRootError, match="NaN at r=0.0"):
        smallest_root_in_01(_composite_condition(lambda r: r * math.nan))


# the targets of the certificate tests: every family, with order parameters
# on a grid
_ORDER_TARGETS = (
    [TargetSpec(Family.STARLIKE_ORDER, alpha=a) for a in (0.0, 0.3, 0.9)]
    + [TargetSpec(Family.STRONGLY_STARLIKE, gamma=g) for g in (0.1, 0.5, 1.0)]
    + [default_target(f) for f in Family
       if f not in (Family.STARLIKE_ORDER, Family.STRONGLY_STARLIKE)])


def _library_conditions(families):
    # every reading of every cell over 41 magnitudes per class, extended
    for class_id in ClassId:
        for mag in np.linspace(0.0, CLASSES[class_id].max_mag, 41).tolist():
            spec = class_from_coeff_mag(class_id, mag)
            for t in _ORDER_TARGETS:
                if t.family not in families:
                    continue
                for policy in Variant:
                    try:
                        cond = assemble_condition(spec, t, policy, extended=True)
                    except ParameterError:
                        continue
                    if cond.variant is policy:  # each reading once
                        yield (class_id, mag, t, policy), cond


def _certified(coeffs, x):
    cond = _poly_condition(coeffs)
    return solver._proof_of(cond).negative_to(cond, x)


def _quartic_window(cond, lo, hi):
    bound = solver._proof_of(cond).step_bound(cond, lo, hi)
    return solver._root_window(cond, lo, hi, cond(lo), cond(hi), *bound)


def _rl_window(cond, lo, hi, h_lo, h_hi):
    # the RL proof's bound, also on a condition whose evaluator lacks it
    return solver._root_window(cond, lo, hi, h_lo, h_hi,
                               *solver._RL_PROOF.step_bound(cond, lo, hi))


def test_library_quartics_certified_at_scan_step():
    # the binary search stands in for the point-by-point walk where the
    # Bernstein certificate proves h negative at every grid point before the
    # walk's stop; it does on every library quartic, so none falls back to
    # the walk
    polynomial = set(Family) - {Family.RATIONAL_RL}
    n = 0
    for cell, cond in _library_conditions(polynomial):
        k = first_stop(cond)
        assert k is not None, cell
        assert solver._proof_of(cond) is solver._QUARTIC_PROOF, cell
        assert _certified(cond.coeffs, (k - 1) * SCAN_STEP), cell
        n += 1
    assert n == 2 * 41 * 15 + 41 * 2  # g1 nephroid has two more readings


def test_rl_signs_monotone_on_grid():
    # what lets the binary search stand in for the walk on the RL evaluator:
    # on the grid, h is negative and then nonnegative, changing once, for
    # both classes and both centers
    n = 0
    for cell, cond in _library_conditions({Family.RATIONAL_RL}):
        assert solver._proof_of(cond) is solver._RL_PROOF, cell
        assert solver._proof_of(cond).negative_to(cond, 0.999), cell
        negative = [cond(k * SCAN_STEP) < 0.0 for k in range(1, 1000)]
        assert negative == sorted(negative, reverse=True), cell
        assert negative[0] and not negative[-1], cell
        n += 1
    assert n == 41 * 3


def test_certificate_refuses_nonfinite_and_touching_quartics():
    assert _certified((-1.0, 0.5), 0.999)
    for coeffs in ((math.nan, 0.5), (-1.0, math.inf), (-math.inf,),
                   (-1.0, 0.0, 0.0, 0.0, -math.inf)):
        assert not _certified(coeffs, 0.5), coeffs
    # -(r - 0.3)^2 is negative on [0, 0.5] except at 0.3, where it is 0
    assert not _certified((-0.09, 0.6, -1.0), 0.5)
    # negative on [0, x], but by less than the rounding error at x
    assert not _certified((-0.5, 1.0), math.nextafter(0.5, 0.0))


def _exact(coeffs, x, derivative=False):
    # h(x), or h'(x), of the stored float coefficients in exact arithmetic
    x = Fraction(x)
    terms = [(i, Fraction(c)) for i, c in enumerate(coeffs)]
    if derivative:
        return sum(i * c * x ** (i - 1) for i, c in terms if i)
    return sum(c * x ** i for i, c in terms)


def test_library_quartics_root_window_proven():
    # bisection skips every midpoint outside the window (a, b): on every
    # library quartic the window is narrower than the step, the exact h of
    # the stored coefficients is below minus the Horner error bound at a and
    # above it at b wherever they lie inside the step, and h' is positive at
    # both ends of the step
    polynomial = set(Family) - {Family.RATIONAL_RL}
    n = 0
    for cell, cond in _library_conditions(polynomial):
        k = first_stop(cond)
        lo, hi = (k - 1) * SCAN_STEP, k * SCAN_STEP
        a, b = _quartic_window(cond, lo, hi)
        err = Fraction(solver._proof_of(cond).step_bound(cond, lo, hi)[0])
        assert lo <= a < b <= hi and b - a < hi - lo, cell
        assert a == lo or _exact(cond.coeffs, a) < -err, cell
        assert b == hi or _exact(cond.coeffs, b) > err, cell
        assert _exact(cond.coeffs, lo, True) > 0, cell
        assert _exact(cond.coeffs, hi, True) > 0, cell
        n += 1
    assert n == 2 * 41 * 15 + 41 * 2


# The end c_end of the centers for which each family's containment lemma
# holds, as containment_threshold's docstring lists it; the half-plane and
# the sector have none.
_C_END = {
    Family.EXPONENTIAL: (math.e + 1.0 / math.e) / 2.0,
    Family.CARDIOID: 5.0 / 3.0, Family.NEPHROID: 5.0 / 3.0,
    Family.PARABOLIC: 1.5, Family.SINE: 1.0 + math.sin(1.0),
    Family.SIGMOID_SG: 2.0 * math.e / (1.0 + math.e),
    Family.LUNE: math.sqrt(2.0), Family.RATIONAL_R: math.sqrt(2.0),
    Family.RATIONAL_RL: math.sqrt(2.0), Family.LEMNISCATE: math.sqrt(2.0),
}


def test_library_disk_centers_below_lemma_range():
    # every library radius rests on its family's containment lemma, which
    # holds only for disk centers below c_end; the disk at the radius of
    # every reading of every cell is centered below it
    n = 0
    for (class_id, mag, t, policy), cond in _library_conditions(set(Family)):
        if t.family not in _C_END:
            continue
        rho = smallest_root_in_01(cond).rho
        center = bounds.disk(class_from_coeff_mag(class_id, mag), rho).center
        assert 1.0 <= center < _C_END[t.family], (class_id, mag, t, policy)
        n += 1
    # g1 nephroid has two more readings and g1 rl one more
    assert n == 2 * 41 * 10 + 41 * 3


_THRESHOLD_TARGETS = ([default_target(f) for f in Family]
                      + [TargetSpec(Family.STARLIKE_ORDER, alpha=0.5),
                         TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.3)])


def _cut_arc(t, w):
    # the samples on the arc that closes a boundary cut at |w| = 4: about
    # alpha for the half-plane, about 0 for the parabola and the sector
    if t.family is Family.STARLIKE_ORDER:
        return np.abs(np.abs(w - t.alpha) - math.sqrt(16.0 - t.alpha ** 2)) < 1e-9
    if t.family in (Family.PARABOLIC, Family.STRONGLY_STARLIKE):
        return np.abs(np.abs(w) - 4.0) < 1e-9
    return np.zeros(len(w), dtype=bool)


@pytest.mark.parametrize("t", _THRESHOLD_TARGETS,
                         ids=lambda t: f"{t.label()}-{t.alpha}-{t.gamma}")
def test_threshold_is_the_distance_to_the_boundary(t):
    # below c_end each threshold is the largest disk about c that fits: the
    # nearest of 65537 boundary samples lies no nearer than the threshold
    # (to rounding) and at most 1e-6 farther, the sampling's spacing; the
    # arcs that close the cut boundaries lie farther than any threshold
    _, w = region_boundary(t, 65537)
    cut = _cut_arc(t, w)
    c_end = min(_C_END.get(t.family, math.inf), 1.5)
    for c in (1.0, (1.0 + c_end) / 2.0, 1.0 + 0.9 * (c_end - 1.0)):
        threshold = containment_threshold(t, c)
        nearest = float(np.min(np.abs(w - c)))
        assert threshold - 1e-12 <= nearest <= threshold + 1e-6, c
        if cut.any():
            assert np.min(np.abs(w[cut] - c)) >= max(2.5, threshold), c


def test_root_window_refused():
    # where the checks fail the window is the whole step: a NaN or infinite
    # coefficient, and the double root of (r - 0.3)^2 (r - 0.7), whose float
    # sign changes 7.6e-9 below 0.3 in the step [0.299, 0.3]
    for coeffs in ((math.nan, 1.0), (-0.3, math.nan), (-math.inf, 1.0),
                   (-0.3, 1.0, 0.0, 0.0, math.inf), (-0.3, -math.inf, 4.0)):
        assert _quartic_window(_poly_condition(coeffs), 0.299, 0.3) \
            == (0.299, 0.3), coeffs
    cond = _poly_condition(np.poly([0.3, 0.3, 0.7])[::-1])
    assert first_stop(cond) == 300
    assert _quartic_window(cond, 0.299, 0.3) == (0.299, 0.3)
    # 1e6 t^3 - 0.0675 t + c, t = r - 0.3002, has h' > 0 at 0.3 but a local
    # maximum and minimum inside the step, so h is not proven increasing on
    # [0.3, 0.301]
    t = np.poly1d([1.0, -0.3002])
    cubic = 1e6 * t ** 3 - 0.0675 * t - (1e6 * 3.2e-4 ** 3 - 0.0675 * 3.2e-4)
    cond = _poly_condition(cubic.coeffs[::-1])
    assert first_stop(cond) == 301
    assert _quartic_window(cond, 0.3, 0.301) == (0.3, 0.301)


def test_quartic_cell_h_evaluations(monkeypatch):
    # one evaluation at 0, about ten in the grid search, four to place the
    # window, the few midpoints inside it and the residual: at most 18 per
    # library quartic cell, where every bisection midpoint took one (42).
    # At least 12 go through RadiusCondition.__call__, which the count
    # patches: a solver that evaluated h around it would not be counted
    calls = []
    call = RadiusCondition.__call__

    def counted(cond, r):
        calls.append(r)
        return call(cond, r)

    monkeypatch.setattr(RadiusCondition, "__call__", counted)
    for class_id in ClassId:
        for t in supported_targets(class_id):
            if t.family is Family.RATIONAL_RL:
                continue
            cond = assemble_condition(make_class(class_id, -1.0), t)
            calls.clear()
            res = smallest_root_in_01(cond)
            assert res.iterations == 30, (class_id, t.label())
            assert 12 <= len(calls) <= 18, (class_id, t.label(), len(calls))


def test_rl_evaluator_matches_disk_and_threshold():
    # the disk map bound at assembly gives the floats of bounds.disk and
    # the threshold through the DiskSpec, bit for bit, for both classes with
    # either center (the printed one too where no reading assembles it)
    t = default_target(Family.RATIONAL_RL)
    rng = np.random.default_rng(15)
    rs = [k * SCAN_STEP for k in range(1, 1000)] + rng.uniform(0.0, 1.0, 200).tolist()
    specs = [class_from_coeff_mag(class_id, mag) for class_id in ClassId
             for mag in np.linspace(0.0, CLASSES[class_id].max_mag, 41).tolist()]
    printed_center = regions.FAMILIES[Family.RATIONAL_RL].readings[
        ClassId.G1][Variant.PRINTED]
    for spec, center_of in ((s, c) for s in specs for c in (None, printed_center)):
        h = solver._rl_evaluator(spec, t, center_of)
        for r in rs:
            d = bounds.disk(spec, r)
            c = d.center if center_of is None else 1.0 / (1.0 - r * r)
            want = d.radius * d.den - regions.containment_threshold(t, c) * d.den
            assert struct.pack("<d", h(r)) == struct.pack("<d", want), (spec, r)
        for r in (-0.1, 1.0, math.nan):  # refused as bounds.disk refuses it
            with pytest.raises(DomainError):
                h(r)


def _rl_exact(class_id, m, printed, x):
    # exact h = N - T(c) D of the RL condition at the float x, with the
    # floats m and SQRT2 taken as exact
    from mpmath import mpf, sqrt
    x, m, s2 = mpf(x), mpf(m), mpf(regions.SQRT2)
    if class_id is ClassId.G1:
        n = 2 * (1 + m) * (x ** 3 + 2 * x ** 2 + x)
        d = (1 - x ** 2) * (x ** 2 + 2 * m * x + 1)
        c = (1 + x ** 2) / (1 - x ** 2)
    else:
        n = (1 + m) * x ** 3 + (4 + m) * x ** 2 + (1 + m) * x
        d = (1 - x ** 2) * (x ** 2 + m * x + 1)
        c = 1 / (1 - x ** 2)
    if printed:
        c = 1 / (1 - x ** 2)
    if c >= s2:
        return n
    t2 = 1 - (s2 - c) ** 2
    return n - sqrt(sqrt(t2) - t2) * d


def test_library_rl_root_window_proven():
    # on every library RL cell, at 200 bits: the rounding bound E holds at
    # points across the step, exact h is below -E at a and above E at b,
    # and lo <= a < b <= hi with the window narrower than the step; the
    # result is the point-by-point scan's
    from mpmath import mp, mpf
    n = 0
    with mp.workprec(200):
        for (class_id, mag, t, policy), cond in _library_conditions(
                {Family.RATIONAL_RL}):
            printed = policy is not Variant.CENTER_CORRECTED
            k = first_stop(cond)
            lo, hi = (k - 1) * SCAN_STEP, k * SCAN_STEP
            a, b = _rl_window(cond, lo, hi, cond(lo), cond(hi))
            err = solver._proof_of(cond).step_bound(cond, lo, hi)[0]
            assert lo <= a < b <= hi and b - a < hi - lo, (class_id, mag, policy)
            xs = np.linspace(lo, hi, 17).tolist() + [a, b, 0.5 * (a + b)]
            for x in xs:
                exact = _rl_exact(class_id, mag, printed, x)
                assert abs(mpf(cond(x)) - exact) <= err, (class_id, mag, x)
            assert a == lo or _rl_exact(class_id, mag, printed, a) < -err
            assert b == hi or _rl_exact(class_id, mag, printed, b) > err
            assert (_outcome(smallest_root_in_01, cond)
                    == _outcome(scan_smallest_root, cond)), (class_id, mag)
            n += 1
    assert n == 41 * 3


def test_rl_step_bound_rho_bounds_the_disk_denominator():
    # rho of the RL proof bounds den_max / den_min over the root's grid
    # step, den the denominator (1 - x^2)(x^2 + e m x + 1) of the disk that
    # the RL condition clears, on every library RL cell; rho = 1 would fail
    # on each of them
    worst = 0.0
    for (class_id, mag, t, policy), cond in _library_conditions(
            {Family.RATIONAL_RL}):
        k = first_stop(cond)
        lo, hi = (k - 1) * SCAN_STEP, k * SCAN_STEP
        rho = solver._proof_of(cond).step_bound(cond, lo, hi)[1]
        disk_at = bounds.disk_map(class_from_coeff_mag(class_id, mag))
        dens = [disk_at(x)[2] for x in np.linspace(lo, hi, 201).tolist()]
        ratio = max(dens) / min(dens)
        assert 1.0 < ratio <= rho, (class_id, mag, policy, ratio, rho)
        worst = max(worst, ratio / rho)
    assert worst > 0.99  # the bound is nearly attained


def test_rl_root_window_refused():
    # NaN values at the ends of the step or inside it, and a step on which
    # the center can reach sqrt2, give the whole step
    cond = assemble_condition(make_class(ClassId.G1, -1.0),
                              default_target(Family.RATIONAL_RL))
    k = first_stop(cond)
    lo, hi = (k - 1) * SCAN_STEP, k * SCAN_STEP
    assert _rl_window(cond, lo, hi, cond(lo), cond(hi)) != (lo, hi)
    for h_lo, h_hi in ((math.nan, cond(hi)), (cond(lo), math.nan),
                       (math.nan, math.nan), (cond(hi), cond(lo))):
        assert _rl_window(cond, lo, hi, h_lo, h_hi) == (lo, hi)
    nan_inside = _nan_between(lo + 1e-9, hi - 1e-9)
    assert _rl_window(nan_inside, lo, hi, -1.0, 1.0) == (lo, hi)
    # (1 + r^2)/(1 - r^2) reaches sqrt2 at r = sqrt2 - 1 = 0.41421...
    for lo, hi in ((0.414, 0.415), (0.5, 0.501), (0.998, 0.999)):
        assert solver._proof_of(cond).step_bound(cond, lo, hi)[0] == math.inf
        assert _rl_window(cond, lo, hi, -1.0, 1.0) == (lo, hi)
    assert solver._proof_of(cond).step_bound(cond, 0.413, 0.414)[0] < math.inf


def test_rl_root_window_only_for_the_rl_evaluator():
    # on h = r - 0.3 with a stretch of +1 on [0.2999995, 0.2999999), the
    # grid signs change once, but the RL window, proven for the RL evaluator
    # alone, would skip the stretch; a composite condition whose evaluator
    # carries no proof attribute has the empty proof, so the bisection
    # evaluates every midpoint and finds its start
    def h(r):
        return 1.0 if 0.2999995 <= r < 0.2999999 else r - 0.3

    cond = RadiusCondition(Variant.CENTER_CORRECTED, evaluator=h)
    res = smallest_root_in_01(cond)
    assert res.bracket == (0.299999499999918, 0.2999995000008493)
    assert _outcome(smallest_root_in_01, cond) == _outcome(scan_smallest_root, cond)
    assert solver._proof_of(cond) is solver._NO_PROOF
    assert not solver._proof_of(cond).negative_to(cond, 0.001)
    assert (solver._proof_of(cond).step_bound(cond, 0.299, 0.3)
            == (math.inf, math.inf))
    rl = assemble_condition(make_class(ClassId.G1, -1.0),
                            default_target(Family.RATIONAL_RL))
    assert solver._proof_of(rl) is solver._RL_PROOF


def test_rl_cell_h_evaluations(monkeypatch):
    # one evaluation at 0, about ten in the grid search, four to place and
    # check the window, the few midpoints inside it and the residual: at
    # most 18 per library RL cell, as per quartic cell, where every midpoint
    # took one (42), and at least 12 counted through RadiusCondition.__call__
    calls = []
    call = RadiusCondition.__call__

    def counted(cond, r):
        calls.append(r)
        return call(cond, r)

    monkeypatch.setattr(RadiusCondition, "__call__", counted)
    n = 0
    for cell, cond in _library_conditions({Family.RATIONAL_RL}):
        calls.clear()
        res = smallest_root_in_01(cond)
        assert res.iterations <= 30, cell
        assert 12 <= len(calls) <= 18, (cell, len(calls))
        n += 1
    assert n == 41 * 3


@pytest.mark.parametrize("b", [-1.0, -0.7, -0.3])
def test_rebuilt_rl_condition_keeps_its_proof(monkeypatch, b):
    # the RL proof travels with the evaluator, so a condition rebuilt by
    # _replace or _make keeps it: the same bracket in the same count of
    # evaluations through RadiusCondition.__call__, where the empty proof
    # would evaluate every midpoint of the bisection
    calls = []
    call = RadiusCondition.__call__

    def counted(cond, r):
        calls.append(r)
        return call(cond, r)

    monkeypatch.setattr(RadiusCondition, "__call__", counted)
    cond = assemble_condition(make_class(ClassId.G1, b),
                              default_target(Family.RATIONAL_RL))
    outcomes = []
    for c in (cond, cond._replace(extrapolation=True),
              RadiusCondition._make(cond)):
        assert solver._proof_of(c) is solver._RL_PROOF
        calls.clear()
        outcomes.append((smallest_root_in_01(c).bracket, len(calls)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][1] <= 18


def test_the_solver_derives_each_proof():
    # a condition holds its four fields and its evaluator _h, no proof; the
    # solver derives the quartic proof from coefficients and the RL proof
    # from _rl_evaluator's evaluator, also after _replace and _make, and an
    # evaluator that carries no proof has the empty one
    n = 0
    for cell, cond in _library_conditions(set(Family)):
        proof = (solver._RL_PROOF if cell[2].family is Family.RATIONAL_RL
                 else solver._QUARTIC_PROOF)
        for c in (cond, cond._replace(extrapolation=True),
                  RadiusCondition._make(cond)):
            assert vars(c).keys() == {"_h"}, cell
            assert solver._proof_of(c) is proof, cell
        n += 1
    assert n == 2 * 41 * 15 + 41 * 2 + 41 * 3
    bare = RadiusCondition(Variant.CENTER_CORRECTED, evaluator=lambda r: r - 0.5)
    assert vars(bare).keys() == {"_h"}
    assert solver._proof_of(bare) is solver._NO_PROOF


def test_patched_call_sees_every_evaluation(monkeypatch):
    # the solver binds cond.__call__, which is the condition's _h itself;
    # a patch on the class binds in its place, so on every library cell of
    # both kinds the patch counts each call that reaches _h, and a solver
    # that called _h around the patch would count more at _h
    patched = []
    call = RadiusCondition.__call__

    def counted(cond, r):
        patched.append(r)
        return call(cond, r)

    monkeypatch.setattr(RadiusCondition, "__call__", counted)
    kinds = set()
    for cell, cond in _library_conditions(set(Family)):
        reached = []
        h = cond._h

        def counted_h(r, h=h, reached=reached):
            reached.append(r)
            return h(r)

        cond._h = counted_h
        patched.clear()
        smallest_root_in_01(cond)
        assert len(reached) >= 12, cell
        assert patched == reached, cell
        kinds.add(cond.kind)
    assert kinds == set(ConditionKind)


def test_call_patch_undone_restores_the_bound_evaluator():
    # the tracer's patch reads RadiusCondition.__call__, sets a wrapper and
    # sets back what it read; the class then holds the same object as
    # before, so cond.__call__ is again the evaluator and the solver's calls
    # take no extra frame
    cond = assemble_condition(make_class(ClassId.G1, -0.7),
                              default_target(Family.CARDIOID))
    before = RadiusCondition.__dict__["__call__"]
    assert cond.__call__ is cond._h
    original = getattr(RadiusCondition, "__call__")
    setattr(RadiusCondition, "__call__", lambda c, r: original(c, r))
    try:
        assert cond.__call__ is not cond._h
        assert cond.__call__(0.3) == cond._h(0.3)
    finally:
        setattr(RadiusCondition, "__call__", original)
    assert RadiusCondition.__dict__["__call__"] is before
    assert cond.__call__ is cond._h
    for r in (0.0, 0.3, 0.999):
        assert cond(r) == cond._h(r)


def _outcome(find_root, cond):
    try:
        return repr(find_root(cond))
    except NoRootError as exc:
        return ("NoRootError", str(exc), repr(exc.h_at_0), repr(exc.h_near_1))
    except ParameterError as exc:
        return ("ParameterError", str(exc))


_GRID_POINT = st.integers(1, 999).map(lambda k: k * 1e-3)
_ROOT = st.one_of(_GRID_POINT, st.floats(0.0, 1.0), st.floats(-2.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROOT, min_size=1, max_size=4), st.floats(0.1, 10.0),
       st.none() | st.tuples(st.one_of(_GRID_POINT, st.floats(0.0, 1.0)),
                             st.floats(0.0, 0.2)))
# the certificate fails and the walk decides: a double root on a grid point,
# and two roots inside one grid step
@example([0.3, 0.3, 0.7], 1.0, None)
@example([0.3002, 0.3007, 0.9], 1.0, None)
# the bisection's first midpoint falls inside the root window, and a root
# within the window's half-width of a grid point clamps it to the step
@example([0.3005], 1.0, None)
@example([0.2 + 1e-14, 0.7], 1.0, None)
# three roots in one step, where the bisection finds the last: h' is not
# proven positive across the step, so the window is refused. A window placed
# without that proof brackets the first root, 0.3001, on the second example
@example([0.3006, 0.3007, 0.3009], 1.0, None)
@example([0.3001, 0.3003, 0.3007], 1.0, None)
def test_root_matches_point_by_point_scan(roots, scale, nan_stretch):
    # quartics (and lower) with roots anywhere, on grid points too, negative
    # at 0 unless 0 is a root, and optionally NaN on [a, a + w): the binary
    # search must return what the point-by-point scan returns, or raise the
    # same error
    coeffs = scale * np.poly(roots)[::-1]
    cond = _poly_condition(-coeffs if coeffs[0] > 0.0 else coeffs)
    if nan_stretch is not None:
        a, w = nan_stretch
        poly = cond
        cond = _composite_condition(
            lambda r: math.nan if a <= r < a + w else poly(r))
    assert _outcome(smallest_root_in_01, cond) == _outcome(scan_smallest_root, cond)


def _nan_from(a):
    return _nan_between(a, a + 0.1)


@pytest.mark.parametrize("cond", [
    _poly_condition([-0.5, 1.0]),     # 0.5 is the search's first probe
    _poly_condition([-0.5005, 1.0]),  # 0.501 is the first point after it
    _poly_condition([-0.9, 1.0]),
    _nan_from(0.5),
    _nan_from(0.501),
    _poly_condition([-1.0]),          # no sign change
    _poly_condition([-0.0005, 1.0]),  # 0.001, the first grid point
    _poly_condition([-0.9985, 1.0]),  # 0.999, the last
    _nan_from(0.001),
    _nan_between(0.2, 0.7),           # NaN at every probe from 0.5 to 0.25
], ids=["root-0.5", "root-0.5005", "root-0.9", "nan-0.5", "nan-0.501",
        "no-root", "root-0.0005", "root-0.9985", "nan-0.001", "nan-0.2-0.7"])
def test_half_grid_boundary_matches_scan(cond):
    # the binary search probes r = 0.5 first and halves the grid from there;
    # at the first and last grid points, across 0.5 and through NaN, the
    # outcome is the point-by-point scan's
    assert _outcome(smallest_root_in_01, cond) == _outcome(scan_smallest_root, cond)


def test_nonnegative_at_origin_rejected():
    with pytest.raises(ParameterError):
        smallest_root_in_01(_poly_condition([0.0, 1.0]))
    with pytest.raises(ParameterError):
        smallest_root_in_01(_poly_condition([0.5, -1.0]))


def test_tol_validation():
    cond = _poly_condition([-0.25, 1.0])
    with pytest.raises(ParameterError):
        smallest_root_in_01(cond, tol=1e-5)
    with pytest.raises(ParameterError):
        smallest_root_in_01(cond, tol=1e-16)
    res = smallest_root_in_01(cond, tol=1e-8)
    assert res.bracket[1] - res.bracket[0] <= 1e-8


def test_dense_scan_oracle_agreement():
    # independent root location: 1e-6 scan for the first sign change plus one
    # linear interpolation, compared with the bisection result
    spec = make_class(ClassId.G2, -1.0)
    for t in (default_target(Family.NEPHROID), default_target(Family.CARDIOID),
              default_target(Family.SINE)):
        cond = assemble_condition(spec, t)
        res = smallest_root_in_01(cond)
        step = 1e-6
        k = int(res.rho / step) - 3
        r_prev, h_prev = k * step, cond(k * step)
        assert h_prev < 0.0
        root = None
        for j in range(k + 1, k + 8):
            r, h = j * step, cond(j * step)
            if h >= 0.0:
                root = r_prev + step * h_prev / (h_prev - h)
                break
            r_prev, h_prev = r, h
        assert root is not None
        assert abs(root - res.rho) <= 1e-9, t.label()


def test_residual_small_across_grid():
    for class_id in ClassId:
        for mag_frac in (0.0, 0.5, 1.0):
            max_mag = CLASSES[class_id].max_mag
            spec = class_from_coeff_mag(class_id, mag_frac * max_mag)
            for t in supported_targets(class_id):
                res = compute_radius(spec, t)
                assert res.residual <= 1e-10, (t.label(), mag_frac)
                assert res.bracket[0] <= res.rho <= res.bracket[1]


def _load_reference():
    """benchmarks/reference.py: each radius re-derived from the disk and
    threshold formulas and solved at 30 digits, importing nothing from
    radstar."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference_30_digits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_standard_grid_brackets_hold_the_reference_root():
    # every cell of the 11-point standard grid, in each reading its class
    # states: the final bracket holds the 30-digit root, widened by one ulp
    # at each end for the rounding of that root to a float
    ref = _load_reference()
    cells = 0
    for class_id in ClassId:
        max_mag = CLASSES[class_id].max_mag
        for k in range(11):
            spec = class_from_coeff_mag(class_id, max_mag * k / 10)
            for t in supported_targets(class_id):
                readings = regions.FAMILIES[t.family].readings.get(class_id, ())
                for variant in (Variant.CENTER_CORRECTED, *readings):
                    lo, hi = compute_radius(spec, t, variant).bracket
                    param = t.alpha if t.alpha is not None else t.gamma
                    root = ref.radius((class_id.value, spec.coeff_mag,
                                       t.family.value, param, variant.value))
                    assert (math.nextafter(lo, -math.inf) <= root
                            <= math.nextafter(hi, math.inf)), \
                        (class_id, k, t.label(), variant, lo, hi, root)
                    cells += 1
    assert cells == 264


def test_radius_decreases_with_coeff_mag():
    for class_id in ClassId:
        max_mag = CLASSES[class_id].max_mag
        mags = np.linspace(0.0, max_mag, 9)
        for t in supported_targets(class_id):
            rhos = [compute_radius(class_from_coeff_mag(class_id, float(m)),
                                   t).rho for m in mags]
            assert all(x >= y - 1e-12 for x, y in zip(rhos, rhos[1:])), t.label()


def test_radius_depends_on_b_only_through_magnitude():
    for b in (-0.9, -0.7, -0.55):
        s1 = make_class(ClassId.G1, b)
        s2 = make_class(ClassId.G1, -1.0 - b)
        for t in supported_targets(ClassId.G1):
            r1 = compute_radius(s1, t).rho
            r2 = compute_radius(s2, t).rho
            assert r1 == pytest.approx(r2, abs=1e-12), t.label()


def test_radius_decreases_with_alpha():
    spec = make_class(ClassId.G1, -1.0)
    rhos = [compute_radius(spec, TargetSpec(Family.STARLIKE_ORDER, alpha=a)).rho
            for a in (0.0, 0.25, 0.5, 0.75)]
    assert all(x > y for x, y in zip(rhos, rhos[1:]))


def test_radius_increases_with_gamma():
    spec = make_class(ClassId.G1, -1.0)
    rhos = [compute_radius(spec, TargetSpec(Family.STRONGLY_STARLIKE, gamma=g)).rho
            for g in (0.25, 0.5, 0.75, 1.0)]
    assert all(x < y for x, y in zip(rhos, rhos[1:]))


def test_gamma_one_matches_order_zero():
    for class_id, b in ((ClassId.G1, -1.0), (ClassId.G1, -0.6),
                        (ClassId.G2, -1.0), (ClassId.G2, 0.0)):
        spec = make_class(class_id, b)
        r_sector = compute_radius(spec,
                                  TargetSpec(Family.STRONGLY_STARLIKE,
                                             gamma=1.0)).rho
        r_half = compute_radius(spec,
                                TargetSpec(Family.STARLIKE_ORDER, alpha=0.0)).rho
        assert r_sector == pytest.approx(r_half, abs=1e-10)


# ---------------------------------------------------------------------------
# Tables

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(ClassId)), st.floats(0.0, 1.0),
       st.floats(0.0, 0.9), st.floats(0.05, 1.0))
def test_radius_puts_disk_on_threshold(class_id, frac, alpha, gamma):
    # at the computed radius the disk bound touches the containment
    # threshold, for every stated target and continuous parameters
    max_mag = CLASSES[class_id].max_mag
    spec = class_from_coeff_mag(class_id, frac * max_mag)
    for t in supported_targets(class_id, alpha=alpha, gamma=gamma):
        d = bounds.disk(spec, compute_radius(spec, t).rho)
        thr = max(regions.containment_threshold(t, d.center), 0.0)
        assert abs(d.radius - thr) <= 1e-9 * max(1.0, d.radius), t.label()


def test_supported_target_counts():
    assert len(supported_targets(ClassId.G1)) == 12
    assert len(supported_targets(ClassId.G2)) == 9
    # nonzero alpha drops the starlike entry for the second class
    assert len(supported_targets(ClassId.G2, alpha=0.25)) == 8


def test_radius_table_ordering_and_status():
    specs = [make_class(ClassId.G1, b) for b in (-0.5, -1.0, -0.75)]
    targets = supported_targets(ClassId.G1)
    cells = radius_table(ClassId.G1, specs, targets)
    assert len(cells) == 3 * 12
    bs = [c.spec.b for c in cells[::12]]
    assert bs == sorted(bs)
    assert all(c.status == "OK" for c in cells)


def test_radius_table_records_errors_per_cell():
    spec = make_class(ClassId.G2, -1.0)
    targets = [default_target(Family.CARDIOID),
               default_target(Family.EXPONENTIAL),
               default_target(Family.STRONGLY_STARLIKE, gamma=1e-300)]
    cells = radius_table(ClassId.G2, [spec], targets)
    assert [c.status for c in cells] == ["OK", "ERROR:unsupported",
                                         "ERROR:parameter"]
    assert cells[0].message is None
    # each failed cell keeps the text compute_radius raises for it
    for cell in cells[1:]:
        with pytest.raises(ParameterError) as raised:
            compute_radius(spec, cell.target)
        assert cell.message == str(raised.value)
    assert "not stated for g2" in cells[1].message
    assert "below what tol=" in cells[2].message
    cells = radius_table(ClassId.G2, [spec], targets, extended=True)
    assert cells[1].status == "EXTRAPOLATION"


def test_radius_table_class_mismatch():
    with pytest.raises(ParameterError):
        radius_table(ClassId.G1, [make_class(ClassId.G2, -1.0)],
                     supported_targets(ClassId.G1))


def test_radius_table_runs_no_enum_code():
    # after a warm-up, a table row per class enters no function of enum.py:
    # the enums hash by identity, in C, so the FamilyDef lookups and the
    # class tests run no Enum.__hash__
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            entered.add(frame.f_code.co_name)

    rows = [(class_id, make_class(class_id, -0.7), supported_targets(class_id))
            for class_id in ClassId]
    assert [len(targets) for _, _, targets in rows] == [12, 9]
    for class_id, spec, targets in rows:
        radius_table(class_id, [spec], targets)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for class_id, spec, targets in rows:
            cells = radius_table(class_id, [spec], targets)
    finally:
        sys.setprofile(previous)
    assert all(c.status == "OK" for c in cells)
    assert not entered, entered
