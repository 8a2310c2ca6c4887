import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstar import bounds, regions, solver
from radstar.core import (ClassId, ConditionKind, Family, NoRootError,
                          ParameterError, RadiusCondition, TargetSpec,
                          UnsupportedCombinationError, Variant,
                          class_from_coeff_mag, default_target, make_class)
from radstar.solver import (assemble_condition, compute_radius, radius_table,
                            smallest_root_in_01, supported_targets)
from scan_oracle import scan_smallest_root


def _poly_condition(coeffs):
    return RadiusCondition(ConditionKind.POLYNOMIAL, Variant.CENTER_CORRECTED,
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
    with pytest.raises(ParameterError):
        assemble_condition(make_class(ClassId.G1, -1.0),
                           default_target(Family.CARDIOID),
                           Variant.PRINTED_PROOF)


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
    return RadiusCondition(ConditionKind.COMPOSITE, Variant.CENTER_CORRECTED,
                           evaluator=h)


def test_nan_condition_raises():
    # -1 below 0.3, NaN on [0.3, 0.6), +1 above: NaN must not pass the scan
    # as negative and report the edge of the NaN stretch as a root
    # (evaluators take a float or an ndarray of r, hence np.where)
    def h(r):
        return np.where(r < 0.3, -1.0, np.where(r < 0.6, math.nan, 1.0))
    with pytest.raises(NoRootError, match="NaN at r=0.3"):
        smallest_root_in_01(_composite_condition(h))
    # NaN inside the bracket found by the scan stops the bisection
    with pytest.raises(NoRootError, match=r"NaN at r=0\.010[45]"):
        smallest_root_in_01(_composite_condition(
            lambda r: np.where(r < 0.0102, -1.0,
                               np.where(r < 0.0108, math.nan, 1.0))))
    # NaN at the origin is neither negative nor a parameter error
    with pytest.raises(NoRootError, match="NaN at r=0.0"):
        smallest_root_in_01(_composite_condition(lambda r: r * math.nan))


def test_grid_and_scalar_evaluation_agree():
    # the solver reads signs from one evaluation on the grid and bisects with
    # scalar calls, so the two must give the same floats, bit for bit
    grid = solver._GRID
    assert grid.tolist() == [k * 1e-3 for k in range(1, 1000)]
    for class_id in ClassId:
        max_mag = 1.0 if class_id is ClassId.G1 else 2.0
        for frac in (0.0, 0.37, 1.0):
            spec = class_from_coeff_mag(class_id, frac * max_mag)
            for f in Family:
                for policy in Variant:
                    try:
                        cond = assemble_condition(spec, default_target(f), policy,
                                                  extended=True)
                    except ParameterError:
                        continue
                    pointwise = [cond(float(r)) for r in grid]
                    assert np.array_equal(cond(grid), pointwise), \
                        (class_id, frac, f, policy)


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
def test_root_matches_point_by_point_scan(roots, scale, nan_stretch):
    # quartics (and lower) with roots anywhere, on grid points too, negative
    # at 0 unless 0 is a root, and optionally NaN on [a, a + w): the
    # whole-grid scan must return what the point-by-point scan returns, or
    # raise the same error
    coeffs = scale * np.poly(roots)[::-1]
    cond = _poly_condition(-coeffs if coeffs[0] > 0.0 else coeffs)
    if nan_stretch is not None:
        a, w = nan_stretch
        poly = cond
        cond = _composite_condition(
            lambda r: np.where((a <= r) & (r < a + w), math.nan, poly(r)))
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
            max_mag = 1.0 if class_id is ClassId.G1 else 2.0
            spec = class_from_coeff_mag(class_id, mag_frac * max_mag)
            for t in supported_targets(class_id):
                res = compute_radius(spec, t)
                assert res.residual <= 1e-10, (t.label(), mag_frac)
                assert res.bracket[0] <= res.rho <= res.bracket[1]


def test_radius_decreases_with_coeff_mag():
    for class_id in ClassId:
        max_mag = 1.0 if class_id is ClassId.G1 else 2.0
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
    max_mag = 1.0 if class_id is ClassId.G1 else 2.0
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
    specs = [make_class(ClassId.G2, -1.0)]
    targets = [default_target(Family.CARDIOID),
               default_target(Family.EXPONENTIAL)]
    cells = radius_table(ClassId.G2, specs, targets)
    assert cells[0].status == "OK"
    assert cells[1].status == "ERROR:unsupported"
    cells = radius_table(ClassId.G2, specs, targets, extended=True)
    assert cells[1].status == "EXTRAPOLATION"


def test_radius_table_class_mismatch():
    with pytest.raises(ParameterError):
        radius_table(ClassId.G1, [make_class(ClassId.G2, -1.0)],
                     supported_targets(ClassId.G1))
