import json
import math

import numpy as np
import pytest

from radstar import bounds, cli, regions, solver, verify
from radstar.core import (CLASSES, ClassId, Family, ParameterError,
                          TargetSpec, Variant, class_from_coeff_mag,
                          default_target, make_class)
from radstar.verify import (SharpnessReport, adjudicate_variant,
                            containment_scan, sharpness_check, verify_cell)


def test_scan_validates_inputs():
    spec = make_class(ClassId.G1, -1.0)
    t = default_target(Family.CARDIOID)
    with pytest.raises(ParameterError):
        containment_scan(spec, t, 0.0)
    with pytest.raises(ParameterError):
        containment_scan(spec, t, 1.0)
    with pytest.raises(ParameterError):
        containment_scan(spec, t, 0.2, n_samples=32)
    with pytest.raises(ParameterError):
        containment_scan(spec, t, 0.2, n_samples=1_000_001)


def test_scan_passes_at_computed_radius():
    spec = make_class(ClassId.G1, -1.0)
    for t in (default_target(Family.CARDIOID), default_target(Family.LUNE),
              TargetSpec(Family.STARLIKE_ORDER, alpha=0.0)):
        rho = solver.compute_radius(spec, t).rho
        rep = containment_scan(spec, t, rho)
        assert rep.inside_pass, t.label()
        assert rep.outside_pass, t.label()


def test_scan_fails_for_inflated_radius():
    spec = make_class(ClassId.G1, -1.0)
    t = TargetSpec(Family.STARLIKE_ORDER, alpha=0.0)
    rho = solver.compute_radius(spec, t).rho
    rep = containment_scan(spec, t, min(1.2 * rho, 0.99))
    assert not rep.inside_pass
    assert rep.inside_witness is not None
    assert not regions.membership_mask(t, rep.inside_witness)


def test_just_outside_scan_gated_for_every_family(monkeypatch, capsys):
    # a scan that never escapes fails `radstar verify` whatever the family
    monkeypatch.setattr(regions, "membership_mask",
                        lambda t, ws: np.ones(len(ws), dtype=bool))
    for t in solver.supported_targets(ClassId.G1):
        assert cli.main(["verify", "--class", "g1", "--b", "-1",
                         "--targets", t.label()]) == 1, t.label()
        (rep,) = json.loads(capsys.readouterr().out)
        assert rep["inside_scan"]["pass"] is True
        assert rep["just_outside_scan"]["pass"] is False
        assert rep["just_outside_scan"]["gated"] is True


def _two_pass_scan(spec, t, rho, n):
    # the scan as two circles, each built bit for bit as center + radius * u
    # and masked on its own
    r1, r2 = 0.99 * rho, min(1.02 * rho, 0.5 * (1.0 + rho))
    passes = []
    for r in (r1, r2):
        d = bounds.disk(spec, r)
        pts = regions.circle_points([(d.center, d.radius)], n, 0, n)
        u = regions._unit_circle(n, 0, n)
        assert pts.tobytes() == (d.center + d.radius * u).tobytes()
        mask = regions.membership_mask(t, pts)
        passes.append((bool(mask.all()), complex(pts[mask.argmin()])))
    (all_in1, w1), (all_in2, w2) = passes
    return verify.ScanReport(
        inside_witness=None if all_in1 else w1,
        outside_witness=None if all_in2 else w2,
        r_inside=r1, r_outside=r2)


@pytest.mark.parametrize("n", [64, 512, 513])
def test_one_pass_scan_matches_two_passes(n, monkeypatch):
    # every g1 target at 21 values of b, and with masks that fail every
    # point, pass every point and fail a scattered third, so both witness
    # slices are read, at an odd n too, in one block and in blocks of 16
    # and 100 samples. A third by imaginary part fails sample 0 of both
    # circles; a third of rings by modulus can fail the inside circle in a
    # block where the outside one stays in, and again in a later block
    cases = [(make_class(ClassId.G1, b), t)
             for b in np.linspace(-1.0, 0.0, 21).tolist()
             for t in solver.supported_targets(ClassId.G1)]
    cases = [(spec, t, solver.compute_radius(spec, t).rho) for spec, t in cases]
    masks = [regions.membership_mask,
             lambda t, ws: np.zeros(len(ws), dtype=bool),
             lambda t, ws: np.ones(len(ws), dtype=bool),
             lambda t, ws: np.floor(np.asarray(ws).imag * 1e3) % 3 != 0,
             lambda t, ws: np.floor(np.abs(ws) * 3.0) % 3 != 0]
    for mask in masks:
        monkeypatch.setattr(regions, "membership_mask", mask)
        for spec, t, rho in cases:
            two = _two_pass_scan(spec, t, rho, n)
            for block in (regions.SCAN_BLOCK, 16, 100):
                with monkeypatch.context() as m:
                    m.setattr(regions, "SCAN_BLOCK", block)
                    one = containment_scan(spec, t, rho, n)
                assert one == two, (spec.b, t.label(), block)
                for w in (one.inside_witness, one.outside_witness):
                    assert w is None or isinstance(w, complex)


def _g1_library_cells():
    # every g1 cell of the 11-point standard grid, with its radius
    max_mag = CLASSES[ClassId.G1].max_mag
    for k in range(11):
        spec = class_from_coeff_mag(ClassId.G1, max_mag * k / 10)
        for t in solver.supported_targets(ClassId.G1):
            yield spec, t, solver.compute_radius(spec, t).rho


def _first_failures(spec, t, r, n):
    # the index of the first sample outside the region on each circle of
    # the scan at r, from one mask call over the whole circles; None where
    # every sample is inside
    d1 = bounds.disk(spec, 0.99 * r)
    d2 = bounds.disk(spec, min(1.02 * r, 0.5 * (1.0 + r)))
    pts = regions.circle_points(
        ((d1.center, d1.radius), (d2.center, d2.radius)), n, 0, n)
    mask = regions.membership_mask(t, pts)
    return tuple(None if half.all() else int(half.argmin())
                 for half in (mask[:n], mask[n:]))


@pytest.mark.parametrize("n", [64, 512, 513])
def test_block_scan_matches_one_block(n, monkeypatch):
    # the scan in blocks of 16, 64 and 100 samples finds the witnesses of
    # one block on every g1 cell, below, at and beyond its radius; among
    # them scans whose inside circle first fails in a later block than the
    # one where the outside circle escapes, so the loop keeps that escape
    # and goes on to the inside witness
    cases = [(spec, t, r) for spec, t, rho in _g1_library_cells()
             for r in (0.7 * rho, rho, min(1.2 * rho, 0.99))]
    whole = [containment_scan(spec, t, r, n) for spec, t, r in cases]
    assert regions.SCAN_BLOCK >= n
    firsts = [_first_failures(spec, t, r, n) for spec, t, r in cases]
    later_inside = 0
    for block in (16, 64, 100):
        monkeypatch.setattr(regions, "SCAN_BLOCK", block)
        for (spec, t, r), one, (i_in, i_out) in zip(cases, whole, firsts):
            assert containment_scan(spec, t, r, n) == one, (spec.b, t.label(), r)
            later_inside += (i_in is not None and i_out is not None
                             and i_in // block > i_out // block)
    assert later_inside > 0


def test_blocks_build_the_whole_circle():
    # at n = 2**16 + 1 the default blocks are [0, 2**16) and [2**16, n):
    # their points are those of the whole circle bit for bit, and their
    # masks those of one mask call over it
    n = regions.SCAN_BLOCK + 1
    u = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    parts = [regions._unit_circle(n, k0, min(k0 + regions.SCAN_BLOCK, n))
             for k0 in range(0, n, regions.SCAN_BLOCK)]
    assert [len(p) for p in parts] == [regions.SCAN_BLOCK, 1]
    assert np.concatenate(parts).tobytes() == u.tobytes()
    spec = make_class(ClassId.G1, -1.0)
    for t in solver.supported_targets(ClassId.G1):
        d = bounds.disk(spec, solver.compute_radius(spec, t).rho)
        circle = [(d.center, d.radius)]
        pts = regions.circle_points(circle, n, 0, n)
        assert pts.tobytes() == (d.center + d.radius * u).tobytes()
        blocks = [regions.circle_points(circle, n, k0, k0 + len(p))
                  for k0, p in zip((0, regions.SCAN_BLOCK), parts)]
        assert np.concatenate(blocks).tobytes() == pts.tobytes()
        mask = regions.membership_mask(t, pts)
        assert np.array_equal(
            np.concatenate([regions.membership_mask(t, b) for b in blocks]),
            mask), t.label()


def test_rl_threshold_exact_for_generator_image():
    # the composite threshold equals the distance from the center to the image
    # of the unit circle under the generator attached to this family
    t = default_target(Family.RATIONAL_RL)
    boundary = regions.region_boundary(t, 200001)[1]
    for c in (1.0, 1.1, 1.25):
        thr = regions.containment_threshold(t, c)
        dist = float(np.min(np.abs(boundary - c)))
        assert thr == pytest.approx(dist, abs=1e-5), c


def test_rl_threshold_exact_for_predicate():
    # the distance from the center to the boundary of the membership
    # predicate, found by bisection along rays, equals the threshold
    t = default_target(Family.RATIONAL_RL)
    phis = np.linspace(0.0, 2.0 * math.pi, 20001)
    for c in (1.05, 1.15, 1.25):
        thr = regions.containment_threshold(t, c)
        dmin = np.inf
        for phi in phis[::100]:
            ray = np.exp(1j * phi)
            lo, hi = 0.0, 3.0
            if regions.membership_mask(t, c + hi * ray):
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if regions.membership_mask(t, c + mid * ray):
                    lo = mid
                else:
                    hi = mid
            dmin = min(dmin, lo)
        assert thr - 1e-12 <= dmin <= thr + 1e-4, c


# The witness and the sign of its contact point for each (family, class)
# that the sharpness check covers, written out by hand; every other pair,
# extrapolated g2 cells included, is not applicable
_SHARP = {
    (Family.STARLIKE_ORDER, ClassId.G1): ("f1", +1),
    (Family.LEMNISCATE, ClassId.G1): ("f2", -1),
    (Family.PARABOLIC, ClassId.G1): ("f1", +1),
    (Family.EXPONENTIAL, ClassId.G1): ("f1", +1),
    (Family.CARDIOID, ClassId.G1): ("f1", +1),
    (Family.SINE, ClassId.G1): ("f2", -1),
    (Family.SINE, ClassId.G2): ("f3", -1),
    (Family.RATIONAL_R, ClassId.G1): ("f1", +1),
    (Family.NEPHROID, ClassId.G1): ("f2", -1),
    (Family.NEPHROID, ClassId.G2): ("f3", -1),
    (Family.SIGMOID_SG, ClassId.G1): ("f2", -1),
    (Family.SIGMOID_SG, ClassId.G2): ("f3", -1),
}


def test_sharpness_applicable_map():
    # the witness derived from the class and the sign of the threshold's
    # slope q is the table above, for all 12 families and both classes; the
    # lune (q = 1) and the sector, even at gamma = 1 where q = 1.0, have no
    # contact functional and stay not applicable
    targets = ([TargetSpec(Family.STARLIKE_ORDER, alpha=a) for a in (0.0, 0.3)]
               + [TargetSpec(Family.STRONGLY_STARLIKE, gamma=g)
                  for g in (0.5, 1.0)]
               + [default_target(f) for f in Family
                  if f not in (Family.STARLIKE_ORDER, Family.STRONGLY_STARLIKE)])
    assert regions.FAMILIES[Family.LUNE].threshold(
        default_target(Family.LUNE))[1] == 1.0
    assert regions.FAMILIES[Family.STRONGLY_STARLIKE].threshold(
        TargetSpec(Family.STRONGLY_STARLIKE, gamma=1.0))[1] == 1.0
    for class_id in ClassId:
        spec = make_class(class_id, -1.0)
        for t in targets:
            rep = sharpness_check(spec, t, 0.3)
            entry = _SHARP.get((t.family, class_id))
            if entry is None:
                assert rep == SharpnessReport(), (class_id, t.label())
                continue
            assert rep.applicable, (class_id, t.label())
            assert (rep.extremal, math.copysign(1.0, rep.point)) == entry, \
                (class_id, t.label())
            assert abs(rep.point) == 0.3


@pytest.mark.parametrize("rho", [1.0, math.nan, 0.0, -0.3, 2.0, math.inf])
def test_sharpness_validates_rho(rho):
    # refused before anything else, as the scan does: also where the check
    # does not apply, and where evaluating the witness at rho = 1 would hit
    # its pole
    for class_id, family in ((ClassId.G1, Family.CARDIOID),
                             (ClassId.G1, Family.LUNE),
                             (ClassId.G2, Family.SINE)):
        spec = make_class(class_id, -1.0)
        with pytest.raises(ParameterError, match=r"outside \(0, 1\)"):
            sharpness_check(spec, default_target(family), rho)


def test_sharpness_contact_at_extreme_b():
    spec = make_class(ClassId.G1, -1.0)
    for t in (TargetSpec(Family.STARLIKE_ORDER, alpha=0.0),
              default_target(Family.CARDIOID),
              default_target(Family.LEMNISCATE),
              default_target(Family.SIGMOID_SG)):
        rho = solver.compute_radius(spec, t).rho
        rep = sharpness_check(spec, t, rho)
        assert rep.applicable and rep.ok, t.label()
        assert abs(rep.value - rep.target_value) <= rep.tol
    spec = make_class(ClassId.G2, -1.0)
    for fam in (Family.SINE, Family.NEPHROID, Family.SIGMOID_SG):
        t = default_target(fam)
        rho = solver.compute_radius(spec, t).rho
        rep = sharpness_check(spec, t, rho)
        assert rep.applicable and rep.ok, fam


def test_sharpness_loose_away_from_extreme_b():
    # the radius depends on b only through |1 + 2b|, so b and -1 - b share
    # it; the cardioid witness touches the cusp 1/3 at z = rho for every
    # b <= -1/2, and for b > -1/2 its image stays off the cusp
    t = default_target(Family.CARDIOID)
    spec = make_class(ClassId.G1, -0.6)
    rep = sharpness_check(spec, t, solver.compute_radius(spec, t).rho)
    assert rep.applicable and rep.ok
    spec = make_class(ClassId.G1, -0.3)
    rep = sharpness_check(spec, t, solver.compute_radius(spec, t).rho)
    assert rep.applicable and not rep.ok
    assert abs(rep.value - 1.0 / 3.0) > 0.05


def test_g1_nephroid_contact_tight_on_negative_half():
    # the g1 nephroid witness touches the boundary to within 1e-11 wherever
    # the coefficient 1 + 2b is not positive, far inside the contact
    # tolerance of the sharpness check
    t = default_target(Family.NEPHROID)
    assert verify._SHARP_TOL == 1e-6
    for b in np.linspace(-1.0, -0.5, 101).tolist():
        spec = make_class(ClassId.G1, b)
        rep = sharpness_check(spec, t, solver.compute_radius(spec, t).rho)
        assert rep.ok and abs(rep.value - rep.target_value) < 1e-11, b


@pytest.mark.parametrize("class_id", list(ClassId))
def test_sharp_exactly_where_the_coefficient_is_not_positive(class_id):
    # the disk is attained where 1 + slope * b <= 0, so there each witness
    # touches the boundary at the radius; where it is positive the radius is
    # that of the mirrored b and no witness reaches the boundary. This
    # covers the right-end witness (f2, f3) of both classes, which is one
    # formula in the power of the class
    cd = CLASSES[class_id]
    checked = set()
    for b in np.linspace(cd.b_lo, cd.b_hi, 41).tolist():
        coeff = 1.0 + cd.slope * b
        if abs(coeff) < 0.05:
            continue
        spec = make_class(class_id, b)
        for t in solver.supported_targets(class_id):
            rep = sharpness_check(spec, t, solver.compute_radius(spec, t).rho)
            if rep.applicable:
                assert rep.ok is (coeff <= 0.0), (b, t.label())
                checked.add((rep.extremal, coeff <= 0.0))
    witnesses = ("f1", "f2") if class_id is ClassId.G1 else ("f3",)
    assert checked == {(eid, ok) for eid in witnesses for ok in (True, False)}


def test_verify_cell_report_shape():
    spec = make_class(ClassId.G1, -1.0)
    rep = verify_cell(spec, default_target(Family.CARDIOID))
    assert rep.spec is spec
    d = cli._verify_record(rep)
    assert d["class"] == "g1" and d["target"] == "cardioid"
    assert d["inside_scan"]["pass"] is True
    assert d["sharpness"]["ok"] is True
    json.dumps(d)  # serializable


def test_verify_cell_deterministic():
    spec = make_class(ClassId.G2, -1.0)
    t = default_target(Family.NEPHROID)
    d1 = cli._verify_record(verify_cell(spec, t))
    d2 = cli._verify_record(verify_cell(spec, t))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_adjudication_restricted_to_flagged_cells():
    spec = make_class(ClassId.G1, -1.0)
    with pytest.raises(ParameterError):
        adjudicate_variant(spec, default_target(Family.CARDIOID))
    with pytest.raises(ParameterError):
        adjudicate_variant(make_class(ClassId.G2, -1.0),
                           default_target(Family.NEPHROID))


def test_adjudication_nephroid_supports_corrected_only():
    spec = make_class(ClassId.G1, -1.0)
    reps = adjudicate_variant(spec, default_target(Family.NEPHROID))
    assert len(reps) == 3
    assert [o.variant for o in reps if o.scan.passed] == \
        [Variant.CENTER_CORRECTED]
    by_variant = {o.variant: o.scan for o in reps}
    assert by_variant[Variant.CENTER_CORRECTED].passed
    # both printed readings overshoot: the disk already escapes below their root
    assert not by_variant[Variant.PRINTED].inside_pass
    assert not by_variant[Variant.PRINTED_PROOF].inside_pass


def test_adjudication_rl_variants():
    spec = make_class(ClassId.G1, -1.0)
    reps = adjudicate_variant(spec, default_target(Family.RATIONAL_RL))
    assert len(reps) == 2
    by_variant = {o.variant: o for o in reps}
    assert by_variant[Variant.CENTER_CORRECTED].scan.inside_pass
    assert by_variant[Variant.PRINTED].rho_used != \
        by_variant[Variant.CENTER_CORRECTED].rho_used


@pytest.mark.parametrize("family", [Family.NEPHROID, Family.RATIONAL_RL],
                         ids=lambda f: f.value)
@pytest.mark.parametrize("b", [-1.0, -0.75, -0.5, -0.25, 0.0])
def test_adjudication_corrected_outcome_is_the_verify_report(family, b):
    # adjudicate's first report is verify's report of the same cell, and the
    # later reports follow the family's alternate readings in order
    spec, t = make_class(ClassId.G1, b), default_target(family)
    reps = adjudicate_variant(spec, t)
    assert reps[0] == verify_cell(spec, t)
    assert [o.variant for o in reps[1:]] == \
        list(regions.FAMILIES[family].readings[ClassId.G1])
