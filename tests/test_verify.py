import json
import math

import numpy as np
import pytest

from radstar import cli, regions, solver, verify
from radstar.core import (ClassId, Family, ParameterError, TargetSpec, Variant,
                          class_from_coeff_mag, default_target, make_class)
from radstar.extremal import ExtremalId
from radstar.regions import SQRT2
from radstar.verify import (adjudicate_variant, class_membership_check,
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
    assert not regions.region_contains(t, rep.inside_witness)


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


def test_rl_threshold_exact_for_generator_image():
    # the composite threshold equals the distance from the center to the image
    # of the unit circle under the generator attached to this family
    boundary = regions.FAMILIES[Family.RATIONAL_RL].generator(
        regions._anchored_circle(200001))
    t = default_target(Family.RATIONAL_RL)
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
            if regions.region_contains(t, c + hi * ray):
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if regions.region_contains(t, c + mid * ray):
                    lo = mid
                else:
                    hi = mid
            dmin = min(dmin, lo)
        assert thr - 1e-12 <= dmin <= thr + 1e-4, c


def test_sharpness_applicable_map():
    s1 = make_class(ClassId.G1, -1.0)
    assert sharpness_check(s1, default_target(Family.LUNE), 0.3).applicable is False
    assert sharpness_check(s1, default_target(Family.RATIONAL_RL), 0.3).applicable is False
    assert sharpness_check(s1, TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.5),
                           0.3).applicable is False
    assert sharpness_check(s1, default_target(Family.CARDIOID), 0.3).applicable
    s2 = make_class(ClassId.G2, -1.0)
    assert sharpness_check(s2, default_target(Family.CARDIOID), 0.3).applicable is False
    assert sharpness_check(s2, default_target(Family.SINE), 0.3).applicable


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


def test_verify_cell_report_shape():
    spec = make_class(ClassId.G1, -1.0)
    rep = verify_cell(spec, default_target(Family.CARDIOID))
    d = rep.to_dict()
    assert d["class"] == "g1" and d["target"] == "cardioid"
    assert d["inside_scan"]["pass"] is True
    assert d["sharpness"]["ok"] is True
    json.dumps(d)  # serializable


def test_verify_cell_deterministic():
    spec = make_class(ClassId.G2, -1.0)
    t = default_target(Family.NEPHROID)
    d1 = verify_cell(spec, t).to_dict()
    d2 = verify_cell(spec, t).to_dict()
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
    rep = adjudicate_variant(spec, default_target(Family.NEPHROID))
    assert len(rep.outcomes) == 3
    assert rep.consistent_variants == [Variant.CENTER_CORRECTED]
    by_variant = {o.variant: o for o in rep.outcomes}
    assert by_variant[Variant.CENTER_CORRECTED].inside_pass
    # both printed readings overshoot: the disk already escapes below their root
    assert not by_variant[Variant.PRINTED].inside_pass
    assert not by_variant[Variant.PRINTED_PROOF].inside_pass


def test_adjudication_rl_variants():
    spec = make_class(ClassId.G1, -1.0)
    rep = adjudicate_variant(spec, default_target(Family.RATIONAL_RL))
    assert len(rep.outcomes) == 2
    by_variant = {o.variant: o for o in rep.outcomes}
    assert by_variant[Variant.CENTER_CORRECTED].inside_pass
    assert by_variant[Variant.PRINTED].rho != \
        by_variant[Variant.CENTER_CORRECTED].rho


def test_class_membership_sampling():
    assert class_membership_check(make_class(ClassId.G1, -1.0), ExtremalId.F1,
                                  n_samples=2000)
    assert class_membership_check(make_class(ClassId.G1, -0.7), ExtremalId.F2,
                                  n_samples=2000)
    assert class_membership_check(make_class(ClassId.G2, -1.0), ExtremalId.F3,
                                  n_samples=2000)
