import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radstar
from radstar.core import (ClassId, Family, ParameterError, TargetSpec,
                          class_from_coeff_mag, default_target, make_class)


def test_make_class_examples():
    assert make_class(ClassId.G1, -1.0).coeff_mag == 1.0
    assert make_class(ClassId.G1, -0.5).coeff_mag == 0.0
    assert make_class(ClassId.G2, 1.0 / 3.0).coeff_mag == pytest.approx(2.0)


def test_make_class_rejects_outside_interval():
    for b in (-1.0 - 1e-12, 1e-12, 0.5, -2.0):
        with pytest.raises(ParameterError):
            make_class(ClassId.G1, b)
    for b in (-1.0 - 1e-12, 1.0 / 3.0 + 1e-9, 1.0):
        with pytest.raises(ParameterError):
            make_class(ClassId.G2, b)


def test_boundary_values_accepted():
    make_class(ClassId.G1, -1.0)
    make_class(ClassId.G1, 0.0)
    make_class(ClassId.G2, -1.0)
    make_class(ClassId.G2, 1.0 / 3.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.0, max_value=0.0, allow_nan=False))
def test_coeff_mag_symmetric_about_midpoint(b):
    # |1+2b| is symmetric about b = -1/2
    s1 = make_class(ClassId.G1, b)
    s2 = make_class(ClassId.G1, -1.0 - b)
    assert s1.coeff_mag == pytest.approx(s2.coeff_mag, abs=1e-15)


def test_from_coeff_mag_representative():
    s = class_from_coeff_mag(ClassId.G1, 1.0)
    assert s.b == -1.0 and s.coeff_mag == 1.0
    s = class_from_coeff_mag(ClassId.G1, 0.0)
    assert s.b == -0.5
    s = class_from_coeff_mag(ClassId.G2, 2.0)
    assert s.b == -1.0
    s = class_from_coeff_mag(ClassId.G2, 0.0)
    assert s.b == pytest.approx(-1.0 / 3.0)
    with pytest.raises(ParameterError):
        class_from_coeff_mag(ClassId.G1, 1.5)


def test_target_spec_validation():
    TargetSpec(Family.STARLIKE_ORDER, alpha=0.0)
    TargetSpec(Family.STRONGLY_STARLIKE, gamma=1.0)
    with pytest.raises(ParameterError):
        TargetSpec(Family.STARLIKE_ORDER)  # missing alpha
    with pytest.raises(ParameterError):
        TargetSpec(Family.STARLIKE_ORDER, alpha=1.0)
    with pytest.raises(ParameterError):
        TargetSpec(Family.STRONGLY_STARLIKE)  # missing gamma
    with pytest.raises(ParameterError):
        TargetSpec(Family.STRONGLY_STARLIKE, gamma=0.0)
    with pytest.raises(ParameterError):
        TargetSpec(Family.LEMNISCATE, alpha=0.5)
    with pytest.raises(ParameterError):
        TargetSpec(Family.SINE, gamma=0.5)


def test_default_target():
    t = default_target(Family.STARLIKE_ORDER)
    assert t.alpha == 0.0 and t.gamma is None
    t = default_target(Family.STRONGLY_STARLIKE)
    assert t.gamma == 0.5
    assert default_target(Family.LUNE).alpha is None


def test_package_public_names():
    # what radstar exports, apart from its modules; the witness values, the
    # Schwarz functions and scalar membership are test oracles, not API
    public = {name for name, value in vars(radstar).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {
        "ClassId", "ClassSpec", "DiskSpec", "ExtremalId", "Family",
        "RadiusCondition", "RadiusResult", "TargetSpec", "Variant",
        "adjudicate_variant", "assemble_condition", "class_from_coeff_mag",
        "compute_radius", "containment_scan", "containment_threshold",
        "default_target", "disk", "log_deriv", "make_class", "radius_table",
        "region_boundary", "sharpness_check", "smallest_root_in_01",
        "verify_cell"}
