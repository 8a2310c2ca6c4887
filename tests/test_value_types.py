"""The value types are named tuples: read-only fields, equality and hashing
by value, and the Name(field=value, ...) repr."""

import sys
from types import MappingProxyType

import pytest

from radstar import solver
from radstar.core import (ClassDef, ClassId, ClassSpec, ConditionKind, DiskSpec,
                          Family, ParameterError, RadiusCondition, RadiusResult,
                          TargetSpec, Variant, default_target, make_class)
from radstar.regions import FamilyDef
from radstar.solver import TableCell, assemble_condition, smallest_root_in_01
from radstar.verify import (ScanReport, SharpnessReport, VerificationReport,
                            verify_cell)


def _mask(t, w):
    return w.real > 0.0


def _threshold(t):
    return (0.0, 1.0)


def _evaluator(r):
    return r - 0.5


_SPEC = ClassSpec(ClassId.G1, -1.0, 1.0)
_TARGET = TargetSpec(Family.STARLIKE_ORDER, alpha=0.25)
_RESULT = RadiusResult(0.5, 0.0, (0.5, 0.5), Variant.CENTER_CORRECTED, 30)
_SCAN = ScanReport(True, None, True, 1.5 + 0.5j, 0.49, 0.51)
_SHARP = SharpnessReport(True, "F1", 0.5, 0.25, 0.25, True, 1e-6)
_REPORT = VerificationReport(_SPEC, _TARGET, Variant.CENTER_CORRECTED, 0.5,
                             _SCAN, _SHARP)

# (type, positional arguments, keyword arguments) for each value type
CASES = [
    (ClassDef, (2, -1.0, 0.0, 2.0), {}),
    (ClassSpec, (ClassId.G1, -1.0, 1.0), {}),
    (TargetSpec, (Family.STARLIKE_ORDER,), {"alpha": 0.25}),
    (DiskSpec, (1.5, 0.5, 0.75), {}),
    (RadiusCondition, (Variant.CENTER_CORRECTED,), {"coeffs": (-1.0, 2.0)}),
    (RadiusResult, (0.5, 0.0, (0.5, 0.5), Variant.CENTER_CORRECTED, 30), {}),
    (FamilyDef, (_mask, _threshold), {}),
    (TableCell, (_SPEC, _TARGET, Variant.CENTER_CORRECTED, _RESULT, None), {}),
    (ScanReport, (True, None, True, 1.5 + 0.5j, 0.49, 0.51), {}),
    (SharpnessReport, (False,), {}),
    (VerificationReport, tuple(_REPORT), {}),
]

_IDS = [cls.__name__ for cls, _, _ in CASES]


def test_cases_cover_every_value_type():
    found = {name for module in ("core", "regions", "solver", "verify")
             for name, obj in vars(sys.modules[f"radstar.{module}"]).items()
             if isinstance(obj, type) and issubclass(obj, tuple)
             and obj.__module__.startswith("radstar") and not name.startswith("_")}
    assert found == set(_IDS)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=_IDS)
def test_fields_are_read_only(cls, args, kwargs):
    x = cls(*args, **kwargs)
    for name in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=_IDS)
def test_equal_arguments_build_equal_values(cls, args, kwargs):
    x, y = cls(*args, **kwargs), cls(*args, **kwargs)
    assert x == y and not x != y
    assert x == tuple(x)  # a named tuple compares as its plain tuple
    if cls is FamilyDef:  # holds mappings, so it has no hash
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=_IDS)
def test_repr_names_every_field(cls, args, kwargs):
    x = cls(*args, **kwargs)
    fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in x._fields)
    assert repr(x) == f"{cls.__name__}({fields})"


def test_condition_compares_and_prints_its_fields_only():
    # the Horner closure built for each condition is no field: two
    # conditions of the same coefficients are equal, and evaluate alike;
    # kind, read from the fields, is no field either
    a, b = (RadiusCondition(Variant.PRINTED, coeffs=(-1.0, 2.0))
            for _ in range(2))
    assert a == b and a(0.25) == b(0.25) == -0.5
    assert "evaluator=None" in repr(a) and "kind" not in repr(a)
    c = RadiusCondition(Variant.CENTER_CORRECTED, evaluator=_evaluator)
    assert c(0.75) == 0.25
    variant, coeffs, evaluator, extrapolation = c
    assert (coeffs, evaluator, extrapolation) == (None, _evaluator, False)
    assert (a.kind, c.kind) == (ConditionKind.POLYNOMIAL, ConditionKind.COMPOSITE)
    assert c == RadiusCondition(Variant.CENTER_CORRECTED, None, _evaluator)
    assert a == RadiusCondition(Variant.PRINTED, (-1.0, 2.0), None, False)


def test_condition_takes_exactly_one_of_coeffs_and_evaluator():
    with pytest.raises(ParameterError, match="exactly one"):
        RadiusCondition(Variant.CENTER_CORRECTED)
    with pytest.raises(ParameterError, match="exactly one"):
        RadiusCondition(Variant.CENTER_CORRECTED, coeffs=(-1.0, 2.0),
                        evaluator=_evaluator)
    a = RadiusCondition(Variant.CENTER_CORRECTED, coeffs=(-1.0, 2.0))
    with pytest.raises(ParameterError, match="exactly one"):
        a._replace(evaluator=_evaluator)
    with pytest.raises(ParameterError, match="exactly one"):
        a._replace(coeffs=None)
    with pytest.raises(AttributeError):
        a.kind = ConditionKind.COMPOSITE
    assert a.kind is ConditionKind.POLYNOMIAL


def test_condition_takes_its_proof_from_its_evaluator():
    # the quartic proof for coefficients, else the evaluator's proof
    # attribute, else the empty proof, on every path a condition is built
    def g(r):
        return r - 0.25

    def g_proven(r):
        return r - 0.25

    g_proven.proof = solver._RL_PROOF
    c = RadiusCondition(Variant.CENTER_CORRECTED, evaluator=_evaluator)
    assert solver._proof_of(c) is solver._NO_PROOF
    assert solver._proof_of(c._replace(evaluator=g)) is solver._NO_PROOF
    moved = c._replace(evaluator=g_proven)
    assert solver._proof_of(moved) is solver._RL_PROOF and moved(0.5) == 0.25
    assert solver._proof_of(RadiusCondition._make(moved)) is solver._RL_PROOF
    assert solver._proof_of(moved._replace(evaluator=g)) is solver._NO_PROOF
    quartic = c._replace(evaluator=None, coeffs=(-1.0, 2.0))
    assert solver._proof_of(quartic) is solver._QUARTIC_PROOF
    assert quartic.kind is ConditionKind.POLYNOMIAL


def test_condition_pads_its_coefficients_to_five():
    # the coefficients are padded once, when the condition is built, and
    # _replace, which builds through __new__, keeps them
    a = RadiusCondition(Variant.CENTER_CORRECTED, coeffs=[-1.0, 2.0])
    assert a.coeffs == (-1.0, 2.0, 0.0, 0.0, 0.0)
    assert all(type(c) is float for c in a.coeffs)
    b = a._replace(extrapolation=True)
    assert b.coeffs == a.coeffs and b(0.25) == a(0.25) == -0.5
    with pytest.raises(ParameterError, match="at most 5"):
        a._replace(coeffs=(1.0,) * 6)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=_IDS)
def test_make_and_replace_keep_the_type(cls, args, kwargs):
    x = cls(*args, **kwargs)
    for y in (cls._make(x), x._replace()):
        assert type(y) is cls and y == x


def test_replace_builds_through_new():
    # _replace and _make run the subclass's __new__: a replaced condition
    # binds its h again, and a replaced target checks its order parameters.
    # A replaced quartic derives the quartic proof from its coefficients; a
    # replaced RL condition keeps the RL proof, which its evaluator carries
    for family, proof in ((Family.CARDIOID, solver._QUARTIC_PROOF),
                          (Family.RATIONAL_RL, solver._RL_PROOF)):
        cond = assemble_condition(make_class(ClassId.G1, -0.7),
                                  default_target(family))
        moved = cond._replace(extrapolation=True)
        assert moved.extrapolation and moved(0.2) == cond(0.2)
        assert RadiusCondition._make(cond)(0.2) == cond(0.2)
        assert (solver._proof_of(moved)
                is solver._proof_of(RadiusCondition._make(cond)) is proof)
        assert (smallest_root_in_01(moved)
                == smallest_root_in_01(cond)._replace(extrapolation=True))
    assert solver._proof_of(cond) is solver._RL_PROOF
    t = TargetSpec(Family.STARLIKE_ORDER, alpha=0.2)
    assert t._replace(alpha=0.5) == TargetSpec(Family.STARLIKE_ORDER, alpha=0.5)
    with pytest.raises(ParameterError):
        t._replace(alpha=5.0)
    with pytest.raises(ParameterError):
        TargetSpec._make((Family.CARDIOID, 0.2, None))


def test_family_defaults_are_read_only():
    fd = FamilyDef(_mask, _threshold)
    assert fd.classes == frozenset(ClassId)
    assert isinstance(fd.readings, MappingProxyType) and not fd.readings
    with pytest.raises(TypeError):
        fd.readings[ClassId.G1] = ()


def test_reports_of_one_cell_compare_equal():
    # a benchmark round is checked against the first by != on the reports
    spec = make_class(ClassId.G1, -0.7)
    for family in (Family.SINE, Family.RATIONAL_RL, Family.NEPHROID):
        t = TargetSpec(family)
        a, b = verify_cell(spec, t), verify_cell(spec, t)
        assert a == b and not a != b and hash(a) == hash(b)
