"""Shared domain types: function classes, target families, disks, conditions."""

from __future__ import annotations

import enum
import operator
from typing import Callable, NamedTuple, Optional, Tuple


class ParameterError(ValueError):
    """An argument is outside its admissible range."""


class DomainError(ValueError):
    """An evaluation point lies outside the domain of validity (e.g. r >= 1)."""


class UnsupportedCombinationError(ParameterError):
    """The (class, target) pair has no supported radius condition."""


class NoRootError(RuntimeError):
    """A radius condition has no sign change in (0, 1)."""

    def __init__(self, message: str, h_at_0: float, h_near_1: float):
        super().__init__(message)
        self.h_at_0 = h_at_0
        self.h_near_1 = h_near_1


class EvaluationError(ArithmeticError):
    """A rational expression was evaluated at (numerically) a pole."""


class _IdentityEnum(enum.Enum):
    """An enum whose members hash by identity, with object's C __hash__:
    members are singletons and compare by identity, so hash and == agree,
    and a dict or set keyed on them runs no Python code. Enum's own
    __hash__, hash(self._name_), is a Python function. The hash of a member
    differs between processes, and so does that of a value type holding
    one; within a process equal values hash alike."""

    __hash__ = object.__hash__


class ClassId(_IdentityEnum):
    G1 = "g1"
    G2 = "g2"


class Family(_IdentityEnum):
    STARLIKE_ORDER = "starlike"
    LEMNISCATE = "lemniscate"
    PARABOLIC = "parabolic"
    EXPONENTIAL = "exponential"
    CARDIOID = "cardioid"
    SINE = "sine"
    LUNE = "lune"
    RATIONAL_R = "rational"
    RATIONAL_RL = "rl"
    STRONGLY_STARLIKE = "strongly"
    NEPHROID = "nephroid"
    SIGMOID_SG = "sg"


class Variant(_IdentityEnum):
    CENTER_CORRECTED = "corrected"
    PRINTED = "printed"
    # Third reading of the flagged nephroid condition; only adjudication uses it.
    PRINTED_PROOF = "printed-proof"


class ConditionKind(_IdentityEnum):
    POLYNOMIAL = "polynomial"
    COMPOSITE = "composite"


class ClassDef(NamedTuple):
    """Every per-class fact: the slope of the coefficient 1 + slope * b,
    whose magnitude is all a radius depends on, the interval [b_lo, b_hi]
    of b on which the radius conditions hold, and the power e, in which
    every per-class formula is written once: (1 + z)^e f(z)/z has positive
    real part. A field, as it is read once per cell."""

    slope: int
    b_lo: float
    b_hi: float
    power: float

    @property
    def max_mag(self) -> float:
        """Largest coefficient magnitude on the interval."""
        return max(abs(1 + self.slope * self.b_lo), abs(1 + self.slope * self.b_hi))


# g1: (1+z)^2 f/z has positive real part, a2 = 4b; g2: (1+z) f/z, a2 = 3b.
# Its first coefficient e (1 + slope * b) is at most 2 in magnitude
# (Caratheodory), which fixes the interval: power * max_mag = 2.
CLASSES = {ClassId.G1: ClassDef(2, -1.0, 0.0, 2.0),
           ClassId.G2: ClassDef(3, -1.0, 1.0 / 3.0, 1.0)}


def coefficient(class_id: ClassId, b):
    """The signed coefficient 1 + slope * b of the class, rejecting b outside
    its interval; exact for a rational b, which is checked as the nearest
    float, so that Fraction(1, 3) is the upper end for g2."""
    cd = CLASSES[class_id]
    if not (cd.b_lo <= float(b) <= cd.b_hi):
        raise ParameterError(f"b={b!r} outside admissible interval "
                             f"[{cd.b_lo}, {cd.b_hi}] for {class_id.value}")
    return 1 + cd.slope * b


class ClassSpec(NamedTuple):
    """One of the two fixed-second-coefficient classes, with its derived magnitude."""

    class_id: ClassId
    b: float
    coeff_mag: float


def make_class(class_id: ClassId, b: float) -> ClassSpec:
    """Build a ClassSpec, rejecting b outside the admissible interval."""
    return ClassSpec(class_id, float(b), float(abs(coefficient(class_id, b))))


def class_from_coeff_mag(class_id: ClassId, coeff_mag: float) -> ClassSpec:
    """Build a ClassSpec from the magnitude alone, using the representative b
    with a negative coefficient (b <= -1/2 for g1, b <= -1/3 for g2). The
    disk bound, and so every radius computed from it, depends on b only
    through the magnitude; the sharp radius of the class does not, and is
    larger where the coefficient is positive."""
    cd = CLASSES[class_id]
    if not (0.0 <= coeff_mag <= cd.max_mag):
        raise ParameterError(
            f"coeff_mag={coeff_mag!r} outside [0, {cd.max_mag}] for {class_id.value}"
        )
    return ClassSpec(class_id, -(1.0 + coeff_mag) / cd.slope, float(coeff_mag))


def _make_through_new(cls, iterable):
    """_make, and so _replace, for a named tuple subclass whose __new__
    checks its fields or binds more: built through cls itself, where the
    generated _make would skip that __new__."""
    return cls(*iterable)


class _TargetFields(NamedTuple):
    family: Family
    alpha: Optional[float]
    gamma: Optional[float]


class TargetSpec(_TargetFields):
    """A target starlike family, with its order parameter where one applies;
    the order parameters are checked when it is built."""

    __slots__ = ()

    def __new__(cls, family: Family, alpha: Optional[float] = None,
                gamma: Optional[float] = None):
        if family is Family.STARLIKE_ORDER:
            if alpha is None:
                raise ParameterError("starlike target requires alpha")
            if not (0.0 <= alpha < 1.0):
                raise ParameterError(f"alpha={alpha!r} outside [0, 1)")
        elif alpha is not None:
            raise ParameterError("alpha only applies to the starlike-order family")
        if family is Family.STRONGLY_STARLIKE:
            if gamma is None:
                raise ParameterError("strongly-starlike target requires gamma")
            if not (0.0 < gamma <= 1.0):
                raise ParameterError(f"gamma={gamma!r} outside (0, 1]")
        elif gamma is not None:
            raise ParameterError("gamma only applies to the strongly-starlike family")
        return _TargetFields.__new__(cls, family, alpha, gamma)

    _make = classmethod(_make_through_new)

    def label(self) -> str:
        return self.family.value


class DiskSpec(NamedTuple):
    """Real center and radius of the disk containing zf'/f on |z| = r, and
    the denominator (1 - r^2)(r^2 + e m r + 1) of the radius, e the power
    of the class, by which the RL condition clears it."""

    center: float
    radius: float
    den: float


class _Evaluator(property):
    """RadiusCondition.__call__. Read on a condition it is the condition's
    evaluator _h itself, by property's C __get__, so cond.__call__, bound
    once, evaluates h with no frame of its own. Read on the class it is
    this object, which takes (cond, r) to cond._h(r): a patch that wraps
    RadiusCondition.__call__ sees every evaluation made through
    cond.__call__ or cond(r), and setting the value it read back restores
    this object."""

    def __call__(self, cond, r):
        return cond._h(r)


class _ConditionFields(NamedTuple):
    variant: Variant
    coeffs: Optional[Tuple[float, ...]]  # ascending by degree, five
    evaluator: Optional[Callable[[float], float]]
    extrapolation: bool


class RadiusCondition(_ConditionFields):
    """Scalar condition h on [0, 1); containment holds while h(r) <= 0.

    h takes a float r. A condition has exactly one of coeffs, evaluated by
    Horner's rule, unrolled once here, and evaluator; kind says which.
    Coefficients are padded with leading zeros to five when the condition
    is built, and more than five are refused. h, the Horner closure or the
    evaluator, is the one instance attribute beside the four fields (the
    class has no __slots__), so ==, hash and repr read the fields alone,
    and _make and _replace, which build through __new__, bind it again. A
    condition carries no proof: the solver derives what is proven of h
    from its fields (solver._proof_of). cond.__call__ is h itself and
    cond(r) is h(r); on the class, __call__ is an _Evaluator, which a
    patch can wrap to count every evaluation."""

    def __new__(cls, variant: Variant, coeffs: Optional[Tuple[float, ...]] = None,
                evaluator: Optional[Callable[[float], float]] = None,
                extrapolation: bool = False):
        if (coeffs is None) is (evaluator is None):
            raise ParameterError("give exactly one of coeffs and evaluator")
        if coeffs is not None and len(coeffs) != 5:
            n = len(coeffs)
            if n > 5:
                raise ParameterError(f"{n} coefficients; at most 5 (degree 4)")
            coeffs = tuple(coeffs) + (0.0,) * (5 - n)
        self = tuple.__new__(cls, (variant, coeffs, evaluator, extrapolation))
        self._h = _horner(coeffs) if evaluator is None else evaluator
        return self

    @property
    def kind(self) -> ConditionKind:
        return (ConditionKind.COMPOSITE if self.coeffs is None
                else ConditionKind.POLYNOMIAL)

    _make = classmethod(_make_through_new)

    __call__ = _Evaluator(operator.attrgetter("_h"))


def _horner(coeffs: Tuple[float, ...]) -> Callable[[float], float]:
    """acc = acc * r + c over the five coefficients from the highest degree
    down, starting at acc = 0.0, unrolled. The first step's 0.0 * r is +0.0
    for every r in [+0.0, 1), so it is folded into 0.0 + c4; the leading
    zeros that pad a shorter tuple keep acc at +0.0."""
    c0, c1, c2, c3, c4 = coeffs
    a4 = 0.0 + c4

    def h(r):
        return (((a4 * r + c3) * r + c2) * r + c1) * r + c0

    return h


class RadiusResult(NamedTuple):
    rho: float
    residual: float
    bracket: Tuple[float, float]
    variant: Variant
    iterations: int
    extrapolation: bool = False


def default_target(family: Family, alpha: float = 0.0,
                   gamma: float = 0.5) -> TargetSpec:
    """TargetSpec with grid-default order parameters (alpha=0, gamma=0.5)."""
    if family is Family.STARLIKE_ORDER:
        return TargetSpec(family, alpha=alpha)
    if family is Family.STRONGLY_STARLIKE:
        return TargetSpec(family, gamma=gamma)
    return TargetSpec(family)
