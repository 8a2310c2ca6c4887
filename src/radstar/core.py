"""Shared domain types: function classes, target families, disks, conditions."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Optional, Tuple

import numpy as np


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


class ClassId(enum.Enum):
    G1 = "g1"
    G2 = "g2"


class Family(enum.Enum):
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


class Variant(enum.Enum):
    CENTER_CORRECTED = "corrected"
    PRINTED = "printed"
    # Third reading of the flagged nephroid condition; only adjudication uses it.
    PRINTED_PROOF = "printed-proof"


class ConditionKind(enum.Enum):
    POLYNOMIAL = "polynomial"
    COMPOSITE = "composite"


# Admissible real-parameter intervals on which the radius conditions hold.
_B_RANGE = {ClassId.G1: (-1.0, 0.0), ClassId.G2: (-1.0, 1.0 / 3.0)}


@dataclass(frozen=True)
class ClassSpec:
    """One of the two fixed-second-coefficient classes, with its derived magnitude."""

    class_id: ClassId
    b: float
    coeff_mag: float

    @property
    def second_coeff(self) -> float:
        """The second Taylor coefficient of class members (4b or 3b)."""
        return 4.0 * self.b if self.class_id is ClassId.G1 else 3.0 * self.b


def make_class(class_id: ClassId, b: float) -> ClassSpec:
    """Build a ClassSpec, rejecting b outside the admissible interval."""
    lo, hi = _B_RANGE[class_id]
    if not (lo <= b <= hi):
        raise ParameterError(
            f"b={b!r} outside admissible interval [{lo}, {hi}] for {class_id.value}"
        )
    if class_id is ClassId.G1:
        mag = abs(1.0 + 2.0 * b)
    else:
        mag = abs(1.0 + 3.0 * b)
    return ClassSpec(class_id, float(b), mag)


def class_from_coeff_mag(class_id: ClassId, coeff_mag: float) -> ClassSpec:
    """Build a ClassSpec from the magnitude alone, using the representative b <= -1/2 (G1)
    or b <= -1/3 (G2); every radius depends on b only through the magnitude."""
    max_mag = 1.0 if class_id is ClassId.G1 else 2.0
    if not (0.0 <= coeff_mag <= max_mag):
        raise ParameterError(
            f"coeff_mag={coeff_mag!r} outside [0, {max_mag}] for {class_id.value}"
        )
    if class_id is ClassId.G1:
        b = -(1.0 + coeff_mag) / 2.0
    else:
        b = -(1.0 + coeff_mag) / 3.0
    return ClassSpec(class_id, b, float(coeff_mag))


@dataclass(frozen=True)
class TargetSpec:
    """A target starlike family, with its order parameter where one applies."""

    family: Family
    alpha: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.family is Family.STARLIKE_ORDER:
            if self.alpha is None:
                raise ParameterError("starlike target requires alpha")
            if not (0.0 <= self.alpha < 1.0):
                raise ParameterError(f"alpha={self.alpha!r} outside [0, 1)")
        elif self.alpha is not None:
            raise ParameterError("alpha only applies to the starlike-order family")
        if self.family is Family.STRONGLY_STARLIKE:
            if self.gamma is None:
                raise ParameterError("strongly-starlike target requires gamma")
            if not (0.0 < self.gamma <= 1.0):
                raise ParameterError(f"gamma={self.gamma!r} outside (0, 1]")
        elif self.gamma is not None:
            raise ParameterError("gamma only applies to the strongly-starlike family")

    def label(self) -> str:
        return self.family.value


def target(family: Family, alpha: Optional[float] = None,
           gamma: Optional[float] = None) -> TargetSpec:
    return TargetSpec(family, alpha, gamma)


@dataclass(frozen=True)
class DiskSpec:
    """Real center and radius of the disk containing zf'/f on |z| = r."""

    center: float
    radius: float
    r: float


@dataclass(frozen=True)
class RadiusCondition:
    """Scalar condition h on [0, 1); containment holds while h(r) <= 0.

    h takes a float r or an ndarray of r. On an ndarray it returns the array
    of the values it returns for each element as a float, bit for bit: the
    solver finds the sign change on a whole grid at once and bisects with
    scalar calls. A composite evaluator keeps that contract by writing its
    formula once for both, taking x ** n of an ndarray from array_pow."""

    kind: ConditionKind
    variant: Variant
    coeffs: Optional[Tuple[float, ...]] = None  # ascending by degree
    evaluator: Optional[Callable[[float], float]] = None
    extrapolation: bool = False

    def __call__(self, r: float) -> float:
        if self.kind is ConditionKind.POLYNOMIAL:
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * r + c
            return acc
        return self.evaluator(r)


def array_pow(x: np.ndarray, n: int) -> np.ndarray:
    """x ** n on each element of an ndarray, with the C-library pow that
    float ** int calls: numpy's vectorised power can round the last bit
    differently. The result is read-only."""
    return _libm_pow(x.astype(float, copy=False).tobytes(), x.shape, n)


@lru_cache(maxsize=8)
def _libm_pow(buf: bytes, shape: Tuple[int, ...], n: int) -> np.ndarray:
    # Memoised on the contents: the solver evaluates every composite
    # condition on the same grid, and a call of math.pow per element costs
    # some twenty times the hashing of the bytes on a cache hit.
    y = np.fromiter(map(math.pow, np.frombuffer(buf).tolist(), repeat(float(n))),
                    float).reshape(shape)
    y.setflags(write=False)
    return y


@dataclass(frozen=True)
class RadiusResult:
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
