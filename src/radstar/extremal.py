"""Extremal functions for the two classes, their Schwarz functions, factored
logarithmic derivatives, and an exact series oracle for Taylor coefficients."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import List, Sequence, Union

from .core import ClassId, EvaluationError, ParameterError, coefficient

_POLE_EPS = 1e-300


class ExtremalId(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


# The class of each witness, whose coefficient 1 + slope * b it takes.
_CLASS_OF = {ExtremalId.F1: ClassId.G1, ExtremalId.F2: ClassId.G1,
             ExtremalId.F3: ClassId.G2}


def _safe_div(num: complex, den: complex) -> complex:
    if abs(den) < _POLE_EPS:
        raise EvaluationError(f"evaluation at a pole (|denominator|={abs(den)!r})")
    return num / den


def eval_extremal(eid: ExtremalId, b: float, z: complex) -> complex:
    """Value of the extremal function at z."""
    B = coefficient(_CLASS_OF[eid], b)
    z = complex(z)
    if eid is ExtremalId.F1:
        return _safe_div(z - z * z, (1.0 + z) * (1.0 - 2.0 * B * z + z * z))
    if eid is ExtremalId.F2:
        return _safe_div(z * (1.0 + 2.0 * B * z + z * z),
                         (1.0 + z) ** 2 * (1.0 - z * z))
    return _safe_div(z * (1.0 + B * z + z * z), (1.0 + z) * (1.0 - z * z))


def log_deriv(eid: ExtremalId, b: float, z: complex) -> complex:
    """z f'(z)/f(z) from the factored rational form (no numerical
    differentiation); value 1 at z = 0."""
    B = coefficient(_CLASS_OF[eid], b)
    z = complex(z)
    if z == 0.0:
        return complex(1.0)
    if eid is ExtremalId.F1:
        # f1 = z (1-z) / ((1+z)(1 - 2Bz + z^2))
        return (1.0
                - _safe_div(z, 1.0 - z)
                - _safe_div(z, 1.0 + z)
                - _safe_div(-2.0 * B * z + 2.0 * z * z,
                            1.0 - 2.0 * B * z + z * z))
    if eid is ExtremalId.F2:
        # f2 = z (1 + 2Bz + z^2) / ((1+z)^3 (1-z))
        return (1.0
                + _safe_div(2.0 * B * z + 2.0 * z * z,
                            1.0 + 2.0 * B * z + z * z)
                - 3.0 * _safe_div(z, 1.0 + z)
                + _safe_div(z, 1.0 - z))
    # f3 = z (1 + Bz + z^2) / ((1+z)^2 (1-z))
    return (1.0
            + _safe_div(B * z + 2.0 * z * z, 1.0 + B * z + z * z)
            - 2.0 * _safe_div(z, 1.0 + z)
            + _safe_div(z, 1.0 - z))


def schwarz_eval(index: int, b: float, z: complex) -> complex:
    """The Schwarz function paired with each extremal function; w(0) = 0."""
    eid = {1: ExtremalId.F1, 2: ExtremalId.F2, 3: ExtremalId.F3}.get(index)
    if eid is None:
        raise ParameterError(f"schwarz index must be 1, 2 or 3, got {index!r}")
    B = coefficient(_CLASS_OF[eid], b)
    z = complex(z)
    if eid is ExtremalId.F1:
        return _safe_div(z * (z - B), 1.0 - B * z)
    if eid is ExtremalId.F2:
        return _safe_div(z * (z + B), 1.0 + B * z)
    return _safe_div(z * (z + B / 2.0), 1.0 + B * z / 2.0)


# ---------------------------------------------------------------------------
# Exact series oracle

Number = Union[int, Fraction]


def series_quotient(num: Sequence[Number], den: Sequence[Number],
                    nterms: int) -> List[Fraction]:
    """First nterms Taylor coefficients of num/den by exact long division;
    den[0] must be nonzero."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    if den[0] == 0:
        raise ParameterError("series division needs den[0] != 0")
    out: List[Fraction] = []
    for k in range(nterms):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def taylor_coefficients(eid: ExtremalId, b: Fraction,
                        nterms: int = 8) -> List[Fraction]:
    """Exact Taylor coefficients a_1, a_2, ... of the extremal function for
    rational b (series-division oracle, independent of eval_extremal)."""
    B = coefficient(_CLASS_OF[eid], Fraction(b))
    if eid is ExtremalId.F1:
        num = [0, 1, -1]
        # (1+z)(1-2Bz+z^2)
        den = [1, 1 - 2 * B, 1 - 2 * B, 1]
    elif eid is ExtremalId.F2:
        num = [0, 1, 2 * B, 1]
        # (1+z)^2 (1-z^2) = (1+z)^3 (1-z)
        den = [1, 2, 0, -2, -1]
    else:
        num = [0, 1, B, 1]
        # (1+z)(1-z^2)
        den = [1, 1, -1, -1]
    coeffs = series_quotient(num, den, nterms + 1)
    return coeffs[1:]  # a_1 onward; a_1 == 1 for all three
