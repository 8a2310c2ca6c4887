"""Extremal functions for the two classes, their Schwarz functions, factored
logarithmic derivatives, and an exact series oracle for Taylor coefficients."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import List, Sequence, Union

from .core import EvaluationError, ParameterError

_POLE_EPS = 1e-300


class ExtremalId(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


def _check_b(eid: ExtremalId, b: float) -> None:
    if eid in (ExtremalId.F1, ExtremalId.F2):
        if abs(1.0 + 2.0 * b) > 1.0 + 1e-12:
            raise ParameterError(f"|1+2b| > 1 for b={b!r}")
    else:
        if abs(1.0 + 3.0 * b) > 2.0 + 1e-12:
            raise ParameterError(f"|1+3b| > 2 for b={b!r}")


def _safe_div(num: complex, den: complex) -> complex:
    if abs(den) < _POLE_EPS:
        raise EvaluationError(f"evaluation at a pole (|denominator|={abs(den)!r})")
    return num / den


def eval_extremal(eid: ExtremalId, b: float, z: complex) -> complex:
    """Value of the extremal function at z."""
    _check_b(eid, b)
    z = complex(z)
    if eid is ExtremalId.F1:
        B = 1.0 + 2.0 * b
        return _safe_div(z - z * z, (1.0 + z) * (1.0 - 2.0 * B * z + z * z))
    if eid is ExtremalId.F2:
        B = 1.0 + 2.0 * b
        return _safe_div(z * (1.0 + 2.0 * B * z + z * z),
                         (1.0 + z) ** 2 * (1.0 - z * z))
    C = 1.0 + 3.0 * b
    return _safe_div(z * (1.0 + C * z + z * z), (1.0 + z) * (1.0 - z * z))


def _frac_term(num: complex, den: complex) -> complex:
    # z * (factor)' / factor contribution, both already multiplied by z upstream
    if abs(den) < _POLE_EPS:
        raise EvaluationError("logarithmic derivative at a zero of a factor")
    return num / den


def log_deriv(eid: ExtremalId, b: float, z: complex) -> complex:
    """z f'(z)/f(z) from the factored rational form (no numerical
    differentiation); value 1 at z = 0."""
    _check_b(eid, b)
    z = complex(z)
    if z == 0.0:
        return complex(1.0)
    if eid is ExtremalId.F1:
        B = 1.0 + 2.0 * b
        # f1 = z (1-z) / ((1+z)(1 - 2Bz + z^2))
        return (1.0
                - _frac_term(z, 1.0 - z)
                - _frac_term(z, 1.0 + z)
                - _frac_term(-2.0 * B * z + 2.0 * z * z,
                             1.0 - 2.0 * B * z + z * z))
    if eid is ExtremalId.F2:
        B = 1.0 + 2.0 * b
        # f2 = z (1 + 2Bz + z^2) / ((1+z)^3 (1-z))
        return (1.0
                + _frac_term(2.0 * B * z + 2.0 * z * z,
                             1.0 + 2.0 * B * z + z * z)
                - 3.0 * _frac_term(z, 1.0 + z)
                + _frac_term(z, 1.0 - z))
    C = 1.0 + 3.0 * b
    # f3 = z (1 + Cz + z^2) / ((1+z)^2 (1-z))
    return (1.0
            + _frac_term(C * z + 2.0 * z * z, 1.0 + C * z + z * z)
            - 2.0 * _frac_term(z, 1.0 + z)
            + _frac_term(z, 1.0 - z))


def schwarz_eval(index: int, b: float, z: complex) -> complex:
    """The Schwarz function paired with each extremal function; w(0) = 0."""
    z = complex(z)
    if index == 1:
        B = 1.0 + 2.0 * b
        return _safe_div(z * (z - B), 1.0 - B * z)
    if index == 2:
        B = 1.0 + 2.0 * b
        return _safe_div(z * (z + B), 1.0 + B * z)
    if index == 3:
        C = 1.0 + 3.0 * b
        return _safe_div(z * (z + C / 2.0), 1.0 + C * z / 2.0)
    raise ParameterError(f"schwarz index must be 1, 2 or 3, got {index!r}")


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
    b = Fraction(b)
    if eid is ExtremalId.F1:
        B = 1 + 2 * b
        num = [0, 1, -1]
        # (1+z)(1-2Bz+z^2)
        den = [1, 1 - 2 * B, 1 - 2 * B, 1]
    elif eid is ExtremalId.F2:
        B = 1 + 2 * b
        num = [0, 1, 2 * B, 1]
        # (1+z)^2 (1-z^2) = (1+z)^3 (1-z)
        den = [1, 2, 0, -2, -1]
    else:
        C = 1 + 3 * b
        num = [0, 1, C, 1]
        # (1+z)(1-z^2)
        den = [1, 1, -1, -1]
    coeffs = series_quotient(num, den, nterms + 1)
    return coeffs[1:]  # a_1 onward; a_1 == 1 for all three
