"""Exact Taylor coefficients of the extremal functions.

An oracle for the tests only: the coefficients come from exact long division
of each function's numerator and denominator polynomials over the rationals,
apart from radstar.extremal's floating-point evaluation."""

from fractions import Fraction
from typing import List, Sequence, Union

from radstar.core import ParameterError, coefficient
from radstar.extremal import _CLASS_OF, ExtremalId

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
