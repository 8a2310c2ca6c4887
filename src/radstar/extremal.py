"""Extremal functions for the two classes, through their factored
logarithmic derivatives, each written once in the power e of its class."""

from __future__ import annotations

import enum

from .core import CLASSES, ClassId, EvaluationError, coefficient

_POLE_EPS = 1e-300


class ExtremalId(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


# The witness of each class for each end of the disk {|w - c| < R} that
# holds z f'/f on |z| = rho, keyed by the sign of its contact point
# z = sign * rho: F1 reaches the left end c - R at z = +rho, F2 and F3 the
# right end c + R at z = -rho. g2 has no witness for the left end.
WITNESSES = {(ClassId.G1, +1): ExtremalId.F1, (ClassId.G1, -1): ExtremalId.F2,
             (ClassId.G2, -1): ExtremalId.F3}
# The class of each witness, whose coefficient 1 + slope * b it takes.
_CLASS_OF = {eid: class_id for (class_id, _), eid in WITNESSES.items()}


def _safe_div(num: complex, den: complex) -> complex:
    if abs(den) < _POLE_EPS:
        raise EvaluationError(f"evaluation at a pole (|denominator|={abs(den)!r})")
    return num / den


def log_deriv(eid: ExtremalId, b: float, z: complex) -> complex:
    """z f'(z)/f(z) from the factored rational form (no numerical
    differentiation); value 1 at z = 0."""
    class_id = _CLASS_OF[eid]
    B = coefficient(class_id, b)
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
    # the right-end witness of the class of power e (F2 for g1, F3 for g2):
    # f = z (1 + eBz + z^2) / ((1+z)^(e+1) (1-z))
    e = CLASSES[class_id].power
    eB = e * B
    return (1.0
            + _safe_div(eB * z + 2.0 * z * z, 1.0 + eB * z + z * z)
            - (e + 1.0) * _safe_div(z, 1.0 + z)
            + _safe_div(z, 1.0 - z))
