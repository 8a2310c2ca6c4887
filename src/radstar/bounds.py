"""The disk containing zf'/f on |z| = r for a class of power e, and the
quartic radius condition that clears its denominator: the disk of the
Moebius part 1 - e z/(1 + z) plus the Herglotz bound at e m / 2 (Ali,
Nagpal and Ravichandran, Bull. Malays. Math. Sci. Soc. 34 (2011) 611-629)."""

from __future__ import annotations

from typing import Callable, Tuple

from .core import CLASSES, ClassId, ClassSpec, DiskSpec, DomainError


def disk_map(spec: ClassSpec) -> Callable[[float], Tuple[float, float, float]]:
    """The map r -> (center, radius, den) of disk(spec, r) as plain floats,
    bound once for the class and magnitude m of spec, e the class's power:
    center = (1 + (e - 1) r^2)/(1 - r^2), den = (1 - r^2)(r^2 + e m r + 1),
    radius = e ((1 + m) r^3 + (4/e + e m) r^2 + (1 + m) r)/den. As e is 1
    or 2, each product by e is exact, and the floats are each class's own
    expansion's at every r, subnormal r included."""
    e, m = CLASSES[spec.class_id].power, spec.coeff_mag
    a, em, k = 1.0 + m, e * m, e - 1.0
    c = 4.0 / e + em

    def disk_at(r):
        if not (0.0 <= r < 1.0):
            raise DomainError(f"r={r!r} outside [0, 1)")
        s = r * r
        w = 1.0 - s
        den = w * (s + em * r + 1.0)
        return (1.0 + k * s) / w, e * (a * r ** 3 + c * r ** 2 + a * r) / den, den

    return disk_at


def disk(spec: ClassSpec, r: float) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the class of spec."""
    return DiskSpec(*disk_map(spec)(r))


def quartic(class_id: ClassId, m: float, p: float,
            q: float) -> Tuple[float, ...]:
    """Ascending coefficients of h = N - (p(1 - r^2) + q(1 + k r^2)) X, with
    e the power of the class, k = e - 1, X = r^2 + e m r + 1 and
    N = A r + (4 + e^2 m) r^2 + A r^3, A = e (1 + m). Each coefficient is
    grouped as in the product expansion, and a product by e (1 or 2) or by
    k (0 or 1) is exact, so the floats match each class's own expansion bit
    for bit; 0.0 + p - q k is +0.0 where p is -0.0 (starlike of order 0)
    and k = 0."""
    e = CLASSES[class_id].power
    em, k = e * m, e - 1.0
    A, pem, qem = e * (1.0 + m), p * em, q * em
    return (-p - q, A - pem - qem, 4.0 + e * em - q * e, A + pem - qem * k,
            0.0 + p - q * k)
