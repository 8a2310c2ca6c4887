"""The disk containing zf'/f on |z| = r for each of the two classes, and the
quartic radius condition that clears its denominator."""

from __future__ import annotations

from typing import Tuple

from .core import ClassId, ClassSpec, DiskSpec, DomainError


def disk(spec: ClassSpec, r: float) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the class of spec."""
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r={r!r} outside [0, 1)")
    m = spec.coeff_mag
    if spec.class_id is ClassId.G1:
        center = (1.0 + r * r) / (1.0 - r * r)
        num = 2.0 * ((1.0 + m) * r ** 3 + 2.0 * (1.0 + m) * r ** 2 + (1.0 + m) * r)
        den = (1.0 - r * r) * (r * r + 2.0 * m * r + 1.0)
    else:
        center = 1.0 / (1.0 - r * r)
        num = (1.0 + m) * r ** 3 + (4.0 + m) * r ** 2 + (1.0 + m) * r
        den = (1.0 - r * r) * (r * r + m * r + 1.0)
    return DiskSpec(center, num / den, den)


def quartic(class_id: ClassId, m: float, p: float,
            q: float) -> Tuple[float, ...]:
    """Ascending coefficients of h = N - (p(1 - r^2) + q(1 + r^2)) X with
    X = r^2 + 2mr + 1 and N = 2(1 + m) r (1 + r)^2 for G1, and of
    h = N - (p(1 - r^2) + q) X with X = r^2 + mr + 1 and
    N = (1 + m) r + (4 + m) r^2 + (1 + m) r^3 for G2. Each coefficient is
    grouped as in the product expansion, so the floats match it bit for bit."""
    if class_id is ClassId.G1:
        n, m2 = 2.0 * (1.0 + m), 2.0 * m
        return (-p - q, n - p * m2 - q * m2, 4.0 * (1.0 + m) - q * 2.0,
                n + p * m2 - q * m2, p - q)
    # 0.0 + p is +0.0 where p is -0.0 (starlike of order 0), as expanded
    return (-p - q, 1.0 + m - p * m - q * m, 4.0 + m - q, 1.0 + m + p * m,
            0.0 + p)
