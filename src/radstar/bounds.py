"""The disk containing zf'/f on |z| = r for each of the two classes, and the
quartic radius condition that clears its denominator."""

from __future__ import annotations

from typing import Callable, Tuple

from .core import ClassId, ClassSpec, DiskSpec, DomainError

_G1 = ClassId.G1  # read as a module global (see core._POLYNOMIAL)


def disk_map(spec: ClassSpec) -> Callable[[float], Tuple[float, float, float]]:
    """The map r -> (center, radius, den) of disk(spec, r) as plain floats,
    bound once for the class and magnitude of spec."""
    m = spec.coeff_mag
    a = 1.0 + m
    if spec.class_id is _G1:
        a2, m2 = 2.0 * a, 2.0 * m

        def disk_at(r):
            if not (0.0 <= r < 1.0):
                raise DomainError(f"r={r!r} outside [0, 1)")
            s = r * r
            w = 1.0 - s
            den = w * (s + m2 * r + 1.0)
            num = 2.0 * (a * r ** 3 + a2 * r ** 2 + a * r)
            return (1.0 + s) / w, num / den, den
    else:
        b = 4.0 + m

        def disk_at(r):
            if not (0.0 <= r < 1.0):
                raise DomainError(f"r={r!r} outside [0, 1)")
            s = r * r
            w = 1.0 - s
            den = w * (s + m * r + 1.0)
            return 1.0 / w, (a * r ** 3 + b * r ** 2 + a * r) / den, den

    return disk_at


def disk(spec: ClassSpec, r: float) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the class of spec."""
    return DiskSpec(*disk_map(spec)(r))


def quartic(class_id: ClassId, m: float, p: float,
            q: float) -> Tuple[float, ...]:
    """Ascending coefficients of h = N - (p(1 - r^2) + q(1 + r^2)) X with
    X = r^2 + 2mr + 1 and N = 2(1 + m) r (1 + r)^2 for G1, and of
    h = N - (p(1 - r^2) + q) X with X = r^2 + mr + 1 and
    N = (1 + m) r + (4 + m) r^2 + (1 + m) r^3 for G2. Each coefficient is
    grouped as in the product expansion, so the floats match it bit for bit."""
    if class_id is _G1:
        n, m2 = 2.0 * (1.0 + m), 2.0 * m
        return (-p - q, n - p * m2 - q * m2, 4.0 * (1.0 + m) - q * 2.0,
                n + p * m2 - q * m2, p - q)
    # 0.0 + p is +0.0 where p is -0.0 (starlike of order 0), as expanded
    return (-p - q, 1.0 + m - p * m - q * m, 4.0 + m - q, 1.0 + m + p * m,
            0.0 + p)
