"""Logarithmic-derivative bound for fixed-coefficient Herglotz functions and
the resulting disk maps for the two classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ClassId, ClassSpec, DiskSpec, DomainError, ParameterError,
                   array_pow)


@dataclass(frozen=True)
class HerglotzParams:
    """Second-coefficient factor and order of a positive-real-part function."""

    b: float
    alpha: float = 0.0

    def __post_init__(self):
        if abs(self.b) > 1.0:
            raise ParameterError(f"|b|={abs(self.b)!r} exceeds 1")
        if not (0.0 <= self.alpha < 1.0):
            raise ParameterError(f"alpha={self.alpha!r} outside [0, 1)")


def _check_r(r) -> None:
    lo, hi = (r.min(), r.max()) if isinstance(r, np.ndarray) else (r, r)
    if not (0.0 <= lo and hi < 1.0):
        raise DomainError(f"r={hi if 0.0 <= lo else lo!r} outside [0, 1)")


def herglotz_logderiv_bound(params: HerglotzParams, r: float) -> float:
    """Sharp bound on |z p'(z)/p(z)| over |z| = r for p with fixed second
    coefficient 2b(1-alpha) and Re p > alpha."""
    _check_r(r)
    b, a = abs(params.b), params.alpha
    num = (b * r * r + 2.0 * r + b)
    den = (1.0 - 2.0 * a) * r * r + 2.0 * (1.0 - a) * b * r + 1.0
    return 2.0 * (1.0 - a) * r / (1.0 - r * r) * num / den


def g1_disk(spec: ClassSpec, r) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the first class; r may be an
    ndarray, giving arrays of centers and radii."""
    if spec.class_id is not ClassId.G1:
        raise ParameterError("g1_disk requires a G1 spec")
    _check_r(r)
    pw = array_pow if isinstance(r, np.ndarray) else pow
    m = spec.coeff_mag
    center = (1.0 + r * r) / (1.0 - r * r)
    num = 2.0 * ((1.0 + m) * pw(r, 3) + 2.0 * (1.0 + m) * pw(r, 2) + (1.0 + m) * r)
    den = (1.0 - r * r) * (r * r + 2.0 * m * r + 1.0)
    return DiskSpec(center, num / den, r)


def g2_disk(spec: ClassSpec, r) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the second class."""
    if spec.class_id is not ClassId.G2:
        raise ParameterError("g2_disk requires a G2 spec")
    _check_r(r)
    pw = array_pow if isinstance(r, np.ndarray) else pow
    m = spec.coeff_mag
    center = 1.0 / (1.0 - r * r)
    num = (1.0 + m) * pw(r, 3) + (4.0 + m) * pw(r, 2) + (1.0 + m) * r
    den = (1.0 - r * r) * (r * r + m * r + 1.0)
    return DiskSpec(center, num / den, r)


def disk(spec: ClassSpec, r) -> DiskSpec:
    if spec.class_id is ClassId.G1:
        return g1_disk(spec, r)
    return g2_disk(spec, r)
