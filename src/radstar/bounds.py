"""The disk containing zf'/f on |z| = r for each of the two classes."""

from __future__ import annotations

import numpy as np

from .core import ClassId, ClassSpec, DiskSpec, DomainError, array_pow


def disk(spec: ClassSpec, r) -> DiskSpec:
    """Disk containing zf'/f on |z| = r for the class of spec; r may be an
    ndarray, giving arrays of centers, radii and denominators."""
    if isinstance(r, np.ndarray):
        lo, hi, pw = r.min(), r.max(), array_pow
    else:
        lo, hi, pw = r, r, pow
    if not (0.0 <= lo and hi < 1.0):
        raise DomainError(f"r={hi if 0.0 <= lo else lo!r} outside [0, 1)")
    m = spec.coeff_mag
    if spec.class_id is ClassId.G1:
        center = (1.0 + r * r) / (1.0 - r * r)
        num = 2.0 * ((1.0 + m) * pw(r, 3) + 2.0 * (1.0 + m) * pw(r, 2) + (1.0 + m) * r)
        den = (1.0 - r * r) * (r * r + 2.0 * m * r + 1.0)
    else:
        center = 1.0 / (1.0 - r * r)
        num = (1.0 + m) * pw(r, 3) + (4.0 + m) * pw(r, 2) + (1.0 + m) * r
        den = (1.0 - r * r) * (r * r + m * r + 1.0)
    return DiskSpec(center, num / den, den)
