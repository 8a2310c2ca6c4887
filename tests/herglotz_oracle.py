"""Logarithmic-derivative bound for fixed-coefficient Herglotz functions.

An oracle for the tests only: zf'/f of either class is a Moebius part plus
zp'/p of a positive-real-part function p, so the radius of radstar.bounds.disk
is the Moebius radius plus this bound, derived apart from the disk formulas."""

from radstar.core import DomainError


def herglotz_logderiv_bound(b: float, r: float, alpha: float = 0.0) -> float:
    """Sharp bound on |z p'(z)/p(z)| over |z| = r for p with fixed second
    coefficient 2b(1-alpha) and Re p > alpha."""
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r={r!r} outside [0, 1)")
    b = abs(b)
    num = (b * r * r + 2.0 * r + b)
    den = (1.0 - 2.0 * alpha) * r * r + 2.0 * (1.0 - alpha) * b * r + 1.0
    return 2.0 * (1.0 - alpha) * r / (1.0 - r * r) * num / den
