"""The twelve target image domains: one FamilyDef per family holds its exact
membership predicate, its boundary, its disk-containment threshold and its
boundary-contact (sharpness) data."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import ClassId, Family, ParameterError, TargetSpec, array_pow
from .extremal import ExtremalId

SQRT2 = math.sqrt(2.0)
E = math.e
SIN1 = math.sin(1.0)

# Truncation radius for unbounded boundaries (half-plane, sector, parabola).
_TRUNC = 4.0

# Largest sample count region_boundary and the containment scan accept.
MAX_SAMPLES = 1_000_000


_K = SQRT2 + 1.0
_C_RL = 2.0 * (SQRT2 - 1.0)


# ---------------------------------------------------------------------------
# Membership predicates (vectorized; True = interior)

def cardioid_quartic(x, y):
    """Boundary polynomial of the cardioid domain; negative inside
    (sign calibrated at w = 1)."""
    return (81.0 * x**4 - 324.0 * x**3 + 162.0 * x**2 * y**2 + 270.0 * x**2
            - 324.0 * x * y**2 - 84.0 * x + 81.0 * y**4 - 54.0 * y**2 + 9.0)


def nephroid_sextic(u, v):
    """Boundary polynomial of the two-cusped kidney-shaped domain; negative inside."""
    return (u * u - 2.0 * u + v * v + 5.0 / 9.0) ** 3 - 4.0 * v * v / 3.0


def _exponential_mask(t, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        mask = np.abs(np.log(w)) < 1.0
    return np.where(w == 0.0, False, mask)


def _rational_mask(t, w):
    # preimages of w under the generator solve
    # z^2 + K w z - K^2 (w - 1) = 0; the smaller one lies in the disk
    b = _K * w
    s = np.sqrt(b * b + 4.0 * _K * _K * (w - 1.0))
    return np.minimum(np.abs(s - b), np.abs(s + b)) < 2.0


def _rl_mask(t, w):
    # |u^2 - 1| < 1 with u = w - sqrt2, expanded so that points near the
    # node u = 0 do not round onto the boundary; Re u < 0 picks the left
    # loop, the image of the generator
    u = w - SQRT2
    a = u.real * u.real + u.imag * u.imag
    return (a * a < 2.0 * (u * u).real) & (u.real < 0.0)


def _sg_mask(t, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        u = w / (2.0 - w)
        mask = np.abs(np.log(u)) < 1.0
    bad = (w == 2.0) | (u == 0.0)
    return np.where(bad, False, mask)


def _rl_generator(z):
    # The image of the unit disk is the left half of the shifted lemniscate,
    # |(w - sqrt2)^2 - 1| < 1 with Re w < sqrt2 (Mendiratta, Nagpal and
    # Ravichandran, Int. J. Math. 25 (2014) 1450090).
    return SQRT2 - (SQRT2 - 1.0) * np.sqrt((1.0 - z) / (1.0 + _C_RL * z))


# ---------------------------------------------------------------------------
# Boundary sampling

def _anchored_angles(n: int) -> np.ndarray:
    """n angles covering [0, 2*pi] and always containing 0, pi and 2*pi."""
    m1 = (n - 1) // 2
    m2 = (n - 1) - m1
    return np.concatenate([np.linspace(0.0, math.pi, m1 + 1),
                           np.linspace(math.pi, 2.0 * math.pi, m2 + 1)[1:]])


def _anchored_circle(n: int) -> np.ndarray:
    """n unit-circle samples including +1 and -1, closed (first == last)."""
    pts = np.exp(1j * _anchored_angles(n))
    # snap the endpoints and the half-turn anchor so branch-cut generators
    # (square roots) do not amplify the 1e-16 angle rounding
    pts[0] = 1.0
    pts[-1] = 1.0
    pts[(n - 1) // 2] = -1.0
    return pts


def _halfplane_boundary(alpha: float, n: int) -> np.ndarray:
    t_max = math.sqrt(max(_TRUNC**2 - alpha**2, 1.0))
    m1 = (n - 1) // 2
    m2 = (n - 1) - m1
    seg = alpha + 1j * np.linspace(-t_max, t_max, m1 + 1)
    phi = np.linspace(math.pi / 2.0, -math.pi / 2.0, m2 + 1)[1:]
    r_arc = abs(complex(alpha, t_max) - alpha)
    cap = alpha + r_arc * np.exp(1j * phi)
    return np.concatenate([seg, cap])


def _sector_boundary(gamma: float, n: int) -> np.ndarray:
    half = 0.5 * math.pi * gamma
    m = (n - 1) // 3
    m_arc = (n - 1) - 2 * m
    up = np.linspace(0.0, _TRUNC, m + 1) * cmath.exp(1j * half)
    phi = np.linspace(half, -half, m_arc + 1)[1:]
    arc = _TRUNC * np.exp(1j * phi)
    down = np.linspace(_TRUNC, 0.0, m + 1)[1:] * cmath.exp(-1j * half)
    return np.concatenate([up, arc, down])


def _parabola_boundary(n: int) -> np.ndarray:
    # y^2 = 2x - 1 truncated to |w| <= _TRUNC, closed with a circular cap.
    # corner where the parabola meets |w| = _TRUNC: x^2 + 2x - 1 = _TRUNC^2
    x_end = -1.0 + math.sqrt(2.0 + _TRUNC**2)
    y_end = math.sqrt(2.0 * x_end - 1.0)
    m1 = (n - 1) // 2
    m2 = (n - 1) - m1
    y = np.linspace(-y_end, y_end, m1 + 1)
    seg = (1.0 + y * y) / 2.0 + 1j * y
    phi0 = math.atan2(y_end, x_end)
    phi = np.linspace(phi0, -phi0, m2 + 1)[1:]
    cap = _TRUNC * np.exp(1j * phi)
    return np.concatenate([seg, cap])


def _lune_boundary(n: int) -> np.ndarray:
    # Right lobe of {|w^2-1| = 2|w|}: rho^2 = (2+cos 2t) +/- sqrt((2+cos 2t)^2-1),
    # the two branches meeting at w = +/- i.
    m1 = (n - 1) // 2
    m2 = (n - 1) - m1
    t_out = np.linspace(-math.pi / 2.0, math.pi / 2.0, m1 + 1)
    t_in = np.linspace(math.pi / 2.0, -math.pi / 2.0, m2 + 1)[1:]

    def rho(t, sign):
        a = 2.0 + np.cos(2.0 * t)
        return np.sqrt(a + sign * np.sqrt(np.maximum(a * a - 1.0, 0.0)))

    outer = rho(t_out, +1.0) * np.exp(1j * t_out)
    inner = rho(t_in, -1.0) * np.exp(1j * t_in)
    return np.concatenate([outer, inner])


# ---------------------------------------------------------------------------
# The family table

# Tolerance of the boundary-contact check at a sharp radius.
_SHARP_TOL = 1e-6


@dataclass(frozen=True)
class FamilyDef:
    """Every per-family fact of one target domain.

    mask(t, w): exact interior test of the domain on a complex array.
    generator(z): maps the unit circle onto the boundary; a family without
    one has boundary(t, n) instead, n closed samples.
    threshold(t) = (p, q): the disk {|w - c| < R}, c >= 1, lies in the domain
    while R <= p + q * c; None where the threshold is not affine in c.
    contact(t, v) = (functional value, claimed contact value) at v = zf'/f.
    sharp[class_id] = (witness, sign of the contact point, tolerance) for
    the classes whose radius for this domain is sharp.
    g2: the radius condition is stated for the second class.
    """

    mask: Callable[[TargetSpec, np.ndarray], np.ndarray]
    threshold: Optional[Callable[[TargetSpec], Tuple[float, float]]]
    g2: bool
    generator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary: Optional[Callable[[TargetSpec, int], np.ndarray]] = None
    contact: Optional[Callable[[TargetSpec, complex], Tuple[float, float]]] = None
    sharp: Dict[ClassId, Tuple[ExtremalId, int, float]] = field(default_factory=dict)


FAMILIES: Dict[Family, FamilyDef] = {
    Family.STARLIKE_ORDER: FamilyDef(
        mask=lambda t, w: w.real > t.alpha,
        boundary=lambda t, n: _halfplane_boundary(t.alpha, n),
        threshold=lambda t: (-t.alpha, 1.0),
        contact=lambda t, v: (v.real, t.alpha),
        sharp={ClassId.G1: (ExtremalId.F1, +1, _SHARP_TOL)},
        g2=False),
    Family.LEMNISCATE: FamilyDef(
        # right loop only; |w^2-1| < 1 already excludes the imaginary axis
        mask=lambda t, w: (np.abs(w * w - 1.0) < 1.0) & (w.real > 0.0),
        generator=lambda z: np.sqrt(1.0 + z),
        threshold=lambda t: (SQRT2, -1.0),
        contact=lambda t, v: (abs(v * v - 1.0), 1.0),
        sharp={ClassId.G1: (ExtremalId.F2, -1, _SHARP_TOL)},
        g2=False),
    Family.PARABOLIC: FamilyDef(
        mask=lambda t, w: np.abs(w - 1.0) < w.real,
        boundary=lambda t, n: _parabola_boundary(n),
        threshold=lambda t: (-0.5, 1.0),
        contact=lambda t, v: (v.real, abs(v - 1.0)),
        sharp={ClassId.G1: (ExtremalId.F1, +1, _SHARP_TOL)},
        g2=False),
    Family.EXPONENTIAL: FamilyDef(
        mask=_exponential_mask,
        generator=np.exp,
        threshold=lambda t: (-1.0 / E, 1.0),
        contact=lambda t, v: (abs(cmath.log(v)), 1.0),
        sharp={ClassId.G1: (ExtremalId.F1, +1, _SHARP_TOL)},
        g2=False),
    Family.CARDIOID: FamilyDef(
        mask=lambda t, w: cardioid_quartic(w.real, w.imag) < 0.0,
        generator=lambda z: (3.0 + 4.0 * z + 2.0 * z * z) / 3.0,
        threshold=lambda t: (-1.0 / 3.0, 1.0),
        contact=lambda t, v: (abs(v), 1.0 / 3.0),
        sharp={ClassId.G1: (ExtremalId.F1, +1, _SHARP_TOL)},
        g2=True),
    Family.SINE: FamilyDef(
        # sin is univalent on the unit disk, whose image meets the real axis
        # only inside (-1, 1), away from the branch cuts of arcsin
        mask=lambda t, w: np.abs(np.arcsin(w - 1.0)) < 1.0,
        generator=lambda z: 1.0 + np.sin(z),
        threshold=lambda t: (SIN1 + 1.0, -1.0),
        contact=lambda t, v: (abs(v), 1.0 + SIN1),
        sharp={ClassId.G1: (ExtremalId.F2, -1, _SHARP_TOL),
               ClassId.G2: (ExtremalId.F3, -1, _SHARP_TOL)},
        g2=True),
    Family.LUNE: FamilyDef(
        # the image of z + sqrt(1 + z^2) is the right lobe of |w^2-1| < 2|w|
        # (Raina and Sokol, C. R. Math. Acad. Sci. Paris 353 (2015) 973-978)
        mask=lambda t, w: (np.abs(w * w - 1.0) < 2.0 * np.abs(w)) & (w.real > 0.0),
        boundary=lambda t, n: _lune_boundary(n),
        threshold=lambda t: (1.0 - SQRT2, 1.0),
        g2=True),
    Family.RATIONAL_R: FamilyDef(
        mask=_rational_mask,
        generator=lambda z: 1.0 + (z * (_K + z)) / (_K * (_K - z)),
        threshold=lambda t: (2.0 - 2.0 * SQRT2, 1.0),
        contact=lambda t, v: (abs(v), 2.0 * (SQRT2 - 1.0)),
        sharp={ClassId.G1: (ExtremalId.F1, +1, _SHARP_TOL)},
        g2=True),
    Family.RATIONAL_RL: FamilyDef(
        mask=_rl_mask,
        generator=_rl_generator,
        threshold=None,
        g2=True),
    Family.STRONGLY_STARLIKE: FamilyDef(
        mask=lambda t, w: (w != 0.0) & (np.abs(np.angle(w)) < 0.5 * math.pi * t.gamma),
        boundary=lambda t, n: _sector_boundary(t.gamma, n),
        threshold=lambda t: (0.0, math.sin(0.5 * math.pi * t.gamma)),
        g2=True),
    Family.NEPHROID: FamilyDef(
        mask=lambda t, w: nephroid_sextic(w.real, w.imag) < 0.0,
        generator=lambda z: 1.0 + z - z**3 / 3.0,
        threshold=lambda t: (5.0 / 3.0, -1.0),
        contact=lambda t, v: (abs(v), 5.0 / 3.0),
        # the g1 condition is one of the two flagged ones: its contact is
        # checked at the looser tolerance of variant adjudication
        sharp={ClassId.G1: (ExtremalId.F2, -1, 1e-4),
               ClassId.G2: (ExtremalId.F3, -1, _SHARP_TOL)},
        g2=True),
    Family.SIGMOID_SG: FamilyDef(
        mask=_sg_mask,
        generator=lambda z: 2.0 / (1.0 + np.exp(-z)),
        threshold=lambda t: (2.0 * E / (1.0 + E), -1.0),
        contact=lambda t, v: (abs(cmath.log(v / (2.0 - v))), 1.0),
        sharp={ClassId.G1: (ExtremalId.F2, -1, _SHARP_TOL),
               ClassId.G2: (ExtremalId.F3, -1, _SHARP_TOL)},
        g2=True),
}


def membership_mask(t: TargetSpec, ws) -> np.ndarray:
    """Exact interior test of the target domain for each point of ws."""
    return FAMILIES[t.family].mask(t, np.asarray(ws, dtype=complex))


def region_contains(t: TargetSpec, w: complex) -> bool:
    """True iff w is interior to the target domain."""
    return bool(membership_mask(t, complex(w)))


def boundary_parameters(t: TargetSpec, n: int) -> np.ndarray:
    """Curve parameter in [0, 2*pi] for each sample of region_boundary."""
    if FAMILIES[t.family].generator is not None:
        return _anchored_angles(n)
    return np.linspace(0.0, 2.0 * math.pi, n)


def region_boundary(t: TargetSpec, n: int) -> np.ndarray:
    """n closed boundary samples of the target domain (first == last).
    Unbounded boundaries are truncated to |w| <= 4 and closed with a cap."""
    if n < 4:
        raise ParameterError(f"n={n} too small for a closed boundary")
    if n > MAX_SAMPLES:
        raise ParameterError(f"n={n} above the limit of {MAX_SAMPLES} samples")
    fd = FAMILIES[t.family]
    if fd.generator is not None:
        return fd.generator(_anchored_circle(n))
    return fd.boundary(t, n)


def containment_threshold(t: TargetSpec, c):
    """Largest R such that the disk {|w-c| < R} is inside the target domain
    according to the per-family containment condition; may be negative.
    c may be an ndarray of centers, giving an array of thresholds."""
    if isinstance(c, np.ndarray):
        lowest, pw, sqrt = c.min(), array_pow, np.sqrt
    else:
        lowest, pw, sqrt = c, pow, math.sqrt
    if lowest < 1.0:
        raise ParameterError(f"center c={lowest!r} below 1")
    affine = FAMILIES[t.family].threshold
    if affine is not None:
        p, q = affine(t)
        return p + q * c
    # RL, the one family whose threshold is not affine in c; it is 0 where
    # |sqrt2 - c| > 1, which is where t2 <= 0, and never negative
    t2 = 1.0 - pw(SQRT2 - c, 2)
    t2 = (t2 + abs(t2)) / 2.0  # max(t2, 0) for a finite float or ndarray, exactly
    return sqrt(sqrt(t2) - t2)
