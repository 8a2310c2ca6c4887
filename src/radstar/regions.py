"""The twelve target image domains: one FamilyDef per family holds its exact
membership predicate, its boundary, its disk-containment threshold, its
boundary-contact (sharpness) functional, where its condition is stated and
any alternate printed readings of that condition."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Mapping, NamedTuple, Optional, Tuple

from .core import ClassId, Family, ParameterError, TargetSpec, Variant

SQRT2 = math.sqrt(2.0)
E = math.e
SIN1 = math.sin(1.0)

# Truncation radius for unbounded boundaries (half-plane, sector, parabola;
# see region_boundary).
_TRUNC = 4.0

# Largest sample count region_boundary and the containment scan accept.
MAX_SAMPLES = 1_000_000
# Samples of each circle the containment scan builds and masks at once.
SCAN_BLOCK = 2**16


_K = SQRT2 + 1.0
_K2 = _K * _K
_C_RL = 2.0 * (SQRT2 - 1.0)
# read as module globals (see solver._CORRECTED)
_RL, _STARLIKE = Family.RATIONAL_RL, Family.STARLIKE_ORDER


class _Numpy:
    """Stands for numpy until an array is first built: the first attribute
    read imports numpy and rebinds this module's np to it, so a radius,
    which builds none, never loads it and later reads are plain lookups."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()


# ---------------------------------------------------------------------------
# Membership predicates (vectorized; True = interior)

def cardioid_quartic(x, y):
    """Boundary polynomial of the cardioid domain; negative inside
    (sign calibrated at w = 1, where it is -48). With s = x^2 + y^2 it is
    81 s^2 - 324 x s + 270 x^2 - 84 x - 54 y^2 + 9, taken with products
    only: numpy hands x**3 and x**4 to libm pow, which is slow on a
    negative base."""
    x2 = x * x
    y2 = y * y
    s = x2 + y2
    return 81.0 * s * s - 324.0 * x * s + 270.0 * x2 - 84.0 * x - 54.0 * y2 + 9.0


def nephroid_sextic(u, v):
    """Boundary polynomial of the two-cusped kidney-shaped domain; negative
    inside. It is a^3 - 4 v^2 / 3 with a = u^2 - 2u + v^2 + 5/9, the cube
    taken as a * a * a: a is negative on much of the domain, and pow is slow
    on a negative base."""
    a = u * u - 2.0 * u + v * v + 5.0 / 9.0
    return a * a * a - 4.0 * v * v / 3.0


def _log_disk(u):
    """|log u| < 1 on the principal branch, tested as
    log(|u|)^2 + arg(u)^2 < 1 with real ufuncs only; u = 0, where
    log|u| = -inf, is outside."""
    with np.errstate(divide="ignore"):
        m = np.log(np.abs(u))
    a = np.arctan2(u.imag, u.real)  # np.angle(u), without its Python frame
    return m * m + a * a < 1.0


def _rational_mask(t, w):
    """The smaller root of z^2 + K w z - K^2 (w - 1) = 0, the preimage of w
    under the generator, lies in the unit disk, tested with real ufuncs
    only. The roots are (-K w +/- sigma)/2 with
    sigma^2 = K^2 (w^2 + 4w - 4), and |sigma -/+ K w|^2, four times their
    squared moduli, are the roots of X^2 - 2 S X + P with
    S = K^2 s, s = |w^2 + 4w - 4| + |w|^2, and P = 16 K^4 |w - 1|^2. The
    smaller is below 4 exactly when S < 4 or P - 8 S + 16 < 0, that is
    s < 4/K^2 or 16 K^2 |w - 1|^2 + 16/K^2 < 8 s."""
    x, y = w.real, w.imag
    y2 = y * y
    s = np.abs(w * (w + 4.0) - 4.0) + (x * x + y2)
    u = x - 1.0
    return (s < 4.0 / _K2) | (16.0 * _K2 * (u * u + y2) + 16.0 / _K2 < 8.0 * s)


def _sine_mask(t, w):
    """|arcsin(w - 1)| < 1 on the principal branch, tested as
    arcsin(beta)^2 + arccosh(alpha)^2 < 1 with real ufuncs only (Hull,
    Fairgrieve and Tang, ACM TOMS 23 (1997) 299-335), where
    alpha = (|w| + |w - 2|)/2 and beta = (|w| - |w - 2|)/2. sin is univalent
    on the unit disk, whose image meets the real axis only inside (-1, 1),
    away from the branch cuts of arcsin.

    |beta| <= 1 in exact arithmetic, but on the real axis outside [0, 2] it
    can round above 1, where arcsin is nan; arcsin(beta)^2 is even, so
    |beta| is taken and clipped at 1. alpha >= 1 holds in floats with no
    clip. A faithfully rounded modulus is at least |Re w|, and rounding is
    monotone, so alpha is at least the rounded (|x| + |x - 2|)/2 with
    x = Re w. For x < 0 or x > 2 one term is already at least 2. For x in
    [1, 2], 2 - x is exact and the sum is 2. For x in [0, 1), the rounded
    2 - x is off by at most 2^-53, so the sum is at least 2 - 2^-53, the
    midpoint below 2, which rounds to 2 (ties to even)."""
    p = np.abs(w)
    q = np.abs(w - 2.0)
    a = np.arccosh(0.5 * (p + q))
    b = np.arcsin(np.minimum(0.5 * np.abs(p - q), 1.0))
    return a * a + b * b < 1.0


def _rl_mask(t, w):
    # |u^2 - 1| < 1 with u = w - sqrt2, expanded so that points near the
    # node u = 0 do not round onto the boundary; Re u < 0 picks the left
    # loop, the image of the generator
    u = w - SQRT2
    a = u.real * u.real + u.imag * u.imag
    return (a * a < 2.0 * (u * u).real) & (u.real < 0.0)


def _sg_mask(t, w):
    # w = 2 divides by zero; u = inf or nan there, which _log_disk leaves out
    with np.errstate(divide="ignore", invalid="ignore"):
        u = w / (2.0 - w)
    return _log_disk(u)


def _rl_generator(z):
    # The image of the unit disk is the left half of the shifted lemniscate,
    # |(w - sqrt2)^2 - 1| < 1 with Re w < sqrt2 (Mendiratta, Nagpal and
    # Ravichandran, Int. J. Math. 25 (2014) 1450090).
    return SQRT2 - (SQRT2 - 1.0) * np.sqrt((1.0 - z) / (1.0 + _C_RL * z))


# ---------------------------------------------------------------------------
# Boundary sampling

def _two_pieces(n: int, first, second) -> np.ndarray:
    """n samples of a curve in two pieces, each given as a function of its
    sample count; the sample where the pieces join is kept once."""
    m1 = (n - 1) // 2
    return np.concatenate([first(m1 + 1), second(n - m1)[1:]])


def _anchored_angles(n: int) -> np.ndarray:
    """n angles covering [0, 2*pi] and always containing 0, pi and 2*pi."""
    return _two_pieces(n, lambda k: np.linspace(0.0, math.pi, k),
                       lambda k: np.linspace(math.pi, 2.0 * math.pi, k))


def _anchored_circle(theta: np.ndarray) -> np.ndarray:
    """The unit-circle points at the angles theta, +1 and -1 exact."""
    pts = np.exp(1j * theta)
    # snap the endpoints and the half-turn anchor so branch-cut generators
    # (square roots) do not amplify the 1e-16 angle rounding
    pts[0] = 1.0
    pts[-1] = 1.0
    pts[(len(theta) - 1) // 2] = -1.0
    return pts


@lru_cache(maxsize=1)
def _unit_circle(n: int, k0: int, k1: int) -> np.ndarray:
    """Samples k0 <= k < k1 of n equally spaced unit-circle samples from +1,
    read-only, each the same float as in the whole circle; the last block
    only is kept, so a scan of 10**6 samples holds one block of SCAN_BLOCK."""
    u = np.exp(1j * (2.0 * math.pi * np.arange(k0, k1) / n))
    u.setflags(write=False)
    return u


def circle_points(circles, n: int, k0: int, k1: int) -> np.ndarray:
    """Samples k0 <= k < k1 of n of each circle |w - center| = radius of
    circles, a sequence of (center, radius), one circle after another in
    one array; each sample is center + radius * u, u from
    _unit_circle(n, k0, k1), sample 0 at center + radius."""
    u = _unit_circle(n, k0, k1)
    m = k1 - k0
    pts = np.empty(len(circles) * m, dtype=complex)
    for k, (center, radius) in enumerate(circles):
        part = pts[k * m:(k + 1) * m]
        np.multiply(radius, u, out=part)
        np.add(center, part, out=part)
    return pts


def _halfplane_boundary(alpha: float, n: int) -> np.ndarray:
    t_max = math.sqrt(max(_TRUNC**2 - alpha**2, 1.0))
    return _two_pieces(
        n, lambda k: alpha + 1j * np.linspace(-t_max, t_max, k),
        lambda k: alpha + t_max * np.exp(
            1j * np.linspace(math.pi / 2.0, -math.pi / 2.0, k)))


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
    phi0 = math.atan2(y_end, x_end)

    def seg(k):
        y = np.linspace(-y_end, y_end, k)
        return (1.0 + y * y) / 2.0 + 1j * y

    return _two_pieces(
        n, seg, lambda k: _TRUNC * np.exp(1j * np.linspace(phi0, -phi0, k)))


# ---------------------------------------------------------------------------
# The family table

class FamilyDef(NamedTuple):
    """Every per-family fact of one target domain.

    mask(t, w): exact interior test of the domain on a complex array.
    generator(z): maps the unit circle onto the boundary; a family without
    one has boundary(t, n) instead, n closed samples.
    threshold(t) = (p, q): the disk {|w - c| < R}, c >= 1, lies in the domain
    while R <= p + q * c; None where the threshold is not affine in c.
    contact(t, v) = (functional value, claimed contact value) at v = zf'/f,
    for the families whose radius verify checks for sharpness; the witness
    and its contact point follow from the sign of q (verify.sharpness_check).
    classes: the classes for which the radius condition is stated (all by
    default); stated adds the starlike domain of order 0 for every class.
    readings[class_id]: the alternate printed readings of the class's
    condition, in report order, each mapped to what it changes: the quartic
    at coefficient magnitude m, or where threshold is None the center at r.
    readings defaults to a read-only empty mapping.
    """

    mask: Callable[[TargetSpec, np.ndarray], np.ndarray]
    threshold: Optional[Callable[[TargetSpec], Tuple[float, float]]]
    classes: FrozenSet[ClassId] = frozenset(ClassId)
    generator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary: Optional[Callable[[TargetSpec, int], np.ndarray]] = None
    contact: Optional[Callable[[TargetSpec, complex], Tuple[float, float]]] = None
    readings: Mapping[ClassId, Mapping[Variant, Callable]] = MappingProxyType({})

    def stated(self, class_id: ClassId, t: TargetSpec) -> bool:
        """True where the condition for t, of this family, is established
        for the class; elsewhere it is an extrapolation."""
        return (class_id in self.classes
                or (t.family is _STARLIKE and t.alpha == 0.0))


FAMILIES: Dict[Family, FamilyDef] = {
    Family.STARLIKE_ORDER: FamilyDef(
        mask=lambda t, w: w.real > t.alpha,
        boundary=lambda t, n: _halfplane_boundary(t.alpha, n),
        threshold=lambda t: (-t.alpha, 1.0),
        contact=lambda t, v: (v.real, t.alpha),
        classes=frozenset({ClassId.G1})),
    Family.LEMNISCATE: FamilyDef(
        # right loop only; |w^2-1| < 1 already excludes the imaginary axis
        mask=lambda t, w: (np.abs(w * w - 1.0) < 1.0) & (w.real > 0.0),
        generator=lambda z: np.sqrt(1.0 + z),
        threshold=lambda t: (SQRT2, -1.0),
        contact=lambda t, v: (abs(v * v - 1.0), 1.0),
        classes=frozenset({ClassId.G1})),
    Family.PARABOLIC: FamilyDef(
        mask=lambda t, w: np.abs(w - 1.0) < w.real,
        boundary=lambda t, n: _parabola_boundary(n),
        threshold=lambda t: (-0.5, 1.0),
        contact=lambda t, v: (v.real, abs(v - 1.0)),
        classes=frozenset({ClassId.G1})),
    Family.EXPONENTIAL: FamilyDef(
        mask=lambda t, w: _log_disk(w),
        generator=lambda z: np.exp(z),
        threshold=lambda t: (-1.0 / E, 1.0),
        contact=lambda t, v: (abs(cmath.log(v)), 1.0),
        classes=frozenset({ClassId.G1})),
    Family.CARDIOID: FamilyDef(
        mask=lambda t, w: cardioid_quartic(w.real, w.imag) < 0.0,
        generator=lambda z: (3.0 + 4.0 * z + 2.0 * z * z) / 3.0,
        threshold=lambda t: (-1.0 / 3.0, 1.0),
        contact=lambda t, v: (abs(v), 1.0 / 3.0)),
    Family.SINE: FamilyDef(
        mask=_sine_mask,
        generator=lambda z: 1.0 + np.sin(z),
        threshold=lambda t: (SIN1 + 1.0, -1.0),
        contact=lambda t, v: (abs(v), 1.0 + SIN1)),
    Family.LUNE: FamilyDef(
        # the image of z + sqrt(1 + z^2) is the right lobe of |w^2-1| < 2|w|
        # (Raina and Sokol, C. R. Math. Acad. Sci. Paris 353 (2015) 973-978)
        mask=lambda t, w: (np.abs(w * w - 1.0) < 2.0 * np.abs(w)) & (w.real > 0.0),
        generator=lambda z: z + np.sqrt(1.0 + z * z),
        threshold=lambda t: (1.0 - SQRT2, 1.0)),
    Family.RATIONAL_R: FamilyDef(
        mask=_rational_mask,
        generator=lambda z: 1.0 + (z * (_K + z)) / (_K * (_K - z)),
        threshold=lambda t: (2.0 - 2.0 * SQRT2, 1.0),
        contact=lambda t, v: (abs(v), 2.0 * (SQRT2 - 1.0))),
    Family.RATIONAL_RL: FamilyDef(
        mask=_rl_mask,
        generator=_rl_generator,
        threshold=None,
        readings={ClassId.G1: {Variant.PRINTED: lambda r: 1.0 / (1.0 - r * r)}}),
    Family.STRONGLY_STARLIKE: FamilyDef(
        mask=lambda t, w: ((w != 0.0)
                           & (np.abs(np.arctan2(w.imag, w.real))
                              < 0.5 * math.pi * t.gamma)),
        boundary=lambda t, n: _sector_boundary(t.gamma, n),
        threshold=lambda t: (0.0, math.sin(0.5 * math.pi * t.gamma))),
    Family.NEPHROID: FamilyDef(
        mask=lambda t, w: nephroid_sextic(w.real, w.imag) < 0.0,
        generator=lambda z: 1.0 + z - z**3 / 3.0,
        threshold=lambda t: (5.0 / 3.0, -1.0),
        contact=lambda t, v: (abs(v), 5.0 / 3.0),
        readings={ClassId.G1: {  # printed; derived with center 1/(1 - r^2)
            Variant.PRINTED: lambda m: (
                -2.0, 2.0 * (3.0 + m), 6.0 * (2.0 + m), 2.0 * (3.0 + m), 8.0),
            Variant.PRINTED_PROOF: lambda m: (
                -2.0, 2.0 * (3.0 + m), 15.0 + 12.0 * m, 6.0 + 16.0 * m, 5.0)}}),
    Family.SIGMOID_SG: FamilyDef(
        mask=_sg_mask,
        generator=lambda z: 2.0 / (1.0 + np.exp(-z)),
        threshold=lambda t: (2.0 * E / (1.0 + E), -1.0),
        contact=lambda t, v: (abs(cmath.log(v / (2.0 - v))), 1.0)),
}


def membership_mask(t: TargetSpec, ws) -> np.ndarray:
    """Exact interior test of the target domain for each point of ws."""
    return FAMILIES[t.family].mask(t, np.asarray(ws, dtype=complex))


def region_boundary(t: TargetSpec, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(theta, w): n samples w of the target domain's boundary, the last
    the first again (to about 1e-15 on the half-plane and the parabola),
    each with its theta in [0, 2*pi]: for a generator family the anchored
    angle, w = generator(exp(i theta)); for the half-plane, the parabola
    and the sector n evenly spaced values that index the samples, not a
    curve parameter. Unbounded boundaries are cut at |w| = 4 and closed:
    the sector and the parabola by an arc of that circle, the half-plane
    by a half circle about alpha, out to alpha + sqrt(16 - alpha^2) < 4.88."""
    if n < 4:
        raise ParameterError(f"n={n} too small for a closed boundary")
    if n > MAX_SAMPLES:
        raise ParameterError(f"n={n} above the limit of {MAX_SAMPLES} samples")
    fd = FAMILIES[t.family]
    if fd.generator is not None:
        theta = _anchored_angles(n)
        return theta, fd.generator(_anchored_circle(theta))
    return np.linspace(0.0, 2.0 * math.pi, n), fd.boundary(t, n)


def containment_threshold(t: TargetSpec, c: float) -> float:
    """Largest R such that the disk {|w-c| < R} is inside the target domain
    according to the per-family containment condition; may be negative.
    It is that largest disk only for c in [1, c_end): c_end is (e + 1/e)/2
    for the exponential domain, 5/3 for the cardioid and the nephroid, 3/2
    for the parabolic domain, 1 + sin 1 for the sine domain, 2e/(1 + e) for
    the sigmoid domain and sqrt2 for the lune, both rational domains and the
    lemniscate; the half-plane and the sector have no end. Past c_end it can
    overstate the largest disk that fits, except for RL, whose threshold is
    0 from sqrt2 on: that center is the node of the lemniscate or lies
    outside its left loop."""
    if not c >= 1.0:  # a NaN center too
        raise ParameterError(f"center c={c!r} is not at least 1")
    if t.family is _RL:  # the one threshold not affine in c
        if c >= SQRT2:
            return 0.0
        t2 = 1.0 - (SQRT2 - c) ** 2  # in (0.8, 1] for c in [1, sqrt2)
        return math.sqrt(math.sqrt(t2) - t2)
    p, q = FAMILIES[t.family].threshold(t)
    return p + q * c
