"""Membership predicates, boundary parametrizations and disk-containment
thresholds for the twelve target image domains."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import Family, ParameterError, TargetSpec

SQRT2 = math.sqrt(2.0)
E = math.e
SIN1 = math.sin(1.0)

# Truncation radius for unbounded boundaries (half-plane, sector, parabola).
_TRUNC = 4.0

# Largest sample count region_boundary and the containment scan accept.
MAX_SAMPLES = 1_000_000


# ---------------------------------------------------------------------------
# Boundary generators (images of the unit circle)

def _gen_cardioid(z):
    return (3.0 + 4.0 * z + 2.0 * z * z) / 3.0


def _gen_sine(z):
    return 1.0 + np.sin(z)


_K = SQRT2 + 1.0


def _gen_rational(z):
    return 1.0 + (z * (_K + z)) / (_K * (_K - z))


def _gen_nephroid(z):
    return 1.0 + z - z**3 / 3.0


def _gen_exponential(z):
    return np.exp(z)


def _gen_lemniscate(z):
    return np.sqrt(1.0 + z)


def _gen_sg(z):
    return 2.0 / (1.0 + np.exp(-z))


_C_RL = 2.0 * (SQRT2 - 1.0)


def _gen_rl(z):
    # The image of the unit disk is the left half of the shifted lemniscate,
    # |(w - sqrt2)^2 - 1| < 1 with Re w < sqrt2 (Mendiratta, Nagpal and
    # Ravichandran, Int. J. Math. 25 (2014) 1450090).
    return SQRT2 - (SQRT2 - 1.0) * np.sqrt((1.0 - z) / (1.0 + _C_RL * z))


GENERATORS: dict = {
    Family.CARDIOID: _gen_cardioid,
    Family.SINE: _gen_sine,
    Family.RATIONAL_R: _gen_rational,
    Family.NEPHROID: _gen_nephroid,
    Family.EXPONENTIAL: _gen_exponential,
    Family.LEMNISCATE: _gen_lemniscate,
    Family.SIGMOID_SG: _gen_sg,
    Family.RATIONAL_RL: _gen_rl,
}


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


def membership_mask(t: TargetSpec, ws) -> np.ndarray:
    """Exact interior test of the target domain for each point of ws."""
    w = np.asarray(ws, dtype=complex)
    f = t.family
    if f is Family.STARLIKE_ORDER:
        return w.real > t.alpha
    if f is Family.LEMNISCATE:
        # right loop only; |w^2-1| < 1 already excludes the imaginary axis
        return (np.abs(w * w - 1.0) < 1.0) & (w.real > 0.0)
    if f is Family.PARABOLIC:
        return np.abs(w - 1.0) < w.real
    if f is Family.EXPONENTIAL:
        with np.errstate(divide="ignore", invalid="ignore"):
            mask = np.abs(np.log(w)) < 1.0
        return np.where(w == 0.0, False, mask)
    if f is Family.CARDIOID:
        return cardioid_quartic(w.real, w.imag) < 0.0
    if f is Family.LUNE:
        return np.abs(w * w - 1.0) < 2.0 * np.abs(w)
    if f is Family.SINE:
        # sin is univalent on the unit disk, whose image meets the real axis
        # only inside (-1, 1), away from the branch cuts of arcsin
        return np.abs(np.arcsin(w - 1.0)) < 1.0
    if f is Family.RATIONAL_R:
        # preimages of w under the generator solve
        # z^2 + K w z - K^2 (w - 1) = 0; the smaller one lies in the disk
        b = _K * w
        s = np.sqrt(b * b + 4.0 * _K * _K * (w - 1.0))
        return np.minimum(np.abs(s - b), np.abs(s + b)) < 2.0
    if f is Family.RATIONAL_RL:
        # |u^2 - 1| < 1 with u = w - sqrt2, expanded so that points near the
        # node u = 0 do not round onto the boundary; Re u < 0 picks the left
        # loop, the image of the generator
        u = w - SQRT2
        a = u.real * u.real + u.imag * u.imag
        return (a * a < 2.0 * (u * u).real) & (u.real < 0.0)
    if f is Family.STRONGLY_STARLIKE:
        half = 0.5 * math.pi * t.gamma
        return (w != 0.0) & (np.abs(np.angle(w)) < half)
    if f is Family.NEPHROID:
        return nephroid_sextic(w.real, w.imag) < 0.0
    if f is Family.SIGMOID_SG:
        with np.errstate(divide="ignore", invalid="ignore"):
            u = w / (2.0 - w)
            mask = np.abs(np.log(u)) < 1.0
        bad = (w == 2.0) | (u == 0.0)
        return np.where(bad, False, mask)
    raise ParameterError(f"no membership predicate for {f}")


def region_contains(t: TargetSpec, w: complex) -> bool:
    """True iff w is interior to the target domain."""
    return bool(membership_mask(t, complex(w)))


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


def boundary_parameters(t: TargetSpec, n: int) -> np.ndarray:
    """Curve parameter in [0, 2*pi] for each sample of region_boundary."""
    if t.family in GENERATORS:
        return _anchored_angles(n)
    return np.linspace(0.0, 2.0 * math.pi, n)


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


def region_boundary(t: TargetSpec, n: int) -> np.ndarray:
    """n closed boundary samples of the target domain (first == last).
    Unbounded boundaries are truncated to |w| <= 4 and closed with a cap."""
    if n < 4:
        raise ParameterError(f"n={n} too small for a closed boundary")
    if n > MAX_SAMPLES:
        raise ParameterError(f"n={n} above the limit of {MAX_SAMPLES} samples")
    f = t.family
    gen = GENERATORS.get(f)
    if gen is not None:
        return gen(_anchored_circle(n))
    if f is Family.STARLIKE_ORDER:
        return _halfplane_boundary(t.alpha, n)
    if f is Family.STRONGLY_STARLIKE:
        return _sector_boundary(t.gamma, n)
    if f is Family.PARABOLIC:
        return _parabola_boundary(n)
    if f is Family.LUNE:
        return _lune_boundary(n)
    raise ParameterError(f"no boundary parametrization for {f}")


# ---------------------------------------------------------------------------
# Disk-containment thresholds

def containment_threshold(t: TargetSpec, c: float) -> float:
    """Largest R such that the disk {|w-c| < R} is inside the target domain
    according to the per-family containment condition; may be negative."""
    if c < 1.0:
        raise ParameterError(f"center c={c!r} below 1")
    f = t.family
    if f is Family.STARLIKE_ORDER:
        return c - t.alpha
    if f is Family.LEMNISCATE:
        return (SQRT2 - 1.0) - (c - 1.0)
    if f is Family.PARABOLIC:
        return c - 0.5
    if f is Family.EXPONENTIAL:
        return c - 1.0 / E
    if f is Family.CARDIOID:
        return c - 1.0 / 3.0
    if f is Family.SINE:
        return SIN1 - (c - 1.0)
    if f is Family.LUNE:
        return 1.0 - SQRT2 + c
    if f is Family.RATIONAL_R:
        return c - 2.0 * (SQRT2 - 1.0)
    if f is Family.RATIONAL_RL:
        if abs(SQRT2 - c) > 1.0:
            return 0.0
        t2 = 1.0 - (SQRT2 - c) ** 2
        return math.sqrt(math.sqrt(t2) - t2)
    if f is Family.STRONGLY_STARLIKE:
        return c * math.sin(0.5 * math.pi * t.gamma)
    if f is Family.NEPHROID:
        return 5.0 / 3.0 - c
    if f is Family.SIGMOID_SG:
        return 2.0 * E / (1.0 + E) - c
    raise ParameterError(f"unknown family {f}")
