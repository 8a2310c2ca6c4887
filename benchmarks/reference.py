"""Reference values for the radstar benchmark, computed apart from radstar.

Nothing here imports radstar. Radii are re-derived from the paper's disk
centre, disk radius and containment-threshold formulas and solved at 30
significant digits with mpmath; membership uses exact predicates (closed-form
inverses of the generators); sharpness values come from mpmath
differentiation of the witness functions.

A cell is a tuple ``(cls, m, family, param, variant)``: ``cls`` is "g1" or
"g2", ``m`` the coefficient magnitude, ``family`` the target name as the
radstar CLI spells it, ``param`` the alpha (starlike) or gamma (strongly)
value or None, and ``variant`` "corrected" or "printed".
"""

from __future__ import annotations

import cmath
import functools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np

DPS = 30
SQRT2 = math.sqrt(2.0)
K_RATIONAL = SQRT2 + 1.0

_FLOAT = SimpleNamespace(one=1.0, sqrt=math.sqrt, sin=math.sin, e=math.e,
                         pi=math.pi)
_MP = SimpleNamespace(one=mp.mpf(1), sqrt=mp.sqrt, sin=mp.sin, e=mp.e,
                      pi=mp.pi)


# ---------------------------------------------------------------------------
# The disk inequality of each cell

def disk_center(cls, r):
    """Centre of the disk that holds z f'/f on |z| = r."""
    if cls == "g1":
        return (1 + r * r) / (1 - r * r)
    return 1 / (1 - r * r)


def disk_radius(cls, m, r):
    """Radius of the disk that holds z f'/f on |z| = r."""
    if cls == "g1":
        return 2 * (1 + m) * r * (1 + r) ** 2 / ((1 - r * r) * (r * r + 2 * m * r + 1))
    return (((1 + m) * r ** 3 + (4 + m) * r ** 2 + (1 + m) * r)
            / ((1 - r * r) * (r * r + m * r + 1)))


def _rl_threshold(c, X):
    d = X.sqrt(2) - c
    if abs(d) > 1:
        return 0 * c
    t2 = 1 - d * d
    return X.sqrt(X.sqrt(t2) - t2)


def threshold(family, param, c, X=_FLOAT):
    """Radius of the largest disk centred at c inside the target domain."""
    one, s2 = X.one, X.sqrt(2)
    if family == "starlike":
        return c - param
    if family == "lemniscate":
        return s2 - c
    if family == "parabolic":
        return c - one / 2
    if family == "exponential":
        return c - one / X.e
    if family == "cardioid":
        return c - one / 3
    if family == "sine":
        return 1 + X.sin(one) - c
    if family == "lune":
        return 1 - s2 + c
    if family == "rational":
        return c - 2 * (s2 - 1)
    if family == "rl":
        return _rl_threshold(c, X)
    if family == "strongly":
        return c * X.sin(X.pi * param / 2)
    if family == "nephroid":
        return 5 * one / 3 - c
    if family == "sg":
        return 2 * X.e / (1 + X.e) - c
    raise ValueError(f"unknown family {family!r}")


def _printed_nephroid(m):
    """The g1 nephroid condition as printed (ascending coefficients)."""
    return (-2, 2 * (3 + m), 6 * (2 + m), 2 * (3 + m), 8)


def _printed_proof_nephroid(m):
    """The g1 nephroid condition as its printed proof reads."""
    return (-2, 2 * (3 + m), 15 + 12 * m, 6 + 16 * m, 5)


def condition(cell, r, X=_FLOAT):
    """Disk radius minus containment threshold: negative while the disk at
    radius r lies inside the target domain."""
    cls, m, family, param, variant = cell
    if family == "nephroid" and variant in ("printed", "printed-proof"):
        coeffs = (_printed_nephroid(m) if variant == "printed"
                  else _printed_proof_nephroid(m))
        return sum(c * r ** k for k, c in enumerate(coeffs))
    if family == "rl":
        # the printed g1 reading evaluates the threshold at 1/(1 - r^2)
        c = disk_center("g2" if variant == "printed" else cls, r)
        t = _rl_threshold(c, X)
        return disk_radius(cls, m, r) - (t if t > 0 else 0 * t)
    return disk_radius(cls, m, r) - threshold(family, param, disk_center(cls, r), X)


def sign_changes_at(cell, rho, delta=1e-9):
    """True iff the disk inequality holds just below rho and fails just above."""
    return condition(cell, rho - delta) < 0.0 < condition(cell, rho + delta)


def _smallest_root_01(coeffs_desc):
    roots = mp.polyroots(coeffs_desc, maxsteps=400, extraprec=2 * DPS)
    real = [z.real for z in map(mp.mpc, roots)
            if abs(z.imag) < mp.mpf(10) ** (-DPS // 2) and 0 < z.real < 1]
    if not real:
        raise ArithmeticError("reference condition has no root in (0, 1)")
    return min(real)


def _cleared(cell, r):
    """The condition times its positive denominator: a polynomial in r."""
    cls, m = cell[0], cell[1]
    inner = r * r + (2 * m if cls == "g1" else m) * r + 1
    return condition(cell, r, _MP) * (1 - r * r) * inner


@functools.lru_cache(maxsize=None)
def radius(cell) -> float:
    """The smallest root of the cell's condition in (0, 1)."""
    with mp.workdps(DPS):
        cls, m, family, param, variant = cell
        m = mp.mpf(m)
        cell = (cls, m, family, None if param is None else mp.mpf(param), variant)
        if family == "rl":
            return float(_bracketed_root(cell))
        if family == "nephroid" and variant != "corrected":
            coeffs = (_printed_nephroid(m) if variant == "printed"
                      else _printed_proof_nephroid(m))
            return float(_smallest_root_01(list(reversed(coeffs))))
        # Clearing the positive denominator leaves a polynomial of degree at
        # most 4: interpolate it through five points, confirm at a sixth.
        xs = [mp.mpf(k) / 6 for k in range(6)]
        ys = [_cleared(cell, x) for x in xs]
        vander = mp.matrix([[x ** j for j in range(5)] for x in xs[:5]])
        coeffs = mp.lu_solve(vander, mp.matrix(ys[:5]))
        fit6 = sum(coeffs[j] * xs[5] ** j for j in range(5))
        if abs(fit6 - ys[5]) > mp.mpf(10) ** (-DPS // 2):
            raise ArithmeticError("cleared condition is not a quartic")
        desc = [coeffs[j] for j in range(4, -1, -1)]
        scale = max(abs(c) for c in desc)
        while abs(desc[0]) < scale * mp.mpf(10) ** (-DPS // 2):
            desc.pop(0)
        return float(_smallest_root_01(desc))


def _bracketed_root(cell):
    """First sign change on a 4096-step grid, then bisection in mpmath."""
    grid = np.linspace(0.0, 1.0, 4097)[1:-1]
    cls, m, family, param, variant = cell
    fcell = (cls, float(m), family, param, variant)
    vals = np.array([condition(fcell, float(r)) for r in grid])
    hits = np.flatnonzero(vals >= 0.0)
    if hits.size == 0:
        raise ArithmeticError("reference condition has no root in (0, 1)")
    i = int(hits[0])
    lo = mp.mpf(grid[i - 1]) if i > 0 else mp.mpf(0)
    hi = mp.mpf(grid[i])
    for _ in range(4 * DPS):
        mid = (lo + hi) / 2
        if condition(cell, mid, _MP) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Exact membership

def _min_abs_root2(b, c):
    """Smallest |z| over the roots of z^2 + b z + c = 0 (arrays)."""
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    return np.minimum(np.abs((-b + disc) / 2.0), np.abs((-b - disc) / 2.0))


def contains(family, param, w):
    """Exact interior test for the target domain; w is a complex array."""
    w = np.asarray(w, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "starlike":
            return w.real > param
        if family == "lemniscate":
            return (np.abs(w * w - 1.0) < 1.0) & (w.real > 0.0)
        if family == "parabolic":
            return np.abs(w - 1.0) < w.real
        if family == "exponential":
            return (w != 0) & (np.abs(np.log(w)) < 1.0)
        if family == "cardioid":
            # w = (3 + 4z + 2z^2)/3  <=>  z^2 + 2z + (3 - 3w)/2 = 0
            return _min_abs_root2(2.0, (3.0 - 3.0 * w) / 2.0) < 1.0
        if family == "sine":
            return np.abs(np.arcsin(w - 1.0)) < 1.0
        if family == "lune":
            return np.abs(w * w - 1.0) < 2.0 * np.abs(w)
        if family == "rational":
            k = K_RATIONAL
            return _min_abs_root2(k * w, -k * k * (w - 1.0)) < 1.0
        if family == "rl":
            # left half of the shifted lemniscate (Mendiratta, Nagpal and
            # Ravichandran 2014), the image of the RL generator
            return (np.abs((w - SQRT2) ** 2 - 1.0) < 1.0) & (w.real < SQRT2)
        if family == "strongly":
            return (w != 0) & (np.abs(np.angle(w)) < 0.5 * math.pi * param)
        if family == "nephroid":
            # w = 1 + z - z^3/3  <=>  z^3 - 3z + 3(w - 1) = 0
            comp = np.zeros(w.shape + (3, 3), dtype=complex)
            comp[..., 0, 2] = -3.0 * (w - 1.0)
            comp[..., 1, 0] = 1.0
            comp[..., 1, 2] = 3.0
            comp[..., 2, 1] = 1.0
            return np.min(np.abs(np.linalg.eigvals(comp)), axis=-1) < 1.0
        if family == "sg":
            return (w != 2.0) & (w != 0) & (np.abs(np.log(w / (2.0 - w))) < 1.0)
    raise ValueError(f"unknown family {family!r}")


def scan_points(cls, m, r, n=512):
    """The n points of the disk boundary at radius r, starting at angle 0."""
    th = 2.0 * math.pi * np.arange(n) / n
    return disk_center(cls, r) + disk_radius(cls, m, r) * np.exp(1j * th)


def scan_verdicts(cell, r_inside, r_outside, n=512):
    """(every point inside at r_inside, some point outside at r_outside)."""
    cls, m, family, param, _ = cell
    inside = bool(np.all(contains(family, param, scan_points(cls, m, r_inside, n))))
    escapes = not bool(np.all(contains(family, param, scan_points(cls, m, r_outside, n))))
    return inside, escapes


# ---------------------------------------------------------------------------
# Witness functions and boundary contact

def _witness(eid, b):
    if eid == "f1":
        B = 1 + 2 * b
        return lambda z: z * (1 - z) / ((1 + z) * (1 - 2 * B * z + z * z))
    if eid == "f2":
        B = 1 + 2 * b
        return lambda z: z * (1 + 2 * B * z + z * z) / ((1 + z) ** 3 * (1 - z))
    if eid == "f3":
        C = 1 + 3 * b
        return lambda z: z * (1 + C * z + z * z) / ((1 + z) ** 2 * (1 - z))
    raise ValueError(f"unknown witness {eid!r}")


def contact(family, param, v):
    """(boundary functional of v, its value on the boundary) for the
    sharpness check; v is z f'/f of the witness at the contact point."""
    v = mp.mpc(v)
    if family == "starlike":
        return v.real, mp.mpf(param)
    if family == "lemniscate":
        return abs(v * v - 1), mp.mpf(1)
    if family == "parabolic":
        return v.real, abs(v - 1)
    if family == "exponential":
        return abs(mp.log(v)), mp.mpf(1)
    if family == "cardioid":
        return abs(v), mp.mpf(1) / 3
    if family == "sine":
        return abs(v), 1 + mp.sin(1)
    if family == "rational":
        return abs(v), 2 * (mp.sqrt(2) - 1)
    if family == "nephroid":
        return abs(v), mp.mpf(5) / 3
    if family == "sg":
        return abs(mp.log(v / (2 - v))), mp.mpf(1)
    raise ValueError(f"no contact functional for {family!r}")


@functools.lru_cache(maxsize=None)
def sharpness(eid, b, family, param, z):
    """(functional value, contact value) at the witness point z."""
    with mp.workdps(DPS):
        f = _witness(eid, mp.mpf(b))
        z = mp.mpf(z)
        v = z * mp.diff(f, z) / f(z)
        value, target = contact(family, param, v)
        return float(value), float(target)


def cardioid_generator(theta):
    """The cardioid domain's boundary point for the angle theta."""
    z = cmath.exp(1j * theta)
    return (3.0 + 4.0 * z + 2.0 * z * z) / 3.0


G1_CLOSED_FORM = 2.0 - math.sqrt(3.0)  # g1, b = -1, starlike of order 0
