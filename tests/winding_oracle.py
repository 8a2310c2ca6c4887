"""Winding-number membership against a sampled closed curve.

An oracle for the tests only: it classifies a point by the total argument
change of the curve about it, independently of the closed-form predicates in
radstar.regions, so the two can be checked against each other."""

import math

import numpy as np

_BOUNDARY_EPS = 1e-9
_WINDING_TOL = 1e-3


class IndeterminateWindingError(RuntimeError):
    """The point lies too close to the sampled curve to classify."""


def _winding_sum(boundary: np.ndarray, w: complex) -> float:
    v = boundary - w
    d = np.diff(np.angle(v))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    total = float(np.sum(d))
    if abs(boundary[0] - boundary[-1]) > 1e-12:
        total += math.remainder(np.angle(v[0]) - np.angle(v[-1]), 2.0 * math.pi)
    return total


def winding_contains(boundary, w: complex) -> bool:
    """True iff the total argument change of the closed sampled curve about w
    is 2*pi (within 1e-3 of a full turn)."""
    boundary = np.asarray(boundary, dtype=complex)
    if np.min(np.abs(boundary - w)) < _BOUNDARY_EPS:
        raise IndeterminateWindingError(f"point {w} lies on a boundary sample")
    total = _winding_sum(boundary, w)
    if abs(total - 2.0 * math.pi) <= _WINDING_TOL:
        return True
    if abs(total) <= _WINDING_TOL:
        return False
    raise IndeterminateWindingError(
        f"winding sum {total:.6f} resolves to neither 0 nor 2*pi for {w}")
