"""Radius-condition assembly for each (class, target) pair and smallest-root
isolation in (0, 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from . import bounds, regions
from .core import (ClassId, ClassSpec, ConditionKind, Family, NoRootError,
                   ParameterError, RadiusCondition, RadiusResult, TargetSpec,
                   UnsupportedCombinationError, Variant, default_target)

_SCAN_STEP = 1e-3
_DEFAULT_TOL = 1e-12


def _stated(class_id: ClassId, t: TargetSpec) -> bool:
    """True where the radius condition is established for the class; every
    other G2 cell is an extrapolation and needs the extended flag."""
    return (class_id is ClassId.G1 or regions.FAMILIES[t.family].g2
            or (t.family is Family.STARLIKE_ORDER and t.alpha == 0.0))


def _poly_mul(a: Sequence[float], b: Sequence[float]) -> List[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: Sequence[float], b: Sequence[float]) -> List[float]:
    n = max(len(a), len(b))
    out = [0.0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _g1_polynomial(m: float, p: float, q: float) -> Tuple[float, ...]:
    # h = N - p*(1-r^2)(r^2+2mr+1) - q*(1+r^2)(r^2+2mr+1), ascending coeffs
    n_coeffs = [0.0, 2.0 * (1.0 + m), 4.0 * (1.0 + m), 2.0 * (1.0 + m), 0.0]
    x = [1.0, 2.0 * m, 1.0]
    a = _poly_mul([1.0, 0.0, -1.0], x)
    b = _poly_mul([1.0, 0.0, 1.0], x)
    h = _poly_sub(n_coeffs, [p * v for v in a])
    h = _poly_sub(h, [q * v for v in b])
    return tuple(h)


def _g2_polynomial(m: float, p: float, q: float) -> Tuple[float, ...]:
    # h = N2 - p*(1-r^2)(r^2+mr+1) - q*(r^2+mr+1)
    n_coeffs = [0.0, 1.0 + m, 4.0 + m, 1.0 + m, 0.0]
    x = [1.0, m, 1.0]
    a = _poly_mul([1.0, 0.0, -1.0], x)
    h = _poly_sub(n_coeffs, [p * v for v in a])
    h = _poly_sub(h, [q * v for v in x])
    return tuple(h)


def _rl_evaluator(spec: ClassSpec, t: TargetSpec, printed_center: bool):
    m = spec.coeff_mag
    g1 = spec.class_id is ClassId.G1

    def h(r: float) -> float:
        d = bounds.disk(spec, r)
        c = 1.0 / (1.0 - r * r) if printed_center else d.center
        thr = max(regions.containment_threshold(t, c), 0.0)
        if g1:
            den = (1.0 - r * r) * (r * r + 2.0 * m * r + 1.0)
        else:
            den = (1.0 - r * r) * (r * r + m * r + 1.0)
        return d.radius * den - thr * den

    return h


def assemble_condition(spec: ClassSpec, t: TargetSpec,
                       policy: Variant = Variant.CENTER_CORRECTED,
                       extended: bool = False) -> RadiusCondition:
    """Build the scalar condition h(r) whose smallest zero in (0, 1) is the
    radius for the given (class, target) pair."""
    extrapolation = not _stated(spec.class_id, t)
    if extrapolation and not extended:
        raise UnsupportedCombinationError(
            f"target {t.family.value!r} is not stated for g2; "
            "pass extended=True to extrapolate")

    m = spec.coeff_mag
    g1 = spec.class_id is ClassId.G1
    affine = regions.FAMILIES[t.family].threshold

    if affine is None:  # RL: the threshold is not affine in the center
        printed_center = g1 and policy is not Variant.CENTER_CORRECTED
        return RadiusCondition(ConditionKind.COMPOSITE, policy,
                               evaluator=_rl_evaluator(spec, t, printed_center),
                               extrapolation=extrapolation)

    if g1 and t.family is Family.NEPHROID and policy is not Variant.CENTER_CORRECTED:
        if policy is Variant.PRINTED:
            # first alternate reading of this flagged condition
            coeffs = (-2.0, 2.0 * (3.0 + m), 6.0 * (2.0 + m),
                      2.0 * (3.0 + m), 8.0)
        else:
            # second alternate reading, derived with the uncorrected center
            coeffs = (-2.0, 2.0 * (3.0 + m), 15.0 + 12.0 * m,
                      6.0 + 16.0 * m, 5.0)
        return RadiusCondition(ConditionKind.POLYNOMIAL, policy, coeffs=coeffs)

    if policy is Variant.PRINTED_PROOF:
        raise ParameterError("printed-proof variant exists only for g1 nephroid")

    p, q = affine(t)
    coeffs = _g1_polynomial(m, p, q) if g1 else _g2_polynomial(m, p, q)
    return RadiusCondition(ConditionKind.POLYNOMIAL, policy, coeffs=coeffs,
                           extrapolation=extrapolation)


def _no_root(cond: RadiusCondition, message: str, h0: float) -> NoRootError:
    return NoRootError(message, h0, cond(1.0 - 1e-9))


def smallest_root_in_01(cond: RadiusCondition,
                        tol: float = _DEFAULT_TOL) -> RadiusResult:
    """Locate the least r in (0, 1) with h(r) = 0 by a 1e-3 scan for the
    first sign change followed by bisection to width <= tol. A NaN value of h
    is neither negative nor a sign change: it raises NoRootError."""
    if not (1e-15 <= tol <= 1e-6):
        raise ParameterError(f"tol={tol!r} outside [1e-15, 1e-6]")
    h0 = cond(0.0)
    if not h0 < 0.0:
        if h0 >= 0.0:
            raise ParameterError(f"condition is nonnegative at r=0 (h(0)={h0!r})")
        raise _no_root(cond, "condition is NaN at r=0.0", h0)

    lo, hlo = 0.0, h0
    hi = None
    k = 1
    while k * _SCAN_STEP < 1.0:
        r = k * _SCAN_STEP
        hr = cond(r)
        if not hr < 0.0:
            if hr != hr:
                raise _no_root(cond, f"condition is NaN at r={r!r}", h0)
            lo, hi, hhi = (k - 1) * _SCAN_STEP, r, hr
            break
        lo, hlo = r, hr
        k += 1
    if hi is None:
        raise _no_root(cond, "no sign change in (0, 1)", h0)

    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        hm = cond(mid)
        if hm < 0.0:
            lo = mid
        elif hm >= 0.0:
            hi = mid
        else:
            raise _no_root(cond, f"condition is NaN at r={mid!r}", h0)
        iterations += 1
    rho = 0.5 * (lo + hi)
    return RadiusResult(rho=rho, residual=abs(cond(rho)), bracket=(lo, hi),
                       variant=cond.variant, iterations=iterations,
                       extrapolation=cond.extrapolation)


def compute_radius(spec: ClassSpec, t: TargetSpec,
                   policy: Variant = Variant.CENTER_CORRECTED,
                   tol: float = _DEFAULT_TOL,
                   extended: bool = False) -> RadiusResult:
    return smallest_root_in_01(assemble_condition(spec, t, policy, extended), tol)


@dataclass(frozen=True)
class TableCell:
    spec: ClassSpec
    target: TargetSpec
    result: Optional[RadiusResult]
    error: Optional[str]

    @property
    def status(self) -> str:
        if self.error is not None:
            return self.error
        if self.result.extrapolation:
            return "EXTRAPOLATION"
        return "OK"


def radius_table(class_id: ClassId, specs: Iterable[ClassSpec],
                 targets: Sequence[TargetSpec],
                 policy: Variant = Variant.CENTER_CORRECTED,
                 tol: float = _DEFAULT_TOL,
                 extended: bool = False) -> List[TableCell]:
    """Radius for each (b, target) cell; per-cell errors are recorded in the
    cell instead of aborting. Rows come out b-ascending, targets in order."""
    specs = sorted(specs, key=lambda s: s.b)
    cells: List[TableCell] = []
    for spec in specs:
        if spec.class_id is not class_id:
            raise ParameterError("spec/class mismatch in radius_table")
        for t in targets:
            try:
                res = compute_radius(spec, t, policy, tol, extended)
                cells.append(TableCell(spec, t, res, None))
            except NoRootError:
                cells.append(TableCell(spec, t, None, "ERROR:no-root"))
            except ParameterError as exc:
                kind = ("unsupported" if isinstance(exc, UnsupportedCombinationError)
                        else "parameter")
                cells.append(TableCell(spec, t, None, f"ERROR:{kind}"))
    return cells


def supported_targets(class_id: ClassId, alpha: float = 0.0,
                      gamma: float = 0.5) -> List[TargetSpec]:
    """Declaration-order target list for a class (12 for G1, 9 for G2)."""
    targets = [default_target(f, alpha=alpha, gamma=gamma) for f in Family]
    return [t for t in targets if _stated(class_id, t)]
