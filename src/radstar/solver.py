"""Radius-condition assembly for each (class, target) pair and smallest-root
isolation in (0, 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import bounds, regions
from .core import (ClassId, ClassSpec, ConditionKind, Family, NoRootError,
                   ParameterError, RadiusCondition, RadiusResult, TargetSpec,
                   UnsupportedCombinationError, Variant, default_target)

_SCAN_STEP = 1e-3
# the scan points k * _SCAN_STEP for k = 1 .. 999, each the same float as
# that product
_GRID = np.arange(1, 1000) * _SCAN_STEP
# Every radius is at most sqrt2 - 1 (g2 starlike at m = 0), so the scan
# evaluates the first half of the grid, r <= 0.5, and the second half only
# where h is negative on all of the first. Each half with its first index.
_HALVES = ((0, _GRID[:500]), (500, _GRID[500:]))
DEFAULT_TOL = 1e-12


def _stated(class_id: ClassId, t: TargetSpec, fd: regions.FamilyDef) -> bool:
    """True where the radius condition is established for the class; every
    other cell is an extrapolation and needs the extended flag. fd is the
    FamilyDef of the target's family."""
    return (class_id in fd.classes
            or (t.family is Family.STARLIKE_ORDER and t.alpha == 0.0))


def _rl_evaluator(spec: ClassSpec, t: TargetSpec, printed_center: bool):
    def h(r):
        d = bounds.disk(spec, r)
        c = 1.0 / (1.0 - r * r) if printed_center else d.center
        thr = regions.containment_threshold(t, c)  # never negative for RL
        return d.radius * d.den - thr * d.den

    return h


def _reading(class_id: ClassId, fd: regions.FamilyDef,
             policy: Variant) -> Variant:
    """The reading assemble_condition solves: the requested policy where it
    is one of the alternate readings the FamilyDef fd lists for the class,
    and the corrected condition everywhere else."""
    readings = fd.readings.get(class_id, ())
    return policy if policy in readings else Variant.CENTER_CORRECTED


def assemble_condition(spec: ClassSpec, t: TargetSpec,
                       policy: Variant = Variant.CENTER_CORRECTED,
                       extended: bool = False) -> RadiusCondition:
    """Build the scalar condition h(r) whose smallest zero in (0, 1) is the
    radius for the given (class, target) pair, tagged with the reading it
    solves (_reading). The printed-proof reading is refused on
    every cell that does not have it."""
    fd = regions.FAMILIES[t.family]
    extrapolation = not _stated(spec.class_id, t, fd)
    if extrapolation and not extended:
        raise UnsupportedCombinationError(
            f"target {t.family.value!r} is not stated for g2; "
            "pass extended=True to extrapolate")
    variant = _reading(spec.class_id, fd, policy)
    if policy is Variant.PRINTED_PROOF and variant is not policy:
        raise ParameterError(f"{spec.class_id.value} {t.label()} has no "
                             "printed-proof reading")

    affine = fd.threshold
    if affine is None:  # RL: the threshold is not affine in the center
        printed_center = variant is not Variant.CENTER_CORRECTED
        return RadiusCondition(ConditionKind.COMPOSITE, variant,
                               evaluator=_rl_evaluator(spec, t, printed_center),
                               extrapolation=extrapolation)

    m = spec.coeff_mag
    if variant is Variant.PRINTED:  # first alternate reading of g1 nephroid
        coeffs = (-2.0, 2.0 * (3.0 + m), 6.0 * (2.0 + m), 2.0 * (3.0 + m), 8.0)
    elif variant is Variant.PRINTED_PROOF:
        # second alternate reading, derived with the uncorrected center
        coeffs = (-2.0, 2.0 * (3.0 + m), 15.0 + 12.0 * m, 6.0 + 16.0 * m, 5.0)
    else:
        coeffs = bounds.quartic(spec.class_id, m, *affine(t))
    return RadiusCondition(ConditionKind.POLYNOMIAL, variant, coeffs=coeffs,
                           extrapolation=extrapolation)


def _no_root(cond: RadiusCondition, message: str, h0: float) -> NoRootError:
    return NoRootError(message, h0, cond(1.0 - 1e-9))


def _check_tol(tol: float) -> None:
    if not (1e-15 <= tol <= 1e-6):
        raise ParameterError(f"tol={tol!r} outside [1e-15, 1e-6]")


def smallest_root_in_01(cond: RadiusCondition,
                        tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the least r in (0, 1) with h(r) = 0: h on the 1e-3 grid, one
    half at a time, gives the first grid point where h is not negative, and
    bisection of the step before it narrows the bracket to width <= tol. A
    NaN value of h is neither negative nor a sign change: it raises
    NoRootError."""
    _check_tol(tol)
    h0 = cond(0.0)
    if not h0 < 0.0:
        if h0 >= 0.0:
            raise ParameterError(f"condition is nonnegative at r=0 (h(0)={h0!r})")
        raise _no_root(cond, "condition is NaN at r=0.0", h0)

    for start, grid in _HALVES:
        h = cond(grid)
        k = int((h < 0.0).argmin())  # first grid point where h is not negative
        if not h[k] < 0.0:
            break
    else:
        raise _no_root(cond, "no sign change in (0, 1)", h0)
    lo, hi = (start + k) * _SCAN_STEP, (start + k + 1) * _SCAN_STEP
    if h[k] != h[k]:
        raise _no_root(cond, f"condition is NaN at r={hi!r}", h0)

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
                   tol: float = DEFAULT_TOL,
                   extended: bool = False) -> RadiusResult:
    """The radius of the cell to within tol, refused where tol does not
    resolve it: a bracket wider than a thousandth of its lower end."""
    res = smallest_root_in_01(assemble_condition(spec, t, policy, extended), tol)
    lo, hi = res.bracket
    if hi - lo > 1e-3 * lo:
        raise ParameterError(f"radius {res.rho!r} is below what tol={tol!r} "
                             "resolves")
    return res


@dataclass(frozen=True)
class TableCell:
    spec: ClassSpec
    target: TargetSpec
    variant: Variant  # the reading the cell solved, or would have solved
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
                 tol: float = DEFAULT_TOL,
                 extended: bool = False) -> List[TableCell]:
    """Radius for each (b, target) cell; per-cell errors are recorded in the
    cell instead of aborting; a tol outside its range raises before any
    cell. Rows come out b-ascending, targets in order."""
    _check_tol(tol)
    specs = sorted(specs, key=lambda s: s.b)
    cells: List[TableCell] = []
    for spec in specs:
        if spec.class_id is not class_id:
            raise ParameterError("spec/class mismatch in radius_table")
        for t in targets:
            variant = _reading(class_id, regions.FAMILIES[t.family], policy)
            try:
                res = compute_radius(spec, t, policy, tol, extended)
                cells.append(TableCell(spec, t, variant, res, None))
            except NoRootError:
                cells.append(TableCell(spec, t, variant, None, "ERROR:no-root"))
            except ParameterError as exc:
                kind = ("unsupported" if isinstance(exc, UnsupportedCombinationError)
                        else "parameter")
                cells.append(TableCell(spec, t, variant, None, f"ERROR:{kind}"))
    return cells


def supported_targets(class_id: ClassId, **order: float) -> List[TargetSpec]:
    """Declaration-order target list for a class (12 for g1, 9 for g2), with
    the order parameters given and default_target's for the rest."""
    targets = [default_target(f, **order) for f in Family]
    return [t for t in targets if _stated(class_id, t, regions.FAMILIES[t.family])]
