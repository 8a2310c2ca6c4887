"""Radius-condition assembly for each (class, target) pair and smallest-root
isolation in (0, 1)."""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import bounds, regions
from .core import (ClassId, ClassSpec, ConditionKind, Family, NoRootError,
                   ParameterError, RadiusCondition, RadiusResult, TargetSpec,
                   UnsupportedCombinationError, Variant, default_target)

_SCAN_STEP, _SCAN_END = 1e-3, 1000  # the grid: k * _SCAN_STEP, 0 < k < _SCAN_END
# Horner's rule on a quartic errs by at most gamma_8 * sum |c_i| on [0, 1]
# (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), the Bernstein
# coefficients by gamma_10 * sum |c_i|: 2 ** -47 bounds both, 2 ** -1070 underflow.
_HORNER_ERR = 2.0 ** -47
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
        # one sign change on the grid, in floats too: the disk radius grows
        # with r, the threshold falls as the center grows from 1 to sqrt2,
        # and from sqrt2 on it is 0 while the radius is positive
        return RadiusCondition(ConditionKind.COMPOSITE, variant,
                               evaluator=_rl_evaluator(spec, t, printed_center),
                               extrapolation=extrapolation, monotone_signs=True)

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


def _padded(coeffs: Tuple[float, ...]) -> Tuple[float, ...]:
    return tuple(coeffs) + (0.0,) * (5 - len(coeffs))


def _horner_error(c: Tuple[float, ...]) -> float:
    """Bound on the rounding error of Horner's rule, and of the Bernstein
    coefficients, on the quartic of padded coefficients c anywhere on [0, 1];
    inf where a coefficient is NaN or infinite, or so large that a partial
    sum could overflow, so that no check passes."""
    s = abs(c[0]) + abs(c[1]) + abs(c[2]) + abs(c[3]) + abs(c[4])
    return _HORNER_ERR * s + 2.0 ** -1070 if s < 2.0 ** 1000 else float("inf")


def _certified_negative(coeffs: Tuple[float, ...], x: float) -> bool:
    """True where Horner's rule on the quartic of ascending coefficients
    coeffs is negative in floats on all of [0, x], x <= 1: its Bernstein
    coefficients on [0, x] bound it above and lie below minus the rounding
    error. A NaN or infinite coefficient is never certified."""
    c0, c1, c2, c3, c4 = c = _padded(coeffs)
    x2 = x * x
    a1, a2, a3, a4 = c1 * x, c2 * x2, c3 * (x2 * x), c4 * (x2 * x2)
    bound = -_horner_error(c)
    return (c0 < bound and c0 + a1 / 4.0 < bound
            and c0 + a1 / 2.0 + a2 / 6.0 < bound
            and c0 + 0.75 * a1 + a2 / 2.0 + a3 / 4.0 < bound
            and c0 + a1 + a2 + a3 + a4 < bound)


def _first_nonnegative(cond: RadiusCondition) -> Tuple[int, Optional[float]]:
    """The first k in 1 .. 999 with h(k * _SCAN_STEP) not negative, and that
    value, or (_SCAN_END, None). A binary search ends at adjacent lo, hi with
    h negative at lo (or lo = 0) and not at hi: hi is the point-by-point
    walk's answer where h is proven negative at every grid point up to lo."""
    lo, hi, h_hi = 0, _SCAN_END, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        h = cond(mid * _SCAN_STEP)
        if h < 0.0:
            lo = mid
        else:
            hi, h_hi = mid, h
    if not (cond.monotone_signs or (
            cond.kind is ConditionKind.POLYNOMIAL
            and _certified_negative(cond.coeffs, lo * _SCAN_STEP))):
        for k in range(1, hi):  # the walk
            h = cond(k * _SCAN_STEP)
            if not h < 0.0:
                return k, h
    return hi, h_hi


def _root_window(cond: RadiusCondition, lo: float,
                 hi: float) -> Tuple[float, float]:
    """A window (a, b) in the step [lo, hi] of the polynomial condition cond
    outside which the float sign of h is proven: negative on [lo, a],
    positive on [b, hi]. With E the Horner error bound, exact h' is at least
    dmin > 4E on the step (h'(lo) by Horner, less 4E, which bounds its
    rounding, and less the step times a bound on |h''|), so exact h
    increases there and float h' stays positive. Three Newton steps from the
    midpoint, clamped to the step, give x; a and b lie 4E/dmin either side
    of it, clamped to lo and hi, and float h(a) < -2E, h(b) > 2E put exact h
    below -E up to a and above E from b. Where any check fails, (lo, hi)."""
    c0, c1, c2, c3, c4 = c = _padded(cond.coeffs)
    err = _horner_error(c)
    d2, d3, d4 = 2.0 * c2, 3.0 * c3, 4.0 * c4
    dmin = (((d4 * lo + d3) * lo + d2) * lo + c1
            - (4.0 * err + (2.0 * abs(c2) + 6.0 * abs(c3) + 12.0 * abs(c4))
               * (hi - lo)) * (1.0 + 2.0 ** -40))  # the slack covers rounding
    if not dmin > 4.0 * err:
        return lo, hi
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x -= cond(x) / (((d4 * x + d3) * x + d2) * x + c1)
        x = lo if x < lo else hi if x > hi else x
    delta = 4.0 * err / dmin
    a, b = x - delta, x + delta
    if ((a <= lo or cond(a) < -2.0 * err)
            and (b >= hi or cond(b) > 2.0 * err)):
        return (a if a > lo else lo), (b if b < hi else hi)
    return lo, hi


def smallest_root_in_01(cond: RadiusCondition,
                        tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the least r in (0, 1) with h(r) = 0: the first point of the
    1e-3 grid where h is not negative (_first_nonnegative), then bisection
    of the step before it to width <= tol. On a quartic the bisection
    evaluates h only at midpoints inside _root_window's (a, b), and takes
    the sign proven there everywhere else, so its brackets are those of
    evaluating every midpoint. A NaN value of h is neither negative nor a
    sign change: it raises NoRootError.

    The bracket holds the first float sign change of h, which need not be
    near a root where h touches zero: on the double root of
    (r - 0.3)^2 (r - 0.7) it lies 7.6e-9 below 0.3, where the float h is
    already nonnegative. The window is refused there, as h' is not proven
    positive on the step."""
    _check_tol(tol)
    h0 = cond(0.0)
    if not h0 < 0.0:
        if h0 >= 0.0:
            raise ParameterError(f"condition is nonnegative at r=0 (h(0)={h0!r})")
        raise _no_root(cond, "condition is NaN at r=0.0", h0)

    k, hk = _first_nonnegative(cond)
    if k == _SCAN_END:
        raise _no_root(cond, "no sign change in (0, 1)", h0)
    lo, hi = (k - 1) * _SCAN_STEP, k * _SCAN_STEP
    if hk != hk:
        raise _no_root(cond, f"condition is NaN at r={hi!r}", h0)

    a, b = (_root_window(cond, lo, hi) if cond.kind is ConditionKind.POLYNOMIAL
            else (lo, hi))
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
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


class TableCell(NamedTuple):
    spec: ClassSpec
    target: TargetSpec
    variant: Variant  # the reading the cell solved, or would have solved
    result: Optional[RadiusResult]
    error: Optional[str]  # ERROR:no-root, ERROR:unsupported or ERROR:parameter
    message: Optional[str] = None  # the text of the error, None on success

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
            except (NoRootError, ParameterError) as exc:
                kind = ("no-root" if isinstance(exc, NoRootError)
                        else "unsupported"
                        if isinstance(exc, UnsupportedCombinationError)
                        else "parameter")
                cells.append(TableCell(spec, t, variant, None, f"ERROR:{kind}",
                                       str(exc)))
    return cells


def supported_targets(class_id: ClassId, **order: float) -> List[TargetSpec]:
    """Declaration-order target list for a class (12 for g1, 9 for g2), with
    the order parameters given and default_target's for the rest."""
    targets = [default_target(f, **order) for f in Family]
    return [t for t in targets if _stated(class_id, t, regions.FAMILIES[t.family])]
