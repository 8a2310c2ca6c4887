"""Radius-condition assembly for each (class, target) pair and smallest-root
isolation in (0, 1)."""

from __future__ import annotations

from typing import (Callable, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import bounds, regions
from .core import (ClassId, ClassSpec, Family, NoRootError, ParameterError,
                   RadiusCondition, RadiusResult, TargetSpec,
                   UnsupportedCombinationError, Variant, default_target)

_SCAN_STEP, _SCAN_END = 1e-3, 1000  # the grid: k * _SCAN_STEP, 0 < k < _SCAN_END
_U = 2.0 ** -53  # the unit roundoff of a double
# Horner's rule on a quartic errs by at most gamma_8 * sum |c_i| on [0, 1]
# (Higham, Accuracy and Stability of Numerical Algorithms, 5.1), the Bernstein
# coefficients by gamma_10 * sum |c_i|: 2 ** -47 bounds both, 2 ** -1070 underflow.
_HORNER_ERR = 2.0 ** -47
_SLACK = 1.0 + 2.0 ** -40  # raises a bound computed in floats over its rounding
_INF = float("inf")
DEFAULT_TOL = 1e-12
# Members compared on every cell are read as module globals: on Python 3.11
# EnumType has a __getattr__, which keeps a read such as Variant.PRINTED off
# the interpreter's fast attribute path (about 100 ns against 15 ns).
_CORRECTED, _PRINTED_PROOF = Variant.CENTER_CORRECTED, Variant.PRINTED_PROOF


class _Proof:
    """What is proven of h, one instance for each kind of evaluator. The
    solver asks negative_to(cond, x): is float h negative at every point
    of the 1e-3 grid in [0, x]? And step_bound(cond, lo, hi): the rounding
    bound (E, rho) of the step, which _root_window takes. This is the empty
    proof: it proves nothing, so the grid is walked and every midpoint
    evaluated. _QuarticProof and _RLProof prove more; _proof_of picks one."""

    def negative_to(self, cond, x: float) -> bool:
        return False

    def step_bound(self, cond, lo: float, hi: float) -> Tuple[float, float]:
        return _INF, _INF


_NO_PROOF = _Proof()


def _horner_error(c: Tuple[float, ...]) -> float:
    """Bound on the rounding error of Horner's rule, and of the Bernstein
    coefficients, on the quartic of coefficients c anywhere on [0, 1];
    inf where a coefficient is NaN or infinite, or so large that a partial
    sum could overflow, so that no check passes."""
    s = abs(c[0]) + abs(c[1]) + abs(c[2]) + abs(c[3]) + abs(c[4])
    return _HORNER_ERR * s + 2.0 ** -1070 if s < 2.0 ** 1000 else _INF


class _QuarticProof(_Proof):
    """The proof of every polynomial condition, from its coefficients c and
    err = _horner_error(c), infinite where a coefficient is NaN or infinite.
    negative_to(cond, x), x <= 1: the Bernstein coefficients on [0, x] bound
    h above and lie below -err, so Horner's rule is negative in floats on
    all of [0, x]. step_bound: (err, 1), h being its own D = 1 and G, where
    exact h' is proven positive on the step, else (inf, inf). The proof is
    dmin > 0: dmin is h'(lo) by Horner, less 4 err, which bounds its
    rounding, and less the step times a bound on |h''|."""

    def negative_to(self, cond, x):
        c0, c1, c2, c3, c4 = c = cond.coeffs
        x2 = x * x
        a1, a2, a3, a4 = c1 * x, c2 * x2, c3 * (x2 * x), c4 * (x2 * x2)
        bound = -_horner_error(c)
        return (c0 < bound and c0 + a1 / 4.0 < bound
                and c0 + a1 / 2.0 + a2 / 6.0 < bound
                and c0 + 0.75 * a1 + a2 / 2.0 + a3 / 4.0 < bound
                and c0 + a1 + a2 + a3 + a4 < bound)

    def step_bound(self, cond, lo, hi):
        _, c1, c2, c3, c4 = c = cond.coeffs
        err = _horner_error(c)
        dmin = (((4.0 * c4 * lo + 3.0 * c3) * lo + 2.0 * c2) * lo + c1
                - (4.0 * err + (2.0 * abs(c2) + 6.0 * abs(c3) + 12.0 * abs(c4))
                   * (hi - lo)) * _SLACK)
        return (err, 1.0) if dmin > 0.0 else (_INF, _INF)


_QUARTIC_PROOF = _QuarticProof()


def _rl_evaluator(spec: ClassSpec, t: TargetSpec, center_of: Optional[Callable]):
    """h = radius * den - threshold(c) * den on [0, 1), c the disk center or,
    for a reading, center_of(r); the disk map is bound once.
    h = den * G with den > 0 and exact G = radius - threshold strictly
    increasing on [0, 1): the disk radius grows with r, the threshold falls
    as the center grows from 1 to sqrt2, and from sqrt2 on it is 0. So h
    changes sign once, and its float signs on the grid too, as _RLProof
    states: h carries it as h.proof, where _proof_of finds it."""
    disk_at = bounds.disk_map(spec)

    def h(r):
        center, radius, den = disk_at(r)
        c = center if center_of is None else center_of(r)
        thr = regions.containment_threshold(t, c)  # never negative for RL
        return radius * den - thr * den

    h.proof = _RL_PROOF
    return h


class _RLProof(_Proof):
    """The proof of the RL condition, set on _rl_evaluator's evaluator
    alone, where _proof_of finds it on any condition built with that
    evaluator, after _make and _replace too: its grid signs change once,
    and step_bound is (E, rho) on the step [lo, hi]: E bounds
    |fl(h)(x) - H(x)| at every float x of the step, and rho bounds
    den_max / den_min there. H is exact h = N - T(c) D, with N = radius *
    den and D = den exact, T the RL threshold, and the floats m and SQRT2
    taken as exact. E is inf where the center can reach sqrt2 on the step.

    With u = 2^-53, Higham's standard model, a correctly rounded sqrt and
    pow within one ulp (2u), and magnitudes bounded at the step's ends:
    - every reading's center is at most C = (1 + hi^2)/(1 - hi^2); with
      e_min = sqrt2 - C > 0, 1/(1 - x^2) < sqrt2 bounds the relative error
      of 1 - x*x by 1.42u, of the center by 4.42u and of den by 5.42u;
    - the numerator is within 6u N, so radius * den, where den's rounding
      cancels, is within 8.01u N;
    - with e = sqrt2 - c <= sqrt2 - 1 and t2 = 1 - e^2 >= 0.828, the error
      is at most 6.7u in e, 5.9u in e^2, 6.9u in t2, 4.8u in sqrt(t2) and
      11.8u in d = sqrt(t2) - t2; exact d is at least 0.476 e^2, so
      T = sqrt(d) >= 0.69 e_min, and the threshold is within
      18u / e_min + 0.3u of T, T <= 0.286;
    - threshold * den is then within (18u / e_min + 2.3u) D, and the last
      subtraction adds u (N + T D): E = u (10 N + (18 / e_min + 3) D).
    With e the power of the class, e m <= 2 (core.CLASSES), so
    N <= 4x(1 + x)^2 and D <= (1 + x)^2 at x = hi. D is (1 - x^2) X with
    X = x^2 + e m x + 1 at least 1 and growing at most 2(1 + hi) per unit
    of x, so
    rho = (1 - lo^2)/(1 - hi^2) (1 + 2(hi - lo)(1 + hi)). Each bound is
    raised by _SLACK, which covers the rounding of its own evaluation."""

    def negative_to(self, cond, x):
        return True

    def step_bound(self, cond, lo, hi):
        w = 1.0 - hi * hi
        e_min = regions.SQRT2 - (1.0 + hi * hi) / w * _SLACK
        if not e_min > 0.0:
            return _INF, _INF
        n_max, d_max = 4.0 * hi * (1.0 + hi) ** 2, (1.0 + hi) ** 2
        err = (10.0 * n_max + (18.0 / e_min + 3.0) * d_max) * _U + 2.0 ** -1070
        rho = (1.0 - lo * lo) / w * (1.0 + 2.0 * (hi - lo) * (1.0 + hi))
        return err * _SLACK, rho * _SLACK


_RL_PROOF = _RLProof()


def _proof_of(cond: RadiusCondition) -> _Proof:
    """What is proven of cond's h: the quartic proof for coefficients, else
    the proof its evaluator carries (_RL_PROOF on _rl_evaluator's), else
    the empty proof."""
    if cond.coeffs is not None:
        return _QUARTIC_PROOF
    return getattr(cond.evaluator, "proof", _NO_PROOF)


def _reading(class_id: ClassId, fd: regions.FamilyDef,
             policy: Variant) -> Variant:
    """The reading assemble_condition solves: the requested policy where it
    is one of the alternate readings the FamilyDef fd lists for the class,
    and the corrected condition everywhere else."""
    if policy is _CORRECTED or not fd.readings:
        return _CORRECTED
    return policy if policy in fd.readings.get(class_id, ()) else _CORRECTED


def assemble_condition(spec: ClassSpec, t: TargetSpec,
                       policy: Variant = Variant.CENTER_CORRECTED,
                       extended: bool = False) -> RadiusCondition:
    """Build the scalar condition h(r) whose smallest zero in (0, 1) is the
    radius for the given (class, target) pair, tagged with the reading it
    solves (_reading): a quartic, or the composite where the threshold is
    not affine. The printed-proof reading is refused on every cell that
    does not have it."""
    fd = regions.FAMILIES[t.family]
    extrapolation = not fd.stated(spec.class_id, t)
    if extrapolation and not extended:
        raise UnsupportedCombinationError(
            f"target {t.family.value!r} is not stated for g2; "
            "pass extended=True to extrapolate")
    variant = _reading(spec.class_id, fd, policy)
    if policy is _PRINTED_PROOF and variant is not policy:
        raise ParameterError(f"{spec.class_id.value} {t.label()} has no "
                             "printed-proof reading")

    reading = (None if variant is _CORRECTED
               else fd.readings[spec.class_id][variant])
    affine = fd.threshold
    if affine is None:  # RL: the threshold is not affine in the center
        return RadiusCondition(variant, evaluator=_rl_evaluator(spec, t, reading),
                               extrapolation=extrapolation)
    m = spec.coeff_mag
    if reading is None:
        p, q = affine(t)  # unpacked: a star call costs more
        coeffs = bounds.quartic(spec.class_id, m, p, q)
    else:
        coeffs = reading(m)
    return RadiusCondition(variant, coeffs=coeffs, extrapolation=extrapolation)


def _no_root(cond: RadiusCondition, message: str, h0: float) -> NoRootError:
    return NoRootError(message, h0, cond(1.0 - 1e-9))


def _check_tol(tol: float) -> None:
    if not (1e-15 <= tol <= 1e-6):
        raise ParameterError(f"tol={tol!r} outside [1e-15, 1e-6]")


def _first_nonnegative(
        f: Callable[[float], float], h0: float, proof: _Proof,
        cond: RadiusCondition) -> Tuple[int, float, Optional[float]]:
    """The first k in 1 .. 999 with h(k * _SCAN_STEP) not negative, with h
    at the grid point before it (h0 = h(0) where k = 1) and at k, or
    (_SCAN_END, h(0.999), None); f evaluates h. A binary search ends at
    adjacent lo, hi with h negative at lo (or lo = 0) and not at hi: hi is
    the point-by-point walk's answer where proof.negative_to at lo's grid
    point proves h negative at every grid point up to it; else it walks."""
    lo, hi, h_lo, h_hi = 0, _SCAN_END, h0, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        h = f(mid * _SCAN_STEP)
        if h < 0.0:
            lo, h_lo = mid, h
        else:
            hi, h_hi = mid, h
    if not proof.negative_to(cond, lo * _SCAN_STEP):
        h_lo = h0
        for k in range(1, hi):  # the walk
            h = f(k * _SCAN_STEP)
            if not h < 0.0:
                return k, h_lo, h
            h_lo = h
    return hi, h_lo, h_hi


def _root_window(f: Callable[[float], float], lo: float, hi: float,
                 h_lo: float, h_hi: float, err: float,
                 rho: float) -> Tuple[float, float]:
    """A window (a, b) in the step [lo, hi] outside which the float sign of
    h is proven: negative on [lo, a], positive on [b, hi]; f evaluates h,
    h_lo and h_hi are h at lo and hi, and (err, rho) = (E, rho) is the
    step's rounding bound, which the condition's proof states (step_bound).

    The bound states that on the step exact h = D G with D > 0, G
    increasing and D_max / D_min <= rho, and that |fl(h) - h| <= E. Then
    float h(a) < -E (1 + rho) puts exact h(a) below -E rho, so for x <= a
    exact h(x) = D(x) G(x) <= D(x) h(a) / D(a) < -E, as D(a) / D(x) <= rho,
    and float h(x) < 0; float h(b) > E (1 + rho) gives float h > 0 on
    [b, hi] alike. Three secant steps from (lo, h_lo) and (hi, h_hi), each
    clamped to the step and the last not evaluated, place x; a and b lie
    2 E (1 + rho) / s either side of it, s the slope of the secant over the
    step, and an end clamped to the step is not evaluated. Where
    h_lo < 0 <= h_hi fails, the bound is infinite or a check at a or b
    fails, (lo, hi)."""
    bound = err * (1.0 + rho)
    if not (h_lo < 0.0 <= h_hi and bound < _INF):
        return lo, hi
    x0, f0, x, fx = lo, h_lo, hi, h_hi
    for i in range(3):
        if fx == f0:
            break
        x0, f0, x = x, fx, x - fx * (x - x0) / (fx - f0)
        x = lo if x < lo else hi if x > hi else x
        if i < 2:
            fx = f(x)
    delta = 2.0 * bound * (hi - lo) / (h_hi - h_lo)
    a, b = x - delta, x + delta
    if (a <= lo or f(a) < -bound) and (b >= hi or f(b) > bound):
        return (a if a > lo else lo), (b if b < hi else hi)
    return lo, hi


def smallest_root_in_01(cond: RadiusCondition,
                        tol: float = DEFAULT_TOL) -> RadiusResult:
    """Locate the least r in (0, 1) with h(r) = 0: the first point of the
    1e-3 grid where h is not negative (_first_nonnegative), then bisection
    of the step before it to width <= tol. It asks _proof_of(cond), not
    cond's kind, what is proven of h: where the grid search may skip the
    walk, and the step's bound from which _root_window proves a root window
    (a, b). Bisection evaluates h only at midpoints inside it, so its
    brackets are those of evaluating every one.
    A NaN value of h is neither negative nor a sign change: it raises
    NoRootError. Every evaluation goes through cond.__call__, bound once
    here: that is cond's evaluator itself, with no frame around it, and
    where a patch wraps RadiusCondition.__call__ on the class it is the
    patch, bound to cond, so a count there sees each one.

    The bracket holds the first float sign change of h, which need not be
    near a root where h touches zero: on the double root of
    (r - 0.3)^2 (r - 0.7) it lies 7.6e-9 below 0.3, where the float h is
    already nonnegative. The window is refused there, as h' is not proven
    positive on the step."""
    _check_tol(tol)
    f = cond.__call__
    h0 = f(0.0)
    if not h0 < 0.0:
        if h0 >= 0.0:
            raise ParameterError(f"condition is nonnegative at r=0 (h(0)={h0!r})")
        raise _no_root(cond, "condition is NaN at r=0.0", h0)

    proof = _proof_of(cond)
    k, h_lo, h_hi = _first_nonnegative(f, h0, proof, cond)
    if k == _SCAN_END:
        raise _no_root(cond, "no sign change in (0, 1)", h0)
    lo, hi = (k - 1) * _SCAN_STEP, k * _SCAN_STEP
    if h_hi != h_hi:
        raise _no_root(cond, f"condition is NaN at r={hi!r}", h0)

    err, rho = proof.step_bound(cond, lo, hi)  # unpacked: a star call costs more
    a, b = _root_window(f, lo, hi, h_lo, h_hi, err, rho)
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        else:
            hm = f(mid)
            if hm < 0.0:
                lo = mid
            elif hm >= 0.0:
                hi = mid
            else:
                raise _no_root(cond, f"condition is NaN at r={mid!r}", h0)
        iterations += 1
    rho = 0.5 * (lo + hi)
    return tuple.__new__(RadiusResult, (rho, abs(f(rho)), (lo, hi),
                                        cond.variant, iterations,
                                        cond.extrapolation))


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
            try:
                res = compute_radius(spec, t, policy, tol, extended)
                # res.variant is the reading assemble_condition solved
                cells.append(tuple.__new__(
                    TableCell, (spec, t, res.variant, res, None, None)))
            except (NoRootError, ParameterError) as exc:
                kind = ("no-root" if isinstance(exc, NoRootError)
                        else "unsupported"
                        if isinstance(exc, UnsupportedCombinationError)
                        else "parameter")
                variant = _reading(class_id, regions.FAMILIES[t.family], policy)
                cells.append(TableCell(spec, t, variant, None, f"ERROR:{kind}",
                                       str(exc)))
    return cells


def supported_targets(class_id: ClassId, **order: float) -> List[TargetSpec]:
    """Declaration-order target list for a class (12 for g1, 9 for g2), with
    the order parameters given and default_target's for the rest."""
    targets = [default_target(f, **order) for f in Family]
    return [t for t in targets if regions.FAMILIES[t.family].stated(class_id, t)]
