"""Point-by-point scan plus bisection for the smallest root in (0, 1), and
the plain Horner loop for a polynomial condition.

Oracles for the tests only: the scan walks the 1e-3 grid one scalar
evaluation at a time until h stops being negative, then bisects, so the
solver's binary search over the grid can be checked against it result for
result and error for error; horner_loop is the evaluation that
RadiusCondition unrolls."""

from radstar.core import NoRootError, ParameterError, RadiusCondition, RadiusResult

SCAN_STEP = 1e-3


def horner_loop(coeffs, r):
    """h(r) for ascending coefficients, one multiply-add per coefficient from
    the highest degree down."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def _no_root(cond, message, h0):
    return NoRootError(message, h0, cond(1.0 - 1e-9))


def first_stop(cond: RadiusCondition):
    """The first k >= 1 with k * SCAN_STEP < 1 at which h(k * SCAN_STEP) is
    not negative, or None where h is negative at all of them."""
    k = 1
    while k * SCAN_STEP < 1.0:
        if not cond(k * SCAN_STEP) < 0.0:
            return k
        k += 1
    return None


def scan_smallest_root(cond: RadiusCondition, tol: float = 1e-12) -> RadiusResult:
    """The least r in (0, 1) with h(r) = 0, by a 1e-3 scan for the first
    sign change followed by bisection to width <= tol; NaN raises."""
    if not (1e-15 <= tol <= 1e-6):
        raise ParameterError(f"tol={tol!r} outside [1e-15, 1e-6]")
    h0 = cond(0.0)
    if not h0 < 0.0:
        if h0 >= 0.0:
            raise ParameterError(f"condition is nonnegative at r=0 (h(0)={h0!r})")
        raise _no_root(cond, "condition is NaN at r=0.0", h0)

    k = first_stop(cond)
    if k is None:
        raise _no_root(cond, "no sign change in (0, 1)", h0)
    lo, hi = (k - 1) * SCAN_STEP, k * SCAN_STEP
    hr = cond(hi)
    if hr != hr:
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
