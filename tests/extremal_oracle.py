"""Values of the extremal functions and of their Schwarz functions.

An oracle for the tests only: radstar needs the witnesses only through
radstar.extremal.log_deriv, and the tests check that derivative, the
Taylor coefficients and the subordination identities against these
values."""

from radstar.core import ParameterError, coefficient
from radstar.extremal import _CLASS_OF, ExtremalId, _safe_div


def eval_extremal(eid: ExtremalId, b: float, z: complex) -> complex:
    """Value of the extremal function at z."""
    B = coefficient(_CLASS_OF[eid], b)
    z = complex(z)
    if eid is ExtremalId.F1:
        return _safe_div(z - z * z, (1.0 + z) * (1.0 - 2.0 * B * z + z * z))
    if eid is ExtremalId.F2:
        return _safe_div(z * (1.0 + 2.0 * B * z + z * z),
                         (1.0 + z) ** 2 * (1.0 - z * z))
    return _safe_div(z * (1.0 + B * z + z * z), (1.0 + z) * (1.0 - z * z))


def schwarz_eval(index: int, b: float, z: complex) -> complex:
    """The Schwarz function paired with each extremal function; w(0) = 0."""
    eid = {1: ExtremalId.F1, 2: ExtremalId.F2, 3: ExtremalId.F3}.get(index)
    if eid is None:
        raise ParameterError(f"schwarz index must be 1, 2 or 3, got {index!r}")
    B = coefficient(_CLASS_OF[eid], b)
    z = complex(z)
    if eid is ExtremalId.F1:
        return _safe_div(z * (z - B), 1.0 - B * z)
    if eid is ExtremalId.F2:
        return _safe_div(z * (z + B), 1.0 + B * z)
    return _safe_div(z * (z + B / 2.0), 1.0 + B * z / 2.0)
