"""Independent oracles: disk scans against the exact membership predicate of
each target domain (both the inside and the just-outside scan are gated for
every family), boundary-contact (sharpness) checks at the witness function
of each class for the disk end that the family's threshold fixes, and
variant adjudication for the two internally inconsistent first-class
conditions."""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from . import bounds, regions, solver
from .core import ClassSpec, ParameterError, RadiusResult, TargetSpec, Variant
from .extremal import WITNESSES, log_deriv
from .regions import MAX_SAMPLES

# Disk samples of each containment scan unless the caller gives a count.
N_SAMPLES = 512
# Tolerance of the boundary-contact check at a sharp radius.
_SHARP_TOL = 1e-6


class ScanReport(NamedTuple):
    inside_pass: bool
    inside_witness: Optional[complex]
    outside_pass: bool
    outside_witness: Optional[complex]
    r_inside: float
    r_outside: float

    @property
    def passed(self) -> bool:
        return self.inside_pass and self.outside_pass


class SharpnessReport(NamedTuple):
    applicable: bool
    extremal: Optional[str] = None
    point: Optional[float] = None
    value: Optional[float] = None
    target_value: Optional[float] = None
    ok: Optional[bool] = None
    tol: Optional[float] = None


class VerificationReport(NamedTuple):
    spec: ClassSpec
    target: TargetSpec
    variant: Variant
    rho_used: float
    scan: ScanReport
    sharpness: SharpnessReport


def containment_scan(spec: ClassSpec, t: TargetSpec, rho: float,
                     n_samples: int = N_SAMPLES) -> ScanReport:
    """Criterion 1: the disk bound just inside rho stays in the exact region.
    Criterion 2: just beyond rho a sampled disk point escapes. Both are
    gated for every family."""
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho={rho!r} outside (0, 1)")
    if not (64 <= n_samples <= MAX_SAMPLES):
        raise ParameterError(
            f"n_samples={n_samples} outside [64, {MAX_SAMPLES}]")

    # both circles, just inside and just beyond rho, in one array of
    # 2 * n_samples points and one mask call
    r1 = 0.99 * rho
    r2 = min(1.02 * rho, 0.5 * (1.0 + rho))
    d1 = bounds.disk(spec, r1)
    d2 = bounds.disk(spec, r2)
    n = n_samples
    pts = regions.circle_points(
        ((d1.center, d1.radius), (d2.center, d2.radius)), n)
    mask = regions.membership_mask(t, pts)
    mask1, mask2 = mask[:n], mask[n:]
    inside_pass = bool(mask1.all())
    inside_witness = None if inside_pass else complex(pts[mask1.argmin()])
    outside_pass = not mask2.all()
    outside_witness = complex(pts[n + mask2.argmin()]) if outside_pass else None

    return ScanReport(inside_pass=inside_pass, inside_witness=inside_witness,
                      outside_pass=outside_pass, outside_witness=outside_witness,
                      r_inside=r1, r_outside=r2)


# ---------------------------------------------------------------------------
# Sharpness

def sharpness_check(spec: ClassSpec, t: TargetSpec, rho: float) -> SharpnessReport:
    """Evaluate the boundary-contact functional of the class's witness at
    the end of the disk {|w - c| < R} that the family's threshold
    R = p + q * c puts on the boundary: the left end c - R (-p at q = 1),
    reached at z = +rho, where q > 0; the right end c + R (p at q = -1),
    reached at z = -rho, where q < 0. Not applicable where the family has
    no contact functional, its condition is not stated for the class, or
    the class has no witness for that end."""
    fd = regions.FAMILIES[t.family]
    if fd.contact is None or not fd.stated(spec.class_id, t):
        return SharpnessReport(applicable=False)
    sign = 1 if fd.threshold(t)[1] > 0.0 else -1
    eid = WITNESSES.get((spec.class_id, sign))
    if eid is None:
        return SharpnessReport(applicable=False)
    z = sign * rho
    v = log_deriv(eid, spec.b, z)
    value, target_value = fd.contact(t, v)
    return SharpnessReport(applicable=True, extremal=eid.value, point=z,
                           value=value, target_value=target_value,
                           ok=abs(value - target_value) <= _SHARP_TOL,
                           tol=_SHARP_TOL)


def _report(spec: ClassSpec, t: TargetSpec, res: RadiusResult,
            n_samples: int) -> VerificationReport:
    return VerificationReport(
        spec=spec, target=t, variant=res.variant, rho_used=res.rho,
        scan=containment_scan(spec, t, res.rho, n_samples),
        sharpness=sharpness_check(spec, t, res.rho))


def verify_cell(spec: ClassSpec, t: TargetSpec,
                tol: float = solver.DEFAULT_TOL,
                n_samples: int = N_SAMPLES) -> VerificationReport:
    return _report(spec, t, solver.compute_radius(spec, t, tol=tol), n_samples)


# ---------------------------------------------------------------------------
# Variant adjudication

def adjudicate_variant(spec: ClassSpec,
                       t: TargetSpec) -> Tuple[VerificationReport, ...]:
    """Verify the radius under the corrected reading and under every
    alternate reading of a flagged condition: one report per reading, the
    corrected reading first, then the family's readings in order."""
    readings = regions.FAMILIES[t.family].readings.get(spec.class_id)
    if not readings:
        raise ParameterError(f"{spec.class_id.value} {t.label()} has no "
                             "alternate reading to adjudicate")
    return tuple(
        _report(spec, t, solver.compute_radius(spec, t, var), N_SAMPLES)
        for var in (Variant.CENTER_CORRECTED, *readings))
