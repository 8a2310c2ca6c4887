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
    """The containment scans of a radius: the first sampled point of the
    disk bound at r_inside, just inside rho, and at r_outside, just beyond
    it, that leaves the exact region, None where none does. inside_pass,
    outside_pass and passed are derived: the inside scan passes where it
    finds no such point, the just-outside scan where it finds one."""

    inside_witness: Optional[complex]
    outside_witness: Optional[complex]
    r_inside: float
    r_outside: float

    @property
    def inside_pass(self) -> bool:
        return self.inside_witness is None

    @property
    def outside_pass(self) -> bool:
        return self.outside_witness is not None

    @property
    def passed(self) -> bool:
        return self.inside_pass and self.outside_pass


class SharpnessReport(NamedTuple):
    """A boundary-contact check: the witness (extremal), the point it is
    evaluated at, and the contact functional's value there and on the
    boundary; SharpnessReport(), all None, where the check does not apply.
    Derived: applicable, where a witness is named, and ok, None where not
    applicable, else whether value lies within tol of target_value."""

    extremal: Optional[str] = None
    point: Optional[float] = None
    value: Optional[float] = None
    target_value: Optional[float] = None

    tol = _SHARP_TOL

    @property
    def applicable(self) -> bool:
        return self.extremal is not None

    @property
    def ok(self) -> Optional[bool]:
        return (None if self.extremal is None
                else abs(self.value - self.target_value) <= self.tol)


class VerificationReport(NamedTuple):
    """The checks of one cell's radius: the RadiusResult they checked and
    the scan and sharpness reports of its rho. variant and rho_used are
    derived from that result, so a report holds no reading or radius that
    its result did not solve."""

    spec: ClassSpec
    target: TargetSpec
    result: RadiusResult
    scan: ScanReport
    sharpness: SharpnessReport

    @property
    def variant(self) -> Variant:
        return self.result.variant

    @property
    def rho_used(self) -> float:
        return self.result.rho


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

    # both circles, just inside and just beyond rho, block by block: each
    # block is samples k0 <= k < k1 of both, in one array and one mask call
    r1 = 0.99 * rho
    r2 = min(1.02 * rho, 0.5 * (1.0 + rho))
    d1 = bounds.disk(spec, r1)
    d2 = bounds.disk(spec, r2)
    circles = ((d1.center, d1.radius), (d2.center, d2.radius))
    n, block = n_samples, regions.SCAN_BLOCK
    inside = outside = None
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        pts = regions.circle_points(circles, n, k0, k1)
        mask = regions.membership_mask(t, pts)
        i = mask.argmin()  # the block's first point outside the region
        if mask[i]:
            continue
        m = k1 - k0
        if i < m:  # on the inside circle: the escape is in the outside half
            if inside is None:
                inside = complex(pts[i])
            i = m + mask[m:].argmin()
        if outside is None and not mask[i]:
            outside = complex(pts[i])
        if inside is not None and outside is not None:
            break
    return ScanReport(inside, outside, r1, r2)


# ---------------------------------------------------------------------------
# Sharpness

def sharpness_check(spec: ClassSpec, t: TargetSpec, rho: float) -> SharpnessReport:
    """Evaluate the boundary-contact functional of the class's witness at
    the end of the disk {|w - c| < R} that the family's threshold
    R = p + q * c puts on the boundary: the left end c - R (-p at q = 1),
    reached at z = +rho, where q > 0; the right end c + R (p at q = -1),
    reached at z = -rho, where q < 0. Not applicable where the family has
    no contact functional, its condition is not stated for the class, or
    the class has no witness for that end. Refuses rho outside (0, 1)."""
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho={rho!r} outside (0, 1)")
    fd = regions.FAMILIES[t.family]
    if fd.contact is None or not fd.stated(spec.class_id, t):
        return SharpnessReport()
    sign = 1 if fd.threshold(t)[1] > 0.0 else -1
    eid = WITNESSES.get((spec.class_id, sign))
    if eid is None:
        return SharpnessReport()
    z = sign * rho
    v = log_deriv(eid, spec.b, z)
    value, target_value = fd.contact(t, v)
    return SharpnessReport(eid.value, z, value, target_value)


def _report(spec: ClassSpec, t: TargetSpec, res: RadiusResult,
            n_samples: int) -> VerificationReport:
    rho = res.rho
    return VerificationReport(spec, t, res,
                              containment_scan(spec, t, rho, n_samples),
                              sharpness_check(spec, t, rho))


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
