"""Independent oracles: disk scans against the exact membership predicate of
each target domain (both the inside and the just-outside scan are gated for
every family), boundary-contact (sharpness) checks at the designated witness
functions, and variant adjudication for the two internally inconsistent
first-class conditions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import bounds, regions, solver
from .core import (ClassId, ClassSpec, Family, ParameterError, TargetSpec,
                   Variant)
from .extremal import ExtremalId, log_deriv
from .regions import MAX_SAMPLES


@dataclass(frozen=True)
class ScanReport:
    inside_pass: bool
    inside_witness: Optional[complex]
    outside_pass: bool
    outside_witness: Optional[complex]
    r_inside: float
    r_outside: float


@dataclass(frozen=True)
class SharpnessReport:
    applicable: bool
    extremal: Optional[str] = None
    point: Optional[float] = None
    value: Optional[float] = None
    target_value: Optional[float] = None
    ok: Optional[bool] = None
    tol: Optional[float] = None


@dataclass(frozen=True)
class VerificationReport:
    class_id: ClassId
    b: float
    coeff_mag: float
    target: TargetSpec
    variant: Variant
    rho_used: float
    scan: ScanReport
    sharpness: SharpnessReport

    def to_dict(self) -> dict:
        sc, sh = self.scan, self.sharpness
        return {
            "class": self.class_id.value,
            "b": self.b,
            "coeff_mag": self.coeff_mag,
            "target": self.target.label(),
            "alpha": self.target.alpha,
            "gamma": self.target.gamma,
            "variant": self.variant.value,
            "rho": self.rho_used,
            "inside_scan": {
                "pass": sc.inside_pass,
                "r": sc.r_inside,
                "witness": _cstr(sc.inside_witness),
            },
            "just_outside_scan": {
                "pass": sc.outside_pass,
                "gated": True,
                "r": sc.r_outside,
                "witness": _cstr(sc.outside_witness),
            },
            "sharpness": {
                "applicable": sh.applicable,
                "extremal": sh.extremal,
                "point": sh.point,
                "value": sh.value,
                "target": sh.target_value,
                "ok": sh.ok,
            },
        }


def _cstr(w: Optional[complex]) -> Optional[str]:
    if w is None:
        return None
    return f"{w.real:.15g}{w.imag:+.15g}j"


def _circle_points(center: float, radius: float, n: int) -> np.ndarray:
    th = 2.0 * math.pi * np.arange(n) / n
    return center + radius * np.exp(1j * th)


def containment_scan(spec: ClassSpec, t: TargetSpec, rho: float,
                     n_samples: int = 512) -> ScanReport:
    """Criterion 1: the disk bound just inside rho stays in the exact region.
    Criterion 2: just beyond rho a sampled disk point escapes. Both are
    gated for every family."""
    if not (0.0 < rho < 1.0):
        raise ParameterError(f"rho={rho!r} outside (0, 1)")
    if not (64 <= n_samples <= MAX_SAMPLES):
        raise ParameterError(
            f"n_samples={n_samples} outside [64, {MAX_SAMPLES}]")

    r1 = 0.99 * rho
    d1 = bounds.disk(spec, r1)
    pts1 = _circle_points(d1.center, d1.radius, n_samples)
    mask1 = regions.membership_mask(t, pts1)
    inside_pass = bool(np.all(mask1))
    inside_witness = None if inside_pass else complex(pts1[np.argmin(mask1)])

    r2 = min(1.02 * rho, 0.5 * (1.0 + rho))
    d2 = bounds.disk(spec, r2)
    pts2 = _circle_points(d2.center, d2.radius, n_samples)
    mask2 = regions.membership_mask(t, pts2)
    outside_pass = bool(np.any(~mask2))
    outside_witness = complex(pts2[np.argmin(mask2)]) if outside_pass else None

    return ScanReport(inside_pass=inside_pass, inside_witness=inside_witness,
                      outside_pass=outside_pass, outside_witness=outside_witness,
                      r_inside=r1, r_outside=r2)


# ---------------------------------------------------------------------------
# Sharpness

def sharpness_check(spec: ClassSpec, t: TargetSpec, rho: float) -> SharpnessReport:
    """Evaluate the boundary-contact functional of the witness function at
    the designated point; not-applicable parts return a marker."""
    fd = regions.FAMILIES[t.family]
    entry = fd.sharp.get(spec.class_id)
    if entry is None:
        return SharpnessReport(applicable=False)
    eid, sign, tol = entry
    z = sign * rho
    v = log_deriv(eid, spec.b, z)
    value, target_value = fd.contact(t, v)
    return SharpnessReport(applicable=True, extremal=eid.value, point=z,
                           value=value, target_value=target_value,
                           ok=abs(value - target_value) <= tol, tol=tol)


def verify_cell(spec: ClassSpec, t: TargetSpec,
                policy: Variant = Variant.CENTER_CORRECTED,
                tol: float = 1e-12, n_samples: int = 512,
                extended: bool = False) -> VerificationReport:
    res = solver.compute_radius(spec, t, policy, tol, extended)
    scan = containment_scan(spec, t, res.rho, n_samples)
    sharp = sharpness_check(spec, t, res.rho)
    return VerificationReport(class_id=spec.class_id, b=spec.b,
                              coeff_mag=spec.coeff_mag, target=t,
                              variant=res.variant, rho_used=res.rho,
                              scan=scan, sharpness=sharp)


# ---------------------------------------------------------------------------
# Variant adjudication

@dataclass(frozen=True)
class VariantOutcome:
    variant: Variant
    rho: float
    inside_pass: bool
    outside_pass: bool
    sharpness_value: Optional[float]
    consistent: bool


@dataclass(frozen=True)
class AdjudicationReport:
    class_id: ClassId
    b: float
    target: TargetSpec
    outcomes: Tuple[VariantOutcome, ...]

    @property
    def consistent_variants(self) -> List[Variant]:
        return [o.variant for o in self.outcomes if o.consistent]

    def to_dict(self) -> dict:
        return {
            "class": self.class_id.value,
            "b": self.b,
            "target": self.target.label(),
            "outcomes": [
                {
                    "variant": o.variant.value,
                    "rho": o.rho,
                    "inside_scan_pass": o.inside_pass,
                    "just_outside_scan_pass": o.outside_pass,
                    "sharpness_value": o.sharpness_value,
                    "consistent": o.consistent,
                }
                for o in self.outcomes
            ],
            "consistent_variants": [v.value for v in self.consistent_variants],
        }


def adjudicate_variant(spec: ClassSpec, t: TargetSpec,
                       n_samples: int = 512) -> AdjudicationReport:
    """Compute the radius under every available reading of the flagged
    conditions and report which readings the exact region supports."""
    if spec.class_id is not ClassId.G1 or t.family not in (
            Family.NEPHROID, Family.RATIONAL_RL):
        raise ParameterError("adjudication applies to g1 nephroid and g1 rl only")
    variants = [Variant.CENTER_CORRECTED, Variant.PRINTED]
    if t.family is Family.NEPHROID:
        variants.append(Variant.PRINTED_PROOF)
    outcomes = []
    for var in variants:
        res = solver.compute_radius(spec, t, var)
        scan = containment_scan(spec, t, res.rho, n_samples)
        sharp = sharpness_check(spec, t, res.rho)
        outcomes.append(VariantOutcome(
            variant=var, rho=res.rho, inside_pass=scan.inside_pass,
            outside_pass=scan.outside_pass,
            sharpness_value=sharp.value if sharp.applicable else None,
            consistent=bool(scan.inside_pass and scan.outside_pass)))
    return AdjudicationReport(spec.class_id, spec.b, t, tuple(outcomes))


# ---------------------------------------------------------------------------
# Class membership sampling

def _disk_samples(n: int, seed: int = 12345, radius: float = 0.999) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * th)


def class_membership_check(spec: ClassSpec, which: ExtremalId,
                           n_samples: int = 10000,
                           tol: float = 1e-12) -> bool:
    """Sample the defining positive-real-part inequality for the witness
    function on the open disk."""
    from .extremal import eval_extremal
    zs = _disk_samples(n_samples)
    for z in zs:
        z = complex(z)
        fz = eval_extremal(which, spec.b, z)
        if which is ExtremalId.F3:
            val = (1.0 + z) * fz / z
        else:
            val = (1.0 + z) ** 2 * fz / z
        if val.real <= -tol:
            return False
    return True
