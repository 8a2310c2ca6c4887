"""Command-line front end: single radii, sweep tables, verification suites,
boundary curves and variant adjudication, with CSV/JSON output."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import regions, solver, verify
from .core import (ClassId, Family, NoRootError, ParameterError, TargetSpec,
                   UnsupportedCombinationError, Variant, default_target,
                   make_class, class_from_coeff_mag)

CSV_HEADER = ["class", "b", "coeff_mag", "target", "alpha", "gamma",
              "variant", "rho", "residual", "status"]

_FAMILY_BY_NAME = {f.value: f for f in Family}
_VARIANT_BY_NAME = {"corrected": Variant.CENTER_CORRECTED,
                    "printed": Variant.PRINTED}


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.15g}"


def _num(x: Optional[float]) -> Optional[float]:
    # round through the printed representation so CSV and JSON agree exactly
    return None if x is None else float(f"{x:.15g}")


def _parse_target(name: str, alpha: float, gamma: float) -> TargetSpec:
    fam = _FAMILY_BY_NAME.get(name)
    if fam is None:
        raise ParameterError(f"unknown target {name!r}; choose from "
                             + ", ".join(sorted(_FAMILY_BY_NAME)))
    return default_target(fam, alpha=alpha, gamma=gamma)


def _record(spec, t: TargetSpec, variant: Variant, rho: Optional[float],
            residual: Optional[float], status: str) -> dict:
    return {
        "class": spec.class_id.value,
        "b": _num(spec.b),
        "coeff_mag": _num(spec.coeff_mag),
        "target": t.label(),
        "alpha": _num(t.alpha),
        "gamma": _num(t.gamma),
        "variant": variant.value,
        "rho": _num(rho),
        "residual": _num(residual),
        "status": status,
    }


def _emit_records(records: List[dict], fmt: str, out) -> None:
    if fmt == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for rec in records:
            w.writerow([rec["class"], _fmt(rec["b"]), _fmt(rec["coeff_mag"]),
                        rec["target"], _fmt(rec["alpha"]), _fmt(rec["gamma"]),
                        rec["variant"], _fmt(rec["rho"]), _fmt(rec["residual"]),
                        rec["status"]])


def _standard_specs(class_id: ClassId, n: int = 11):
    max_mag = 1.0 if class_id is ClassId.G1 else 2.0
    return [class_from_coeff_mag(class_id, max_mag * k / (n - 1))
            for k in range(n)]


def _targets_from_flag(class_id: ClassId, flag: str, alpha: float,
                       gamma: float, extended: bool) -> List[TargetSpec]:
    if flag == "all":
        if extended:
            return [default_target(f, alpha=alpha, gamma=gamma) for f in Family]
        return solver.supported_targets(class_id, alpha=alpha, gamma=gamma)
    return [_parse_target(n.strip(), alpha, gamma) for n in flag.split(",")]


# ---------------------------------------------------------------------------
# Subcommands

def cmd_radius(args, out) -> int:
    spec = make_class(ClassId(args.klass), args.b)
    t = _parse_target(args.target, args.alpha, args.gamma)
    variant = _VARIANT_BY_NAME[args.variant]
    res = solver.compute_radius(spec, t, variant, args.tol,
                                extended=args.extended)
    status = "EXTRAPOLATION" if res.extrapolation else "OK"
    _emit_records([_record(spec, t, res.variant, res.rho, res.residual, status)],
                  args.format, out)
    return 0


def cmd_table(args, out) -> int:
    class_id = ClassId(args.klass)
    if args.mag_grid:
        mags = [float(s) for s in args.mag_grid.split(",")]
        specs = [class_from_coeff_mag(class_id, m) for m in mags]
    elif args.b_steps:
        if args.b_steps == 1:
            bs = [args.b_start]
        else:
            bs = list(np.linspace(args.b_start, args.b_end, args.b_steps))
        specs = [make_class(class_id, b) for b in bs]
    else:
        specs = _standard_specs(class_id)
    targets = _targets_from_flag(class_id, args.targets, args.alpha,
                                 args.gamma, args.extended)
    variant = _VARIANT_BY_NAME[args.variant]
    cells = solver.radius_table(class_id, specs, targets, variant, args.tol,
                                extended=args.extended)
    records = []
    n_err = 0
    for cell in cells:
        if cell.result is None:
            n_err += 1
            records.append(_record(cell.spec, cell.target,
                                   solver.effective_variant(class_id, cell.target,
                                                            variant),
                                   None, None, cell.status))
        else:
            records.append(_record(cell.spec, cell.target, cell.result.variant,
                                   cell.result.rho, cell.result.residual,
                                   cell.status))
    _emit_records(records, args.format, out)
    return 1 if cells and n_err == len(cells) else 0


def cmd_verify(args, out) -> int:
    class_id = ClassId(args.klass)
    spec = make_class(class_id, args.b)
    targets = _targets_from_flag(class_id, args.targets, args.alpha,
                                 args.gamma, extended=False)
    failed = False
    reports = []
    for t in targets:
        rep = verify.verify_cell(spec, t, tol=args.tol,
                                 n_samples=args.n_samples)
        reports.append(rep.to_dict())
        if not (rep.scan.inside_pass and rep.scan.outside_pass):
            failed = True
        sh = rep.sharpness
        if sh.applicable and args.b == -1.0 and not sh.ok:
            failed = True
    json.dump(reports, out, indent=2)
    out.write("\n")
    return 1 if failed else 0


def cmd_sharpness(args, out) -> int:
    class_id = ClassId(args.klass)
    spec = make_class(class_id, args.b)
    targets = _targets_from_flag(class_id, args.targets, args.alpha,
                                 args.gamma, extended=False)
    reports = []
    for t in targets:
        res = solver.compute_radius(spec, t, tol=args.tol)
        sh = verify.sharpness_check(spec, t, res.rho)
        reports.append({
            "class": class_id.value, "b": _num(spec.b),
            "target": t.label(), "rho": _num(res.rho),
            "applicable": sh.applicable,
            "extremal": sh.extremal, "point": _num(sh.point),
            "value": _num(sh.value), "contact": _num(sh.target_value),
            "ok": sh.ok,
        })
    json.dump(reports, out, indent=2)
    out.write("\n")
    return 0


def cmd_adjudicate(args, out) -> int:
    spec = make_class(ClassId(args.klass), args.b)
    t = _parse_target(args.target, args.alpha, args.gamma)
    rep = verify.adjudicate_variant(spec, t)
    json.dump(rep.to_dict(), out, indent=2)
    out.write("\n")
    return 0


def cmd_boundary(args, out) -> int:
    t = _parse_target(args.target, args.alpha, args.gamma)
    pts = regions.region_boundary(t, args.n)
    th = regions.boundary_parameters(t, args.n)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["theta", "re", "im"])
    for k in range(args.n):
        w.writerow([_fmt(float(th[k])), _fmt(float(pts[k].real)),
                    _fmt(float(pts[k].imag))])
    return 0


# ---------------------------------------------------------------------------

def _add_common(p, with_target=True):
    p.add_argument("--class", dest="klass", required=True, choices=["g1", "g2"])
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-12)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="radstar",
                                 description="Starlikeness radius constants "
                                             "for two fixed-second-coefficient "
                                             "function classes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="compute a single radius")
    _add_common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--variant", choices=["corrected", "printed"],
                   default="corrected")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("table", help="sweep a grid of b values and targets")
    p.add_argument("--class", dest="klass", required=True, choices=["g1", "g2"])
    p.add_argument("--targets", default="all")
    p.add_argument("--b-start", type=float, default=None)
    p.add_argument("--b-end", type=float, default=None)
    p.add_argument("--b-steps", type=int, default=None)
    p.add_argument("--mag-grid", default=None)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--variant", choices=["corrected", "printed"],
                   default="corrected")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the oracle suite for one b")
    _add_common(p)
    p.add_argument("--targets", default="all")
    p.add_argument("--n-samples", type=int, default=512)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sharpness", help="boundary-contact checks for one b")
    _add_common(p)
    p.add_argument("--targets", default="all")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("adjudicate", help="compare variants of the flagged "
                                          "g1 conditions")
    _add_common(p)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_adjudicate)

    p = sub.add_parser("boundary", help="emit boundary samples as CSV")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--format", choices=["csv"], default="csv")
    p.set_defaults(func=cmd_boundary)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except NoRootError as exc:
        print(f"error: {exc} (h(0)={exc.h_at_0:.6g}, h(1-)={exc.h_near_1:.6g})",
              file=sys.stderr)
        return 3
    except (UnsupportedCombinationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
