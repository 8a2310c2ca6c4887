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
from .core import (CLASSES, ClassId, Family, NoRootError, ParameterError,
                   RadiusResult, TargetSpec, UnsupportedCombinationError,
                   Variant, default_target, make_class, class_from_coeff_mag)

CSV_HEADER = ["class", "b", "coeff_mag", "target", "alpha", "gamma",
              "variant", "rho", "residual", "status"]

_FAMILY_BY_NAME = {f.value: f for f in Family}
_CLASS_NAMES = [c.value for c in ClassId]


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.15g}"


def _num(x: Optional[float]) -> Optional[float]:
    # round through the printed representation so CSV and JSON agree exactly
    return None if x is None else float(f"{x:.15g}")


def _parse_target(name: str, **order: float) -> TargetSpec:
    fam = _FAMILY_BY_NAME.get(name)
    if fam is None:
        raise ParameterError(f"unknown target {name!r}; choose from "
                             + ", ".join(sorted(_FAMILY_BY_NAME)))
    return default_target(fam, **order)


def _record(spec, t: TargetSpec, variant: Variant,
            res: Optional[RadiusResult], status: str) -> dict:
    rho, residual = (None, None) if res is None else (res.rho, res.residual)
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


def _standard_specs(class_id: ClassId):
    max_mag = CLASSES[class_id].max_mag
    return [class_from_coeff_mag(class_id, max_mag * k / 10) for k in range(11)]


def _table_specs(class_id: ClassId, args):
    """The rows of a table: the --mag-grid magnitudes, --b-steps values of b
    from --b-start to --b-end, or the standard grid when neither is given."""
    ends = (args.b_start, args.b_end)
    if args.b_steps is None:
        if ends != (None, None):
            raise ParameterError("--b-start and --b-end need --b-steps")
        if args.mag_grid is None:
            return _standard_specs(class_id)
        try:
            mags = [float(s) for s in args.mag_grid.split(",")]
        except ValueError:
            raise ParameterError(f"--mag-grid {args.mag_grid!r} is not a "
                                 "comma-separated list of numbers") from None
        return [class_from_coeff_mag(class_id, m) for m in mags]
    if args.mag_grid is not None:
        raise ParameterError("--mag-grid and --b-steps are mutually exclusive")
    if None in ends:
        raise ParameterError("--b-steps needs both --b-start and --b-end")
    if not 1 <= args.b_steps <= regions.MAX_SAMPLES:
        raise ParameterError(
            f"--b-steps {args.b_steps} outside [1, {regions.MAX_SAMPLES}]")
    bs = [args.b_start] if args.b_steps == 1 else np.linspace(*ends, args.b_steps)
    return [make_class(class_id, b) for b in bs]


def _targets(args, class_id: Optional[ClassId] = None,
             extended: bool = False) -> List[TargetSpec]:
    """The targets a command selects: --target, or --targets for class_id,
    with --alpha and --gamma where given (default_target's defaults
    otherwise). A given order option that no selected target takes is
    refused, not ignored."""
    given = {opt: getattr(args, opt) for opt in ("alpha", "gamma")
             if getattr(args, opt) is not None}
    if class_id is None:
        targets = [_parse_target(args.target, **given)]
    elif args.targets != "all":
        targets = [_parse_target(n.strip(), **given)
                   for n in args.targets.split(",")]
    elif extended:
        targets = [default_target(f, **given) for f in Family]
    else:
        targets = solver.supported_targets(class_id, **given)
    for opt in given:
        if all(getattr(t, opt) is None for t in targets):
            raise ParameterError(f"--{opt} applies to none of the selected "
                                 "targets: " + ",".join(t.label() for t in targets))
    return targets


# ---------------------------------------------------------------------------
# Subcommands

def cmd_radius(args, out) -> int:
    spec = make_class(ClassId(args.klass), args.b)
    t, = _targets(args)
    variant = Variant(args.variant)
    res = solver.compute_radius(spec, t, variant, args.tol,
                                extended=args.extended)
    status = "EXTRAPOLATION" if res.extrapolation else "OK"
    _emit_records([_record(spec, t, res.variant, res, status)], args.format, out)
    return 0


def cmd_table(args, out) -> int:
    class_id = ClassId(args.klass)
    specs = _table_specs(class_id, args)
    targets = _targets(args, class_id, args.extended)
    variant = Variant(args.variant)
    cells = solver.radius_table(class_id, specs, targets, variant, args.tol,
                                extended=args.extended)
    _emit_records([_record(c.spec, c.target, c.variant, c.result, c.status)
                   for c in cells], args.format, out)
    return 1 if cells and all(c.result is None for c in cells) else 0


def cmd_verify(args, out) -> int:
    class_id = ClassId(args.klass)
    spec = make_class(class_id, args.b)
    targets = _targets(args, class_id)
    failed = False
    reports = []
    for t in targets:
        rep = verify.verify_cell(spec, t, tol=args.tol,
                                 n_samples=args.n_samples)
        reports.append(rep.to_dict())
        if not rep.scan.passed:
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
    targets = _targets(args, class_id)
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
    rep = verify.adjudicate_variant(spec, _parse_target(args.target))
    json.dump(rep.to_dict(), out, indent=2)
    out.write("\n")
    return 0


def cmd_boundary(args, out) -> int:
    t, = _targets(args)
    pts = regions.region_boundary(t, args.n)
    th = regions.boundary_parameters(t, args.n)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["theta", "re", "im"])
    for k in range(args.n):
        w.writerow([_fmt(float(th[k])), _fmt(float(pts[k].real)),
                    _fmt(float(pts[k].imag))])
    return 0


# ---------------------------------------------------------------------------

def _add_class(p):
    p.add_argument("--class", dest="klass", required=True, choices=_CLASS_NAMES)
    p.add_argument("--b", type=float, required=True)


def _add_order(p):
    # None marks "not given", so an option no selected target takes is refused
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)


def _add_common(p):
    _add_class(p)
    _add_order(p)
    p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)


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
    p.add_argument("--class", dest="klass", required=True, choices=_CLASS_NAMES)
    p.add_argument("--targets", default="all")
    p.add_argument("--b-start", type=float, default=None)
    p.add_argument("--b-end", type=float, default=None)
    p.add_argument("--b-steps", type=int, default=None)
    p.add_argument("--mag-grid", default=None)
    _add_order(p)
    p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)
    p.add_argument("--variant", choices=["corrected", "printed"],
                   default="corrected")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the oracle suite for one b")
    _add_common(p)
    p.add_argument("--targets", default="all")
    p.add_argument("--n-samples", type=int, default=verify.N_SAMPLES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sharpness", help="boundary-contact checks for one b")
    _add_common(p)
    p.add_argument("--targets", default="all")
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("adjudicate", help="compare variants of the flagged "
                                          "g1 conditions")
    _add_class(p)
    p.add_argument("--target", required=True)
    p.set_defaults(func=cmd_adjudicate)

    p = sub.add_parser("boundary", help="emit boundary samples as CSV")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_order(p)
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
