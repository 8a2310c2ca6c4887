"""Command-line front end: single radii, sweep tables, verification suites,
boundary curves and variant adjudication. The one module that writes an
output layout: every command's CSV and JSON records are built here."""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Sequence

from . import regions, solver, verify
from .core import (CLASSES, ClassId, Family, NoRootError, ParameterError,
                   TargetSpec, UnsupportedCombinationError, Variant,
                   default_target, make_class, class_from_coeff_mag, coefficient)

CSV_HEADER = ["class", "b", "coeff_mag", "target", "alpha", "gamma",
              "variant", "rho", "residual", "status"]

_CLASS_NAMES = [c.value for c in ClassId]

# argparse before Python 3.13 takes a negative number in exponent form, such
# as the -1e-05 that table prints for b, for an option; after "=" it is a value.
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")
_B_OPTIONS = ("--b", "--b-start", "--b-end")


def _fmt(x) -> str:
    """A CSV cell: "" for None, text as is, a number to 15 significant digits."""
    return "" if x is None else x if isinstance(x, str) else f"{x:.15g}"


def _num(x):
    # round through the printed representation so CSV and JSON agree exactly
    return x if x is None or isinstance(x, str) else float(_fmt(x))


def _json(obj, out) -> None:
    out.write(json.dumps(obj, indent=2) + "\n")


def _csv(header: List[str], rows, out) -> None:
    # no field can hold a comma, a quote or a line break, so none is quoted
    out.write(",".join(header) + "\n")
    out.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _parse_target(name: str, **order: float) -> TargetSpec:
    try:
        fam = Family(name)
    except ValueError:
        raise ParameterError(f"unknown target {name!r}; choose from "
                             + ", ".join(sorted(f.value for f in Family))) from None
    return default_target(fam, **order)


def _record(cell: solver.TableCell) -> list:
    """A table row, its raw values in CSV_HEADER order."""
    spec, t, res = cell.spec, cell.target, cell.result
    rho, residual = (None, None) if res is None else (res.rho, res.residual)
    return [spec.class_id.value, spec.b, spec.coeff_mag, t.label(), t.alpha,
            t.gamma, cell.variant.value, rho, residual, cell.status]


def _cstr(w: Optional[complex]) -> Optional[str]:
    """A scan's witness point, each part to 15 significant digits."""
    return None if w is None else f"{w.real:.15g}{w.imag:+.15g}j"


def _verify_record(rep: verify.VerificationReport) -> dict:
    """The verify record of one cell."""
    spec, t, sc, sh = rep.spec, rep.target, rep.scan, rep.sharpness
    return {
        "class": spec.class_id.value,
        "b": spec.b,
        "coeff_mag": spec.coeff_mag,
        "target": t.label(),
        "alpha": t.alpha,
        "gamma": t.gamma,
        "variant": rep.variant.value,
        "rho": rep.rho_used,
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


def _adjudicate_record(spec, t: TargetSpec, reports) -> dict:
    """The adjudicate record of one cell: an outcome per reading, and the
    readings whose scans pass."""
    return {
        "class": spec.class_id.value,
        "b": spec.b,
        "target": t.label(),
        "outcomes": [
            {
                "variant": o.variant.value,
                "rho": o.rho_used,
                "inside_scan_pass": o.scan.inside_pass,
                "just_outside_scan_pass": o.scan.outside_pass,
                "sharpness_value": o.sharpness.value,
                "consistent": o.scan.passed,
            }
            for o in reports
        ],
        "consistent_variants": [o.variant.value for o in reports
                                if o.scan.passed],
    }


def _emit_records(rows: List[list], fmt: str, out) -> None:
    if fmt == "json":
        _json([dict(zip(CSV_HEADER, map(_num, row))) for row in rows], out)
    else:
        _csv(CSV_HEADER, rows, out)


def _standard_specs(class_id: ClassId):
    max_mag = CLASSES[class_id].max_mag
    return [class_from_coeff_mag(class_id, max_mag * k / 10) for k in range(11)]


def _b_grid(start: float, end: float, n: int) -> List[float]:
    """n values of b from start to end: start alone for n = 1, and otherwise
    np.linspace(start, end, n).tolist(), by numpy's own float operations."""
    if n == 1:
        return [start]
    delta = end - start
    step = delta / (n - 1)
    if step == 0.0:  # numpy's branch for a gap that underflows
        bs = [(k / (n - 1)) * delta + start for k in range(n)]
    else:
        bs = [k * step + start for k in range(n)]
    bs[-1] = end
    return bs


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
    specs = [make_class(class_id, b) for b in _b_grid(*ends, args.b_steps)]
    coefficient(class_id, args.b_end)  # checked though one step leaves it out
    return specs


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
    cell = solver.TableCell(spec, t, res.variant, res, None)
    _emit_records([_record(cell)], args.format, out)
    return 0


def cmd_table(args, out) -> int:
    class_id = ClassId(args.klass)
    specs = _table_specs(class_id, args)
    targets = _targets(args, class_id, args.extended)
    variant = Variant(args.variant)
    cells = solver.radius_table(class_id, specs, targets, variant, args.tol,
                                extended=args.extended)
    _emit_records([_record(c) for c in cells], args.format, out)
    return 1 if cells and all(c.result is None for c in cells) else 0


def cmd_verify(args, out) -> int:
    class_id = ClassId(args.klass)
    spec = make_class(class_id, args.b)
    reports = [verify.verify_cell(spec, t, tol=args.tol, n_samples=args.n_samples)
               for t in _targets(args, class_id)]
    _json([_verify_record(rep) for rep in reports], out)
    at_b_lo = spec.b == CLASSES[class_id].b_lo
    failed = any(not rep.scan.passed or (at_b_lo and rep.sharpness.applicable
                                         and not rep.sharpness.ok)
                 for rep in reports)
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
    _json(reports, out)
    return 0


def cmd_adjudicate(args, out) -> int:
    spec = make_class(ClassId(args.klass), args.b)
    t = _parse_target(args.target)
    _json(_adjudicate_record(spec, t, verify.adjudicate_variant(spec, t)), out)
    return 0


def cmd_boundary(args, out) -> int:
    t, = _targets(args)
    th, pts = regions.region_boundary(t, args.n)
    _csv(["theta", "re", "im"],
         zip(th.tolist(), pts.real.tolist(), pts.imag.tolist()), out)
    return 0


# ---------------------------------------------------------------------------

def _add_class(p, b: bool = True):
    p.add_argument("--class", dest="klass", required=True, choices=_CLASS_NAMES)
    if b:
        p.add_argument("--b", type=float, required=True)


def _add_order(p):
    # None marks "not given", so an option no selected target takes is refused
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)


def _add_common(p, b: bool = True):
    _add_class(p, b)
    _add_order(p)
    p.add_argument("--tol", type=float, default=solver.DEFAULT_TOL)


def _add_output(p, fmt: str):
    p.add_argument("--variant", choices=["corrected", "printed"],
                   default="corrected")
    p.add_argument("--format", choices=["json", "csv"], default=fmt)
    p.add_argument("--extended", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="radstar",
                                 description="Starlikeness radius constants "
                                             "for two fixed-second-coefficient "
                                             "function classes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="compute a single radius")
    _add_common(p)
    p.add_argument("--target", required=True)
    _add_output(p, "json")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("table", help="sweep a grid of b values and targets")
    _add_common(p, b=False)
    p.add_argument("--targets", default="all")
    p.add_argument("--b-start", type=float, default=None)
    p.add_argument("--b-end", type=float, default=None)
    p.add_argument("--b-steps", type=int, default=None)
    p.add_argument("--mag-grid", default=None)
    _add_output(p, "csv")
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


def _join_negative_exponents(argv: Sequence[str]) -> List[str]:
    """argv with each negative number in exponent form that follows --b,
    --b-start or --b-end joined to it with "=", so that argparse reads it as
    the option's value."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _B_OPTIONS and _NEGATIVE_EXPONENT.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_exponents(
        sys.argv[1:] if argv is None else argv))
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
