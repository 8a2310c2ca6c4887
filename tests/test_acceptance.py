"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line. Tolerances here are contractual; do not loosen them."""

import io
import json
import math
import csv

import numpy as np
import pytest

from radstar import bounds, cli, regions, solver, verify
from radstar.core import (CLASSES, ClassId, Family, TargetSpec, Variant,
                          class_from_coeff_mag, default_target, make_class)
from radstar.extremal import ExtremalId, log_deriv
from fractions import Fraction
from extremal_oracle import eval_extremal, schwarz_eval
from series_oracle import taylor_coefficients


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _grid(class_id):
    max_mag = CLASSES[class_id].max_mag
    return [class_from_coeff_mag(class_id, max_mag * k / 10) for k in range(11)]


def _cells():
    for class_id in ClassId:
        targets = solver.supported_targets(class_id)
        for spec in _grid(class_id):
            for t in targets:
                yield spec, t


def test_criterion_1_closed_form_root():
    res = solver.compute_radius(make_class(ClassId.G1, -1.0),
                                TargetSpec(Family.STARLIKE_ORDER, alpha=0.0))
    ok = abs(res.rho - (2.0 - math.sqrt(3.0))) <= 1e-10
    _report("1 closed-form root 2-sqrt(3)", ok)


def test_criterion_2_residual_and_bracketing():
    ok = True
    for spec, t in _cells():
        cond = solver.assemble_condition(spec, t)
        res = solver.smallest_root_in_01(cond)
        if res.residual > 1e-10:
            ok = False
        lo, hi = res.rho - 1e-6, res.rho + 1e-6
        if lo > 0.0 and cond(lo) >= 0.0:
            ok = False
        if hi < 1.0 and cond(hi) <= 0.0:
            ok = False
    _report("2 residual <= 1e-10 and sign change across rho", ok)


def test_criterion_3_assembly_vs_inequality():
    rng = np.random.default_rng(314159)
    disagreements = 0
    for spec, t in _cells():
        cond = solver.assemble_condition(spec, t)
        for r in rng.uniform(1e-3, 0.999, 100):
            r = float(r)
            d = bounds.disk(spec, r)
            lhs = d.radius - regions.containment_threshold(t, d.center)
            h = cond(r)
            if abs(lhs) <= 1e-9 or abs(h) <= 1e-9:
                continue
            if (lhs > 0.0) != (h > 0.0):
                disagreements += 1
    _report("3 assembled condition agrees with disk inequality", disagreements == 0)


def test_criterion_4_exact_region_containment():
    ok = True
    for spec, t in _cells():
        rho = solver.compute_radius(spec, t).rho
        rep = verify.containment_scan(spec, t, rho, n_samples=512)
        # every family has an exact membership predicate and a threshold
        # equal to the distance to its boundary, so both scans are gated
        if not rep.passed:
            ok = False
    _report("4 containment scans (inside and just-outside, all cells gated)", ok)


def test_criterion_5_sharpness_at_extreme_b():
    ok = True
    spec1 = make_class(ClassId.G1, -1.0)
    for alpha in (0.0, 0.25, 0.5):
        t = TargetSpec(Family.STARLIKE_ORDER, alpha=alpha)
        rho = solver.compute_radius(spec1, t).rho
        rep = verify.sharpness_check(spec1, t, rho)
        if not (rep.applicable and abs(rep.value - rep.target_value) <= 1e-6):
            ok = False
    for fam in (Family.LEMNISCATE, Family.PARABOLIC, Family.EXPONENTIAL,
                Family.CARDIOID, Family.SINE, Family.RATIONAL_R,
                Family.SIGMOID_SG):
        t = default_target(fam)
        rho = solver.compute_radius(spec1, t).rho
        rep = verify.sharpness_check(spec1, t, rho)
        if not (rep.applicable and abs(rep.value - rep.target_value) <= 1e-6):
            ok = False
    spec2 = make_class(ClassId.G2, -1.0)
    for fam in (Family.SINE, Family.NEPHROID, Family.SIGMOID_SG):
        t = default_target(fam)
        rho = solver.compute_radius(spec2, t).rho
        rep = verify.sharpness_check(spec2, t, rho)
        if not (rep.applicable and abs(rep.value - rep.target_value) <= 1e-6):
            ok = False
    _report("5 boundary contact at b=-1 within 1e-6", ok)


def test_criterion_6_nephroid_adjudication():
    spec = make_class(ClassId.G1, -1.0)
    t = default_target(Family.NEPHROID)
    values = {}
    for var in (Variant.CENTER_CORRECTED, Variant.PRINTED,
                Variant.PRINTED_PROOF):
        rho = solver.compute_radius(spec, t, var).rho
        v = abs(log_deriv(ExtremalId.F2, -1.0, -rho))
        values[var] = v
    ok = abs(values[Variant.CENTER_CORRECTED] - 5.0 / 3.0) <= 1e-4
    ok = ok and abs(values[Variant.PRINTED] - 5.0 / 3.0) > 1e-2
    ok = ok and abs(values[Variant.PRINTED_PROOF] - 5.0 / 3.0) > 1e-2
    _report("6 nephroid variants: corrected sharp, printed readings miss", ok)


def test_criterion_7_extremal_invariants():
    ok = True
    rng = np.random.default_rng(2718)
    r = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 10000))
    th = rng.uniform(0.0, 2.0 * math.pi, 10000)
    zs = r * np.exp(1j * th)
    for idx, b in ((1, -1.0), (2, -0.7), (3, -1.0)):
        for z in zs:
            z = complex(z)
            if abs(schwarz_eval(idx, b, z)) > abs(z) + 1e-12:
                ok = False
    for z in zs:
        z = complex(z)
        if ((1.0 + z) ** 2 * eval_extremal(ExtremalId.F1, -1.0, z) / z).real \
                <= -1e-12:
            ok = False
        if ((1.0 + z) * eval_extremal(ExtremalId.F3, -1.0, z) / z).real \
                <= -1e-12:
            ok = False
    for b in (Fraction(-1), Fraction(-2, 3)):
        if abs(float(taylor_coefficients(ExtremalId.F1, b)[1] - 4 * b)) > 1e-8:
            ok = False
        if abs(float(taylor_coefficients(ExtremalId.F2, b)[1] - 4 * b)) > 1e-8:
            ok = False
        if abs(float(taylor_coefficients(ExtremalId.F3, b)[1] - 3 * b)) > 1e-8:
            ok = False
    # Moebius identities; the compared value is unbounded near z = -1, so the
    # 1e-12 tolerance is applied relative to its magnitude
    for b in (-1.0, -0.5):
        for z in zs[:2500]:
            z = complex(z)
            pairs = (
                ((1.0 + z) ** 2 * eval_extremal(ExtremalId.F1, b, z) / z,
                 (lambda w: (1.0 - w) / (1.0 + w))(schwarz_eval(1, b, z))),
                ((1.0 + z) ** 2 * eval_extremal(ExtremalId.F2, b, z) / z,
                 (lambda w: (1.0 + w) / (1.0 - w))(schwarz_eval(2, b, z))),
                ((1.0 + z) * eval_extremal(ExtremalId.F3, b, z) / z,
                 (lambda w: (1.0 + w) / (1.0 - w))(schwarz_eval(3, b, z))),
            )
            for lhs, rhs in pairs:
                if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
                    ok = False
    _report("7 Schwarz bound, positivity, second coefficient, identities", ok)


def test_criterion_8_structural_symmetries():
    ok = True
    for b in (-0.95, -0.8, -0.65, -0.6, -0.51):
        s1, s2 = make_class(ClassId.G1, b), make_class(ClassId.G1, -1.0 - b)
        for t in solver.supported_targets(ClassId.G1):
            if abs(solver.compute_radius(s1, t).rho
                   - solver.compute_radius(s2, t).rho) > 1e-12:
                ok = False
    for class_id in ClassId:
        spec = class_from_coeff_mag(class_id, CLASSES[class_id].max_mag)
        r_sector = solver.compute_radius(
            spec, TargetSpec(Family.STRONGLY_STARLIKE, gamma=1.0)).rho
        r_half = solver.compute_radius(
            spec, TargetSpec(Family.STARLIKE_ORDER, alpha=0.0)).rho
        if abs(r_sector - r_half) > 1e-10:
            ok = False
        max_mag = CLASSES[class_id].max_mag
        for t in solver.supported_targets(class_id):
            rhos = [solver.compute_radius(
                class_from_coeff_mag(class_id, max_mag * k / 6), t).rho
                for k in range(7)]
            if any(x < y - 1e-12 for x, y in zip(rhos, rhos[1:])):
                ok = False
    spec = make_class(ClassId.G1, -1.0)
    rhos = [solver.compute_radius(
        spec, TargetSpec(Family.STARLIKE_ORDER, alpha=a)).rho
        for a in (0.0, 0.2, 0.4, 0.6, 0.8)]
    if any(x <= y for x, y in zip(rhos, rhos[1:])):
        ok = False
    rhos = [solver.compute_radius(
        spec, TargetSpec(Family.STRONGLY_STARLIKE, gamma=g)).rho
        for g in (0.2, 0.4, 0.6, 0.8, 1.0)]
    if any(x >= y for x, y in zip(rhos, rhos[1:])):
        ok = False
    _report("8 symmetry in b, sector/half-plane match, monotonicity", ok)


def test_criterion_9_cli_determinism():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        args = cli.build_parser().parse_args(
            ["table", "--class", "g1", "--targets", "all"])
        assert args.func(args, buf) == 0
        outs.append(buf.getvalue())
    ok = outs[0] == outs[1]
    buf = io.StringIO()
    args = cli.build_parser().parse_args(
        ["table", "--class", "g1", "--targets", "all", "--format", "json"])
    args.func(args, buf)
    recs = json.loads(buf.getvalue())
    rows = list(csv.reader(io.StringIO(outs[0])))
    header = rows[0]
    if len(recs) != len(rows) - 1:
        ok = False
    for rec, row in zip(recs, rows[1:]):
        d = dict(zip(header, row))
        for key in ("rho", "residual", "b", "coeff_mag"):
            if rec[key] != float(d[key]):
                ok = False
        if rec["target"] != d["target"] or rec["status"] != d["status"]:
            ok = False
    _report("9 CLI byte-identical reruns and CSV/JSON equivalence", ok)
