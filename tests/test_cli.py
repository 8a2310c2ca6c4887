import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from radstar import cli, solver
from radstar.core import CLASSES, ClassId, Family, NoRootError, Variant

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def _run(argv):
    buf = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    code = args.func(args, buf)
    return code, buf.getvalue()


def _main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radius_json_record():
    code, out = _run(["radius", "--class", "g1", "--b", "-1",
                      "--target", "starlike"])
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["class"] == "g1" and rec["target"] == "starlike"
    assert rec["alpha"] == 0.0 and rec["gamma"] is None
    assert rec["variant"] == "corrected" and rec["status"] == "OK"
    assert rec["rho"] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-10)
    assert rec["residual"] <= 1e-10


def test_radius_csv_record():
    code, out = _run(["radius", "--class", "g2", "--b", "-1",
                      "--target", "nephroid", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.CSV_HEADER
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["class"] == "g2" and row["target"] == "nephroid"
    assert float(row["rho"]) == pytest.approx(0.2, abs=1e-10)
    assert row["gamma"] == ""


def test_csv_json_values_agree_exactly():
    _, out_j = _run(["radius", "--class", "g1", "--b", "-0.8",
                     "--target", "cardioid"])
    _, out_c = _run(["radius", "--class", "g1", "--b", "-0.8",
                     "--target", "cardioid", "--format", "csv"])
    rec = json.loads(out_j)[0]
    rows = list(csv.reader(io.StringIO(out_c)))
    row = dict(zip(rows[0], rows[1]))
    assert repr(rec["rho"]) == repr(float(row["rho"]))
    assert repr(rec["b"]) == repr(float(row["b"]))


def test_radius_unsupported_combination_exit_code(capsys):
    code, out, err = _main(["radius", "--class", "g2", "--b", "-1",
                            "--target", "exponential"], capsys)
    assert code == 2
    assert out == "" and "extended" in err


def test_radius_extended_flag(capsys):
    code, out, err = _main(["radius", "--class", "g2", "--b", "-1",
                            "--target", "exponential", "--extended"], capsys)
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["status"] == "EXTRAPOLATION"


def test_no_root_exit_code(monkeypatch, capsys):
    # no radstar input is known to reach this handler, but the solver can
    # raise NoRootError, and the CLI reports it with exit code 3
    def no_root(*args, **kwargs):
        raise NoRootError("no sign change in (0, 1)", -1.0, 2.0)

    monkeypatch.setattr(solver, "compute_radius", no_root)
    code, out, err = _main(["radius", "--class", "g1", "--b", "-1",
                            "--target", "cardioid"], capsys)
    assert code == 3 and out == ""
    assert err == "error: no sign change in (0, 1) (h(0)=-1, h(1-)=2)\n"


def test_radius_bad_parameters_exit_code(capsys):
    code, _, err = _main(["radius", "--class", "g1", "--b", "0.5",
                          "--target", "starlike"], capsys)
    assert code == 2 and "admissible" in err
    code, _, err = _main(["radius", "--class", "g1", "--b", "-1",
                          "--target", "no-such-region"], capsys)
    assert code == 2 and "unknown target" in err
    # an invalid alpha is rejected for g2 too, whose list drops starlike
    code, out, err = _main(["table", "--class", "g2", "--alpha", "1.5"], capsys)
    assert code == 2 and out == "" and "alpha" in err


@pytest.mark.parametrize("argv, code", [
    (["radius", "--class", "g1", "--b", "-1", "--target", "cardioid",
      "--alpha", "0.5"], 2),
    (["radius", "--class", "g1", "--b", "-1", "--target", "cardioid",
      "--gamma", "0.2"], 2),
    (["verify", "--class", "g1", "--b", "-1", "--targets", "cardioid",
      "--alpha", "0.5"], 2),
    (["sharpness", "--class", "g1", "--b", "-1", "--targets", "sine,lune",
      "--gamma", "0.3"], 2),
    (["table", "--class", "g1", "--targets", "lune", "--alpha", "0.3"], 2),
    (["table", "--class", "g2", "--alpha", "0.3"], 2),  # starlike needs --extended
    (["boundary", "--target", "cardioid", "--n", "8", "--gamma", "0.3"], 2),
    (["radius", "--class", "g1", "--b", "-1", "--target", "starlike",
      "--alpha", "0.3"], 0),
    (["sharpness", "--class", "g1", "--b", "-1", "--targets", "sine,strongly",
      "--gamma", "0.3"], 0),
    (["table", "--class", "g1", "--alpha", "0.3"], 0),
    (["table", "--class", "g2", "--alpha", "0.3", "--extended"], 0),
    (["boundary", "--target", "starlike", "--n", "8", "--alpha", "0.2"], 0),
], ids=["radius-alpha", "radius-gamma", "verify-alpha", "sharpness-gamma",
        "table-alpha", "table-g2-alpha", "boundary-gamma", "radius-starlike",
        "sharpness-strongly", "table-all", "table-g2-extended",
        "boundary-starlike"])
def test_order_option_no_target_takes_exit_code(argv, code, capsys):
    # --alpha and --gamma are refused, not dropped, when no selected target
    # has that order parameter
    got, out, err = _main(argv, capsys)
    assert got == code
    if code == 2:
        assert out == "" and err.count("\n") == 1
        assert f"{argv[-2]} applies to none of the selected targets" in err
    else:
        assert out and err == ""


@pytest.mark.parametrize("argv", [
    ["radius", "--class", "g1", "--b", "-1e-5", "--target", "starlike",
     "--alpha", "0"],
    ["table", "--class", "g1", "--b-start", "-1", "--b-end", "-1e-5",
     "--b-steps", "2"],
    ["table", "--class", "g2", "--b-start", "-1E-1", "--b-end", "-.5e-2",
     "--b-steps", "3", "--format", "json"],
], ids=["radius", "table", "table-json"])
def test_negative_exponent_values(argv, capsys):
    # a negative b in exponent form, spaced from its option, reads as the
    # "=" form does
    joined = list(argv)
    for opt in ("--b", "--b-start", "--b-end"):
        if opt in joined:
            i = joined.index(opt)
            joined[i:i + 2] = [f"{opt}={joined[i + 1]}"]
    assert len(joined) < len(argv)
    spaced = _main(argv, capsys)
    assert spaced == _main(joined, capsys)
    code, out, err = spaced
    assert code == 0 and out and err == ""


def test_table_b_passes_back_to_radius(capsys):
    # table prints b = -1e-05 in exponent form; passed back to radius as
    # printed, it gives the table row's radius
    _, out, _ = _main(["table", "--class", "g1", "--b-start", "-1",
                       "--b-end=-1e-5", "--b-steps", "2",
                       "--targets", "cardioid"], capsys)
    row = list(csv.DictReader(io.StringIO(out)))[-1]
    assert row["b"] == "-1e-05"
    code, out, _ = _main(["radius", "--class", "g1", "--b", row["b"],
                          "--target", "cardioid", "--format", "csv"], capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out))) == [row]


def test_unknown_option_still_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["radius", "--class", "g1", "--b", "-1e-5",
                  "--target", "starlike", "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_printed_variant_labels_the_reading_solved():
    # only g1 nephroid and g1 rl have a printed reading; every other cell
    # solves, and is labelled, the corrected condition
    for argv in (["--class", "g1", "--target", "starlike"],
                 ["--class", "g2", "--target", "nephroid"]):
        _, out = _run(["radius", "--b", "-1", "--variant", "printed"] + argv)
        assert json.loads(out)[0]["variant"] == "corrected", argv
    _, out = _run(["table", "--class", "g1", "--mag-grid", "1",
                   "--variant", "printed"])
    labels = {r["target"]: r["variant"] for r in csv.DictReader(io.StringIO(out))}
    assert labels.pop("nephroid") == labels.pop("rl") == "printed"
    assert set(labels.values()) == {"corrected"}
    # an error row is labelled with the reading its cell would have solved
    _, out = _run(["table", "--class", "g2", "--mag-grid", "2",
                   "--targets", "nephroid,exponential", "--variant", "printed"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["variant"], r["status"]) for r in rows] == \
        [("corrected", "OK"), ("corrected", "ERROR:unsupported")]


def test_table_default_grid_g1():
    code, out = _run(["table", "--class", "g1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.CSV_HEADER
    assert len(rows) == 1 + 11 * 12
    assert all(r[9] == "OK" for r in rows[1:])
    # b ascending
    bs = [float(r[1]) for r in rows[1::12]]
    assert bs == sorted(bs)


def test_table_default_grid_g2():
    code, out = _run(["table", "--class", "g2"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 11 * 9


def test_table_deterministic():
    _, out1 = _run(["table", "--class", "g1"])
    _, out2 = _run(["table", "--class", "g1"])
    assert out1 == out2


def test_table_single_cell_matches_radius():
    _, out_t = _run(["table", "--class", "g1", "--b-start", "-1",
                     "--b-end", "-1", "--b-steps", "1",
                     "--targets", "lune"])
    _, out_r = _run(["radius", "--class", "g1", "--b", "-1",
                     "--target", "lune", "--format", "csv"])
    assert out_t == out_r


def test_table_mag_grid_and_target_list():
    code, out = _run(["table", "--class", "g2", "--mag-grid", "0,1,2",
                      "--targets", "nephroid,sg"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 3 * 2
    assert {r[3] for r in rows[1:]} == {"nephroid", "sg"}


def test_table_extended_reports_extrapolation():
    code, out = _run(["table", "--class", "g2", "--mag-grid", "2",
                      "--targets", "parabolic", "--extended"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][9] == "EXTRAPOLATION"


def test_table_unsupported_cells_marked():
    code, out = _run(["table", "--class", "g2", "--mag-grid", "2",
                      "--targets", "parabolic"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][9] == "ERROR:unsupported"
    assert rows[1][7] == ""  # no rho column value
    assert code == 1  # every requested cell failed


def test_verify_passes_at_extreme_b():
    code, out = _run(["verify", "--class", "g1", "--b", "-1",
                      "--targets", "cardioid,lune,starlike"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 3
    assert all(r["inside_scan"]["pass"] for r in reports)


def test_sharpness_command():
    code, out = _run(["sharpness", "--class", "g2", "--b", "-1",
                      "--targets", "nephroid,lune"])
    assert code == 0
    reports = json.loads(out)
    by_target = {r["target"]: r for r in reports}
    assert by_target["nephroid"]["applicable"] and by_target["nephroid"]["ok"]
    assert by_target["lune"]["applicable"] is False


def test_sharpness_tol_exit_code(capsys):
    # --tol is validated by sharpness exactly as by radius
    for cmd in (["radius", "--target", "cardioid"], ["sharpness"]):
        code, out, err = _main(cmd + ["--class", "g1", "--b", "-0.7",
                                      "--tol", "1e-3"], capsys)
        assert code == 2 and out == "" and "tol" in err, cmd[0]


def test_adjudicate_command():
    code, out = _run(["adjudicate", "--class", "g1", "--b", "-1",
                      "--target", "nephroid"])
    assert code == 0
    rep = json.loads(out)
    assert rep["consistent_variants"] == ["corrected"]
    assert len(rep["outcomes"]) == 3


def test_adjudicate_rejects_unflagged(capsys):
    code, _, err = _main(["adjudicate", "--class", "g1", "--b", "-1",
                          "--target", "cardioid"], capsys)
    assert code == 2


@pytest.mark.parametrize("option", [["--tol", "1e-3"], ["--alpha", "0.5"],
                                    ["--gamma", "0.3"]],
                         ids=["tol", "alpha", "gamma"])
def test_adjudicate_takes_no_order_or_tolerance(option, capsys):
    # adjudicate solves each reading at the default tolerance, and its
    # targets have no order parameter: the options are refused, not ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["adjudicate", "--class", "g1", "--b", "-1",
                  "--target", "nephroid"] + option)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments: " + " ".join(option) in out.err


def test_boundary_rows():
    code, out = _run(["boundary", "--target", "cardioid", "--n", "8"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["theta", "re", "im"]
    assert len(rows) == 9
    # closed curve: first and last samples coincide
    assert float(rows[1][1]) == pytest.approx(float(rows[-1][1]), abs=1e-12)
    # the cusp image at 1/3 is always present
    assert any(abs(float(r[1]) - 1.0 / 3.0) < 1e-12 and abs(float(r[2])) < 1e-12
               for r in rows[1:])


def test_oversized_sample_counts_exit_code(capsys):
    code, out, err = _main(["boundary", "--target", "cardioid",
                            "--n", "1000000000"], capsys)
    assert code == 2 and out == "" and "1000000" in err
    code, out, err = _main(["verify", "--class", "g1", "--b", "-1",
                            "--targets", "sine", "--n-samples", "1000000000"],
                           capsys)
    assert code == 2 and out == "" and "n_samples" in err


def test_boundary_theta_matches_samples():
    code, out = _run(["boundary", "--target", "nephroid", "--n", "16"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for r in rows:
        th, re, im = (float(v) for v in r)
        z = complex(math.cos(th), math.sin(th))
        w = 1.0 + z - z**3 / 3.0
        assert abs(complex(re, im) - w) < 1e-12


def test_boundary_output_byte_identical(capsys):
    # every family's samples and angles at sizes that split the curve
    # differently between its pieces, and at a size where the angle
    # rounding shows, pinned by the sha256 of the stdout of all 48 commands
    h = hashlib.sha256()
    for f in Family:
        for n in (4, 5, 257, 4097):
            assert cli.main(["boundary", "--target", f.value, "--n", str(n)]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == (
        "50618cf9bd0b38528d43761cb12aefdb1b3eff71d2ea946b6fca494f71d18240")


# every status a table cell can print (solver.TableCell.status)
_STATUSES = ["OK", "EXTRAPOLATION", "ERROR:no-root", "ERROR:unsupported",
             "ERROR:parameter"]


def test_no_csv_field_needs_quoting():
    # cli._csv joins fields with no quoting; only the text fields could
    # need it, and every one comes from a fixed set of names
    names = ([c.value for c in ClassId] + [f.value for f in Family]
             + [v.value for v in Variant] + _STATUSES + cli.CSV_HEADER
             + ["theta", "re", "im"])
    assert not [s for s in names if set(s) & set(',"\r\n')]


@pytest.mark.parametrize("argv", [
    ["table", "--class", "g1", "--extended"],
    ["table", "--class", "g2", "--extended"],
    # two ERROR:parameter rows, their rho and residual empty
    ["table", "--class", "g1", "--targets", "strongly,starlike,rl",
     "--gamma", "1e-9", "--mag-grid", "0,1"],
] + [["boundary", "--target", f.value, "--n", "5"] for f in Family],
    ids=" ".join)
def test_csv_matches_csv_writer(argv, monkeypatch):
    # the rows a command hands to cli._csv, written by it and by csv.writer
    write, seen = cli._csv, []
    monkeypatch.setattr(cli, "_csv", lambda header, rows, out:
                        seen.append((header, list(rows))))
    assert _run(argv) == (0, "")
    (header, rows), = seen
    assert rows
    out, expected = io.StringIO(), io.StringIO()
    write(header, rows, out)
    w = csv.writer(expected, lineterminator="\n")
    w.writerow(header)
    w.writerows([cli._fmt(x) for x in row] for row in rows)
    assert out.getvalue() == expected.getvalue()


_BAD_GRID = [
    (["--b-steps", "3"], "--b-steps needs both"),
    (["--b-steps", "3", "--b-end", "-0.5"], "--b-steps needs both"),
    (["--b-steps", "-2", "--b-start", "-1", "--b-end", "0"], "outside [1, 1000000]"),
    (["--b-steps", "0", "--b-start", "-1", "--b-end", "0"], "outside [1, 1000000]"),
    # rejected before the grid is built
    (["--b-steps", "1000001", "--b-start", "-1", "--b-end", "0"], "outside [1, 1000000]"),
    (["--b-start", "-1"], "need --b-steps"),
    (["--mag-grid", "0.5", "--b-end", "-1"], "need --b-steps"),
    (["--mag-grid", "0.5,abc"], "not a comma-separated list"),
    (["--mag-grid", ""], "not a comma-separated list"),
    (["--mag-grid", "0.5", "--b-steps", "3", "--b-start", "-1", "--b-end", "0"],
     "mutually exclusive"),
    # checked once before any cell, not reported as an error in every cell
    (["--tol", "1e-3"], "tol=0.001 outside [1e-15, 1e-6]"),
    (["--tol", "nan"], "tol=nan outside [1e-15, 1e-6]"),
    # b is named as a plain float, not as a numpy scalar
    (["--b-start", "-2", "--b-end", "0", "--b-steps", "3"],
     "b=-2.0 outside admissible interval"),
    # one step uses --b-start only, but --b-end is checked all the same
    (["--b-start", "-1", "--b-end", "nan", "--b-steps", "1"],
     "b=nan outside admissible interval"),
]


@pytest.mark.parametrize("order", [["strongly", "--gamma", "1e-300"],
                                   ["starlike", "--alpha", "0.9999999999"]])
def test_unresolved_radius_exit_code(order, capsys):
    # a radius below what the tolerance resolves is refused, not printed
    # as OK with no correct digit
    code, out, err = _main(["radius", "--class", "g1", "--b", "-1",
                            "--target", *order], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "is below what tol=1e-12 resolves" in err
    code, out, err = _main(["table", "--class", "g1", "--mag-grid", "1",
                            "--targets", *order], capsys)
    assert code == 1 and out.splitlines()[1].endswith(",,,ERROR:parameter")


@pytest.mark.parametrize("options, message", _BAD_GRID,
                         ids=[" ".join(o) for o, _ in _BAD_GRID])
def test_table_bad_grid_options_exit_code(options, message, capsys):
    code, out, err = _main(["table", "--class", "g1"] + options, capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("argv, name", [
    (["table", "--class", "g1"], "table_g1.csv"),
    (["table", "--class", "g2", "--extended"], "table_g2_extended.csv"),
    (["adjudicate", "--class", "g1", "--b", "-1", "--target", "nephroid"],
     "adjudicate_g1_nephroid.json"),
    (["adjudicate", "--class", "g1", "--b", "-1", "--target", "rl"],
     "adjudicate_g1_rl.json"),
    (["sharpness", "--class", "g2", "--b", "-1"], "sharpness_g2.json"),
    # raw log_deriv values of F1, F2 and F3 at b inside the intervals
    (["verify", "--class", "g1", "--b", "-0.7", "--targets",
      "starlike,lemniscate,sine,nephroid"], "verify_g1_b-0.7.json"),
    (["verify", "--class", "g2", "--b", "-0.6", "--targets", "sine,nephroid,sg"],
     "verify_g2_b-0.6.json"),
    (["table", "--class", "g1", "--variant", "printed"], "table_g1_printed.csv"),
    # JSON rows: null rho and residual in an unsupported cell, alpha 0.0
    (["table", "--class", "g2", "--mag-grid", "0,2", "--targets",
      "starlike,parabolic,rl", "--format", "json"], "table_g2_mag_grid.json"),
])
def test_table_output_byte_identical(argv, name, capsys):
    # the recorded outputs are the contract: radii, residuals, statuses and
    # report fields must not move by a single printed digit
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (["table", "--class", "g1", "--b-start", "-1", "--b-end", "0",
      "--b-steps", "2001"],
     "805d8347fc175d4183a1baa8274b64ca940b99b0bdf03ab609833206db6310dd"),
    (["table", "--class", "g2", "--b-start", "-1", "--b-end",
      "0.3333333333333333", "--b-steps", "2001"],
     "24c8258cf629d30b9ee2320c79ab4b0b65c3f9eef272e0d20bcbd0b7fabc355d"),
])
def test_dense_table_byte_identical(argv, digest, capsys):
    # the two 2001-row tables (24,012 and 18,009 cells), pinned by the
    # sha256 of their bytes, so that every printed digit of every root the
    # solver brackets stays put
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def _at_21_b(class_id, *argv):
    # the command at 21 evenly spaced b across the class's interval
    d = CLASSES[class_id]
    return [[argv[0], "--class", class_id.value, "--b", repr(b), *argv[1:]]
            for b in cli._b_grid(d.b_lo, float(d.b_hi), 21)]


@pytest.mark.parametrize("argvs, digest", [
    (_at_21_b(ClassId.G1, "verify"),
     "6bc7300416f4c4b475029fb998b336a5b751769c210c424a8cda4c89fdd266bf"),
    (_at_21_b(ClassId.G2, "verify"),
     "37146790ecbd3e583a92616b7effd23161c831973231e526493c10ae7da92855"),
    (_at_21_b(ClassId.G1, "adjudicate", "--target", "nephroid"),
     "e17e6dfcfffa9bbd4b87faf1259c53b9133ace9a68fd8b66fa35b8e5dc48dd92"),
    (_at_21_b(ClassId.G1, "adjudicate", "--target", "rl"),
     "53ee666820dd6e70b7f5774187c4c9ec1e87aaaa06c308963d604c087d4e0e35"),
])
def test_scan_output_byte_identical(argvs, digest, capsys):
    # every scan verdict, witness and sharpness value of verify and
    # adjudicate, pinned by the sha256 of the stdout of all 21 commands
    h = hashlib.sha256()
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def _refuse_constant(name):
    raise ValueError(f"{name} in strict JSON")


def _json_commands():
    # verify, sharpness, and the JSON table at the cell's magnitude with and
    # without --extended, for each class at both ends of b, the midpoint and
    # the b of coefficient 0; adjudicate on both flagged g1 cells. Each
    # command once: g1's midpoint is its b of coefficient 0, and both ends
    # of b have one magnitude
    argvs = []
    for class_id, d in CLASSES.items():
        c = ["--class", class_id.value]
        for b in (d.b_lo, (d.b_lo + d.b_hi) / 2, d.b_hi, -1.0 / d.slope):
            at_b = c + ["--b", repr(b)]
            mag = ["--mag-grid", repr(abs(1 + d.slope * b)), "--format", "json"]
            argvs += [["verify"] + at_b, ["sharpness"] + at_b,
                      ["table"] + c + mag, ["table"] + c + mag + ["--extended"]]
            if class_id is ClassId.G1:
                argvs += [["adjudicate"] + at_b + ["--target", target]
                          for target in ("nephroid", "rl")]
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


@pytest.mark.parametrize("argv", _json_commands(), ids=" ".join)
def test_json_output_is_strict(argv, capsys):
    # a successful command prints no NaN or Infinity, which json.dumps
    # writes and a strict JSON reader refuses
    code, out, err = _main(argv, capsys)
    assert code == 0 and err == ""
    json.loads(out, parse_constant=_refuse_constant)


_ENDS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_SUBNORMAL = 5e-324


@given(ends=st.one_of(st.tuples(_ENDS, _ENDS), _ENDS.map(lambda x: (x, x))),
       n=st.sampled_from([1, 2, 3, 2001]))
@example(ends=(0.0, -0.0), n=3)
@example(ends=(-0.0, 0.0), n=2)
@example(ends=(-0.0, -0.0), n=2001)
@example(ends=(-1.0, -1.0), n=3)
@example(ends=(-1.0, math.nan), n=2)
@example(ends=(math.nan, -1.0), n=3)
@example(ends=(-1.0, math.inf), n=3)
@example(ends=(math.inf, -math.inf), n=2)
@example(ends=(-math.inf, -math.inf), n=2001)
@example(ends=(0.0, 2 * _SUBNORMAL), n=2001)  # the step underflows to 0
@example(ends=(_SUBNORMAL, -_SUBNORMAL), n=3)
@example(ends=(-1.0, 1.0 / 3.0), n=2001)
def test_b_grid_matches_numpy_linspace(ends, n):
    # the same doubles, bit for bit, as the np.linspace the table used to
    # call; one step has always been --b-start alone
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf
        expected = [ends[0]] if n == 1 else np.linspace(*ends, n).tolist()
    pack = struct.Struct(f"<{n}d").pack
    assert pack(*cli._b_grid(*ends, n)) == pack(*expected)


# Commands that build no array, with their exit codes; the last is refused.
_NUMPY_FREE = [
    (["radius", "--class", "g1", "--b", "-1", "--target", "starlike"], 0),
    (["table", "--class", "g1", "--mag-grid", "0,0.5,1"], 0),
    (["table", "--class", "g2", "--b-start", "-1", "--b-end", "0.3",
      "--b-steps", "4"], 0),
    (["sharpness", "--class", "g1", "--b", "-1"], 0),
    (["radius", "--class", "g1", "--b", "-2", "--target", "starlike"], 2),
]

_IMPORT_PROBE = """
import contextlib, io, json, sys
from radstar import cli
for argv, code in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
    assert not {"numpy", "dataclasses", "inspect", "csv"} & set(sys.modules), argv
from radstar import regions, verify
from radstar.core import ClassId, Family, default_target, make_class
verify.verify_cell(make_class(ClassId.G1, -1.0), default_target(Family.SINE))
import numpy
assert regions.np is numpy, regions.np
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["boundary", "--target", "sine", "--n", "64"]) == 0
assert "csv" not in sys.modules
"""


def test_radius_path_does_not_import_numpy():
    # numpy is loaded only where an array is built, and once an array is
    # built the module itself, not a stand-in, serves every later call;
    # the value types are named tuples, so dataclasses and the inspect
    # module it pulls in are never loaded; every CSV is joined by cli._csv,
    # so no command loads the csv module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           json.dumps(_NUMPY_FREE)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
