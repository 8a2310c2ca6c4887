import csv
import io
import json
import math
from pathlib import Path

import pytest

from radstar import cli

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("argv, name", [
    (["table", "--class", "g1"], "table_g1.csv"),
    (["table", "--class", "g2", "--extended"], "table_g2_extended.csv"),
])
def test_table_output_byte_identical(argv, name, capsys):
    # the recorded tables are the contract: radii, residuals and statuses
    # must not move by a single printed digit
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()
