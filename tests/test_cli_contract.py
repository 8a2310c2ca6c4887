"""The CLI's contract on any argv that parses: exit code 0, 1, 2 or 3; a
refusal (2 or 3) prints nothing on stdout and one "error:" line on stderr;
an answer (0 or 1) prints strict JSON, or CSV whose every number is finite,
and nothing on stderr. A radius agrees with the 30-digit reference, and each
verify record's scan verdicts agree with its witnesses."""

import contextlib
import io
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radstar import cli
from radstar.core import Family
from test_cli import _refuse_constant
from test_solver import _load_reference

_REFERENCE = _load_reference()
_NAMES = [f.value for f in Family] + ["bogus"]
_SUBNORMAL = 5e-324


def _floats(*values):
    """A float option's value: one of the given values, NaN or an infinity."""
    return st.sampled_from(values + (math.nan, math.inf, -math.inf))


# Half of the values of b lie in [-1, 0], which both classes admit.
_B = st.one_of(st.floats(-1.0, 0.0), _floats(
    -1.0, 0.0, -0.0, 1.0 / 3.0, -0.5, -1.0 / 3.0, -1e-05,
    math.nextafter(-1.0, -2.0), math.nextafter(0.0, 1.0),
    math.nextafter(1.0 / 3.0, 1.0), _SUBNORMAL, -_SUBNORMAL, 2.0))
_ALPHA = _floats(0.0, 0.3, math.nextafter(1.0, 0.0), 1.0, -0.1)
_GAMMA = _floats(0.5, 0.7, 1.0, 1e-300, 0.0, 1.5)
_TOL = _floats(1e-12, 1e-13, 1e-15, 1e-6, 1e-16, 1e-3, 0.0, -1e-12)
_MAG = st.one_of(st.floats(0.0, 2.0), _floats(0.0, 0.5, 1.0, 2.0, 2.5, -0.1))
_TARGETS = st.one_of(
    st.just("all"),
    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map(",".join))


def _text(x) -> str:
    return x if isinstance(x, str) else repr(x)


_NEGATIVE_DECIMAL = re.compile(r"-\d+|-\d*\.\d+")


def _spaced(name, value):
    """Whether argparse reads value as the option's after a space: a value
    that begins with "-" only as a negative decimal, or in exponent form
    after --b, --b-start or --b-end, which cli joins to its option."""
    return (not value.startswith("-") or _NEGATIVE_DECIMAL.fullmatch(value)
            or (name in cli._B_OPTIONS
                and cli._NEGATIVE_EXPONENT.fullmatch(value)))


@st.composite
def _option(draw, name, values):
    """--name value where argparse reads it so, or --name=value."""
    value = _text(draw(values))
    if not _spaced(name, value) or draw(st.booleans()):
        return [f"{name}={value}"]
    return [name, value]


def _maybe(name, values):
    """The option, given one time in four."""
    return st.one_of(st.just([]), st.just([]), st.just([]),
                     _option(name, values))


_CLASS = _option("--class", st.sampled_from(["g1", "g2"]))
_ORDER = [_maybe("--alpha", _ALPHA), _maybe("--gamma", _GAMMA)]
_COMMON = [_CLASS, *_ORDER, _maybe("--tol", _TOL)]
_OUTPUT = [_maybe("--variant", st.sampled_from(["corrected", "printed"])),
           _maybe("--format", st.sampled_from(["json", "csv"])),
           st.sampled_from([[], ["--extended"]])]
_GRID = st.one_of(
    st.just([]),
    st.lists(_MAG, min_size=1, max_size=3).map(
        lambda ms: ["--mag-grid=" + ",".join(map(_text, ms))]),
    st.just(["--mag-grid", "x"]),
    st.tuples(_maybe("--b-start", _B), _maybe("--b-end", _B),
              _maybe("--b-steps", st.sampled_from([1, 2, 3, 21, 0, -1,
                                                   1_000_001]))).map(
        lambda groups: [arg for group in groups for arg in group]),
)

_COMMANDS = {
    "radius": [*_COMMON, _option("--b", _B),
               _option("--target", st.sampled_from(_NAMES)), *_OUTPUT],
    "table": [*_COMMON, _maybe("--targets", _TARGETS), _GRID, *_OUTPUT],
    "verify": [*_COMMON, _option("--b", _B), _maybe("--targets", _TARGETS),
               _maybe("--n-samples", st.sampled_from([64, 100, 513, 63, 0,
                                                      1_000_001]))],
    "sharpness": [*_COMMON, _option("--b", _B), _maybe("--targets", _TARGETS)],
    "adjudicate": [_CLASS, _option("--b", _B), _option("--target", st.one_of(
        st.sampled_from(["nephroid", "rl"]), st.sampled_from(_NAMES)))],
    "boundary": [_option("--target", st.sampled_from(_NAMES)),
                 _option("--n", st.sampled_from([4, 5, 64, 101, 3, 0,
                                                 1_000_001])),
                 *_ORDER, _maybe("--format", st.just("csv"))],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    groups = [draw(part) for part in _COMMANDS[command]]
    groups = draw(st.permutations(groups))
    return [command] + [arg for group in groups for arg in group]


def _finite_float(text):
    x = float(text)
    assert math.isfinite(x), text
    return x


def _records(out):
    """The records of an answer: a JSON list or object, or the CSV rows as
    dicts."""
    if out.startswith(("[", "{")):
        return json.loads(out, parse_constant=_refuse_constant,
                          parse_float=_finite_float)
    header, *rows = (line.split(",") for line in out.splitlines())
    for row in rows:
        assert len(row) == len(header), row
        for field in row:
            try:
                x = float(field)
            except ValueError:
                continue
            assert math.isfinite(x), row
    return [dict(zip(header, row)) for row in rows]


def _number(x):
    return None if x in (None, "") else float(x)


def _check_radius(argv, rec):
    if rec["status"] not in ("OK", "EXTRAPOLATION"):
        return
    alpha, gamma = _number(rec["alpha"]), _number(rec["gamma"])
    key = (rec["class"], _number(rec["coeff_mag"]), rec["target"],
           alpha if alpha is not None else gamma, rec["variant"])
    tol = cli.build_parser().parse_args(cli._join_negative_exponents(argv)).tol
    # the final bracket, at most tol wide, holds the root
    assert abs(_number(rec["rho"]) - _REFERENCE.radius(key)) <= 1e-11 + tol, key


def _check_verify(rec):
    inside, outside = rec["inside_scan"], rec["just_outside_scan"]
    assert inside["pass"] is (inside["witness"] is None), rec
    assert outside["pass"] is (outside["witness"] is not None), rec


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_argv())
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code >= 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n"), (argv, err)
        return
    assert err == "", (argv, err)
    records = _records(out)
    assert records, argv
    if argv[0] == "radius":
        (rec,) = records
        _check_radius(argv, rec)
    elif argv[0] == "verify":
        for rec in records:
            _check_verify(rec)


@pytest.mark.parametrize("argv", [
    ["verify", "--class", "g1", "--b", "-1", "--n-samples", "1000001"],
    ["boundary", "--target", "sine", "--n", "1000001"],
    ["table", "--class", "g1", "--b-start", "-1", "--b-end", "0",
     "--b-steps", "1000001"],
], ids=lambda argv: argv[0])
def test_refusal_past_a_cap_allocates_nothing(argv):
    # a size past its cap is refused before anything in proportion to it
    # is allocated: the peak stays below 1 MB where the size would take
    # tens of MB or more
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out.getvalue() == "", argv
    assert "1000001" in err.getvalue()
    assert peak < 1 << 20, (argv, peak)
