#!/usr/bin/env python3
"""The radstar benchmark.

One run:
    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 36 --trace 0

prints the Python and numpy versions and the CPU count, then as its last line
one JSON object with "correct", "attempted", "failed" and "metrics". With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (and the spans go to benchmarks/out/).

Steadiness check (two sets of runs of the same code, one run at a time):
    python3 benchmarks/run.py --steadiness 10

Run it from the root of a radstar source tree; radstar is imported from src/.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "verify-grid", "cli-cold")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 11
MIN_ROUNDS = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import radstar; t2 = time.perf_counter(); "
                "print((t1 - t0) * 1e3, (t2 - t0) * 1e3)")
# In-process CLI calls that reach every layer a workload's own operations may
# not reach. The result line must give every per-layer metric as a measured
# number, so a per-call timing of a layer the workload never calls is taken
# from these calls instead (the per-operation counts stay the workload's).
PROBE_REPEATS = 3
PROBE = (
    ["table", "--class", "g1", "--mag-grid", "0.5"],
    ["verify", "--class", "g2", "--b", "-1", "--targets", "sine,cardioid"],
    ["boundary", "--target", "cardioid", "--n", "256"],
)
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s",
             "op_p50_ms": "ms", "op_tail_ms": "ms"}
LAYER_UNITS = {
    "core.h_eval_us": "us", "core.h_evals_per_cell": "count",
    "solver.assemble_us": "us", "solver.root_us.polynomial": "us",
    "solver.root_us.composite": "us", "solver.bisect_iters_per_cell": "count",
    "solver.table_self_ms": "ms", "bounds.disk_us": "us",
    "bounds.disk_calls_per_op": "count", "regions.threshold_us": "us",
    "regions.mask_us_per_point.algebraic": "us",
    "regions.mask_us_per_point.winding": "us",
    "regions.mask_points_per_op": "count", "regions.boundary_ms": "ms",
    "verify.scan_self_ms": "ms", "verify.sharpness_us": "us",
    "extremal.log_deriv_us": "us", "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms", "cli.import_numpy_ms": "ms", "cli.emit_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workload(name: str):
    import workloads
    if name == "sweep":
        return workloads.Sweep()
    if name == "verify-grid":
        return workloads.VerifyGrid()
    return workloads.CliCold(child_env(), str(ROOT))


def percentile(xs, pct: float) -> float:
    import numpy as np
    return float(np.percentile(xs, pct))


def setup(wl, seed: int):
    """Set up SETUP_REPEATS times: a fresh interpreter imports radstar, then
    the inputs are built. Returns (inputs, set-up seconds, import probes)."""
    times, probes, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=True)
        inputs = wl.build(seed)
        times.append(time.perf_counter() - t0)
        probes.append([float(x) for x in proc.stdout.split()])
    return inputs, times, probes


class Rounds:
    """The rounds of one run: the first round's outputs, for each later round
    the operations whose output differs from the first round's, and every
    latency sample of every round."""

    def __init__(self):
        self.first = None
        self.differs = []
        self.latencies = []

    def add(self, r) -> None:
        self.latencies += r.latencies
        if self.first is None:
            self.first = r.outputs
            return
        self.differs.append({i for i, (a, b) in enumerate(zip(self.first, r.outputs))
                             if a != b})

    def __len__(self):
        return 0 if self.first is None else 1 + len(self.differs)

    @property
    def ops(self):
        return len(self) * len(self.first)


def latency_metrics(wl, rounds: Rounds) -> dict:
    """Throughput and latency percentiles over every latency sample of the
    run, pooled across its rounds."""
    return {
        "ops_per_s": rounds.ops / sum(rounds.latencies),
        "op_p50_ms": percentile(rounds.latencies, 50.0) * 1e3,
        "op_tail_ms": percentile(rounds.latencies, wl.tail_pct) * 1e3,
    }


def timed_rounds(seconds: float):
    """Yield once per round: at least MIN_ROUNDS rounds, and no round that
    would, at the mean round time so far, end after `seconds`."""
    start, n = time.perf_counter(), 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
            return


def run_untraced(wl, inputs, seconds: float):
    rounds, child_rss = Rounds(), 0.0
    for _ in timed_rounds(seconds):
        r = wl.run_round(inputs)
        rounds.add(r)
        child_rss = max(child_rss, r.child_rss_mb)
    if wl.children:
        peak = child_rss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = latency_metrics(wl, rounds)
    metrics["peak_rss_mb"] = peak
    return rounds, metrics


def run_traced(wl, inputs, seconds: float, seed: int):
    """Alternate untraced and traced rounds; per-layer figures come from the
    traced ones, the tracing overhead from the ratio of their summed
    latencies."""
    from tracer import Tracer, layer_metrics
    import radstar.cli
    tr, rounds, plain, traced = Tracer(), Rounds(), Rounds(), Rounds()
    for _ in timed_rounds(seconds):
        for which, tracer in ((plain, None), (traced, tr)):
            r = wl.run_round(inputs, tracer=tracer)
            which.add(r)
            rounds.add(r)
    probe = Tracer()
    probe.install()
    try:
        for argv in PROBE * PROBE_REPEATS:
            with contextlib.redirect_stdout(io.StringIO()):
                if radstar.cli.main(list(argv)) != 0:
                    raise RuntimeError(f"probe {argv} failed")
    finally:
        probe.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{wl.name}-{seed}.json", "w") as fh:
        json.dump({"workload": tr.dump(), "probe": probe.dump()}, fh)
    metrics = layer_metrics(tr, traced.ops)
    fallback = layer_metrics(probe, 1)
    for name, value in metrics.items():
        if value is None:
            metrics[name] = fallback[name]
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced.latencies) / sum(plain.latencies)
                                             - 1.0)
    return rounds, metrics


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(name)
    inputs, setup_times, probes = setup(wl, seed)
    wl.warm(inputs)
    if trace:
        rounds, metrics = run_traced(wl, inputs, seconds, seed)
        floor = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
            floor.append(time.perf_counter() - t0)
        metrics["cli.interpreter_ms"] = statistics.median(floor) * 1e3
        metrics["cli.import_numpy_ms"] = statistics.median(p[0] for p in probes)
        metrics["cli.import_ms"] = statistics.median(p[1] for p in probes)
        units = LAYER_UNITS
    else:
        rounds, metrics = run_untraced(wl, inputs, seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        units = E2E_UNITS
    found = wl.check(inputs, rounds.first, seed)
    failed = set(found.failed)
    unexpected = failed - found.known_fault
    for differs in rounds.differs:
        unexpected |= differs
    n_failed = len(failed) + sum(len(failed | d) for d in rounds.differs)
    messages = found.problems + [found.failed.get(i, f"op {i} differs between rounds")
                                 for i in sorted(unexpected)]
    messages += [f"known fault: {found.failed[i]}" for i in sorted(found.known_fault)]
    for msg in messages[:30]:
        print(f"check: {msg}", file=sys.stderr)
    return {
        "correct": not found.problems and not unexpected,
        "attempted": rounds.ops,
        "failed": n_failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# Steadiness: two sets of runs of the same code

def steadiness(n_runs: int) -> int:
    seconds = str(SPEC["run_seconds"])
    metrics = SPEC["end_to_end"]
    summary, all_ok = {}, True
    for name in WORKLOADS:
        sets = []
        for s in range(2):
            runs = []
            for k in range(n_runs):
                seed = 1 + s * n_runs + k
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=900)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(f"{name} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in runs[-1]["metrics"].items()), flush=True)
            sets.append(runs)
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        report = {"failed_share": sorted(shares), "failed_share_agrees": len(shares) == 1}
        ok = len(shares) == 1
        for m in metrics:
            key, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = []
            for runs in sets:
                values = [r["metrics"][key]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                stats.append({"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2})
            worse = ((stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
                     * (1.0 if lower else -1.0))
            spread_ok = key == "setup_s" or all(st["spread"] <= bound for st in stats)
            agree = spread_ok and worse <= bound
            ok = ok and agree
            report[key] = {"sets": stats, "second_worse_by": worse, "bound": bound,
                           "agrees": agree}
            print(f"{name:12s} {key:12s} " + "  ".join(
                f"set{i + 1} median={st['median']:.6g} q1={st['q1']:.6g} "
                f"q3={st['q3']:.6g} spread={st['spread']:.4f}"
                for i, st in enumerate(stats))
                + f"  worse_by={worse:+.4f} bound={bound} {'ok' if agree else 'FAIL'}",
                flush=True)
        summary[name] = report
        all_ok = all_ok and ok
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "steadiness.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"steady": all_ok}))
    return 0 if all_ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run two sets of N runs per workload and compare them")
    args = ap.parse_args()
    if not (SRC / "radstar" / "__init__.py").is_file():
        print(f"error: no radstar sources under {SRC}", file=sys.stderr)
        return 2
    # Compile up front so that every interpreter reads bytecode, as from an
    # installed package, whether or not PYTHONDONTWRITEBYTECODE is set.
    for package in (SRC / "radstar", BENCH_DIR):
        compileall.compile_dir(str(package), quiet=1)
    if args.steadiness:
        return steadiness(args.steadiness)
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    import numpy
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {len(os.sched_getaffinity(0))}")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
