"""Span tracer for the radstar benchmark.

The tracer wraps radstar's public functions from outside the package, so a
call one layer makes into another is recorded too. Each span records a name,
start, end (perf_counter nanoseconds), parent span id, operation id, the time
its children cover and an optional tag. Spans are kept in memory and written
out when the run ends.

Four hot scalar calls are leaves instead of spans: RadiusCondition.__call__
(one h evaluation; a cell makes about 230), bounds.disk,
regions.containment_threshold and extremal.log_deriv. A leaf adds its count
and duration to a per-name total and its duration to the child time of the
enclosing span; a leaf called inside another leaf (the disk map inside an RL
h evaluation) only adds to its own total. One span per h evaluation would
take gigabytes on the sweep.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns

# Families whose radstar membership uses the winding number.
WINDING_FAMILIES = ("sine", "rational")
# Separates a traced CLI invocation's output from its trace (clitrace.py).
TRACE_MARKER = "@@radstar-bench-trace@@"


def _root_tag(args, result):
    return [args[0].kind.value, result.iterations]


def _mask_tag(args, result):
    family = args[0].family.value
    return ["winding" if family in WINDING_FAMILIES else "algebraic", len(result)]


class Tracer:
    def __init__(self):
        self.spans = []   # (id, name, start, end, parent, op, child_ns, tag)
        self.leaves = defaultdict(lambda: [0, 0])  # name -> [count, ns]
        self.op = -1
        self._stack = []  # open spans: [id, child_ns]
        self._next_id = 0
        self._leaf_depth = 0
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, tag=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            rec = [sid, 0]
            self._stack.append(rec)
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                self._stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                label = tag(args, result) if (tag and result is not None) else None
                self.spans.append((sid, name, t0, t1,
                                   parent[0] if parent else -1,
                                   self.op, rec[1], label))
        return wrapper

    def _leaf(self, name, fn):
        stat = self.leaves[name]

        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _now() - t0
                self._leaf_depth -= 1
                stat[0] += 1
                stat[1] += d
                if self._leaf_depth == 0 and self._stack:
                    self._stack[-1][1] += d
        return wrapper

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap radstar's public functions; undo with uninstall()."""
        from radstar import bounds, cli, core, extremal, regions, solver, verify
        leaf, span = self._leaf, self._span
        self._patch([core.RadiusCondition], "__call__",
                    leaf("core.h_eval", core.RadiusCondition.__call__))
        self._patch([bounds], "disk", leaf("bounds.disk", bounds.disk))
        self._patch([regions], "containment_threshold",
                    leaf("regions.containment_threshold",
                         regions.containment_threshold))
        self._patch([extremal, verify], "log_deriv",
                    leaf("extremal.log_deriv", extremal.log_deriv))
        for name in ("assemble_condition", "compute_radius", "radius_table"):
            self._patch([solver], name, span("solver." + name, getattr(solver, name)))
        self._patch([solver], "smallest_root_in_01",
                    span("solver.smallest_root_in_01",
                         solver.smallest_root_in_01, _root_tag))
        self._patch([regions], "membership_mask",
                    span("regions.membership_mask", regions.membership_mask,
                         _mask_tag))
        self._patch([regions], "region_boundary",
                    span("regions.region_boundary", regions.region_boundary))
        for name in ("verify_cell", "containment_scan", "sharpness_check",
                     "adjudicate_variant"):
            self._patch([verify], name, span("verify." + name, getattr(verify, name)))
        for name in ("cmd_radius", "cmd_table", "cmd_verify", "cmd_sharpness",
                     "cmd_adjudicate", "cmd_boundary"):
            self._patch([cli], name, span("cli.cmd", getattr(cli, name)))
        self._patch([cli], "main", span("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": dict(self.leaves)}

    def merge(self, dumped: dict, op: int) -> None:
        """Add the spans and leaves of another tracer (a child process),
        renumbering span ids and setting their operation id."""
        base = self._next_id
        for sid, name, t0, t1, parent, _, child, tag in dumped["spans"]:
            self.spans.append((base + sid, name, t0, t1,
                               base + parent if parent >= 0 else -1,
                               op, child, tag))
            self._next_id = max(self._next_id, base + sid + 1)
        for name, (count, ns) in dumped["leaves"].items():
            self.leaves[name][0] += count
            self.leaves[name][1] += ns


# ---------------------------------------------------------------------------
# Per-layer metrics

def _mean(xs):
    return statistics.fmean(xs) if xs else None


def layer_metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-layer figures of one traced run; None where the layer was not
    called."""
    by = defaultdict(list)
    for span in tr.spans:
        by[span[1]].append(span)

    def mean_us(name):
        return _mean([(s[3] - s[2]) / 1e3 for s in by[name]])

    def self_ms(name):
        return _mean([(s[3] - s[2] - s[6]) / 1e6 for s in by[name]])

    def leaf_us(name):
        count, ns = tr.leaves.get(name, (0, 0))
        return ns / count / 1e3 if count else None

    roots = [s for s in by["solver.smallest_root_in_01"] if s[7]]
    root_us = {kind: _mean([(s[3] - s[2]) / 1e3 for s in roots if s[7][0] == kind])
               for kind in ("polynomial", "composite")}
    mask_ns, mask_pts = defaultdict(int), defaultdict(int)
    for s in filter(lambda s: s[7], by["regions.membership_mask"]):
        mask_ns[s[7][0]] += s[3] - s[2]
        mask_pts[s[7][0]] += s[7][1]
    h_count = tr.leaves.get("core.h_eval", (0, 0))[0]
    boundary = mean_us("regions.region_boundary")
    table_self = self_ms("solver.radius_table")
    return {
        "core.h_eval_us": leaf_us("core.h_eval"),
        "core.h_evals_per_cell": h_count / len(roots) if roots else 0.0,
        "solver.assemble_us": mean_us("solver.assemble_condition"),
        "solver.root_us.polynomial": root_us["polynomial"],
        "solver.root_us.composite": root_us["composite"],
        "solver.bisect_iters_per_cell": _mean([s[7][1] for s in roots]) or 0.0,
        "solver.table_self_ms": table_self,
        "bounds.disk_us": leaf_us("bounds.disk"),
        "bounds.disk_calls_per_op": tr.leaves.get("bounds.disk", (0, 0))[0] / n_ops,
        "regions.threshold_us": leaf_us("regions.containment_threshold"),
        "regions.mask_us_per_point.algebraic": (
            mask_ns["algebraic"] / mask_pts["algebraic"] / 1e3
            if mask_pts["algebraic"] else None),
        "regions.mask_us_per_point.winding": (
            mask_ns["winding"] / mask_pts["winding"] / 1e3
            if mask_pts["winding"] else None),
        "regions.mask_points_per_op": sum(mask_pts.values()) / n_ops,
        "regions.boundary_ms": boundary / 1e3 if boundary is not None else None,
        "verify.scan_self_ms": self_ms("verify.containment_scan"),
        "verify.sharpness_us": mean_us("verify.sharpness_check"),
        "extremal.log_deriv_us": leaf_us("extremal.log_deriv"),
        "cli.emit_ms": self_ms("cli.cmd"),
    }
