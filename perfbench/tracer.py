"""Span tracing around the public functions of each ``permplace`` module.

The tracer replaces a function at every name it is bound to in a loaded
``permplace`` module (``permplace.analysis.filter_edges`` as well as
``permplace.cfa1.filter_edges``), so calls are caught at the names their
callers use and nothing under ``src/`` changes. Each call records a span
(name, start, end, parent span, op id) in memory. Counters are derived
from the returned objects once an op has ended, outside its timing.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs to wrap, in layer order
TARGETS = (
    ("model", "load_app"),
    ("model", "link_program"),
    ("permspec", "load_spec"),
    ("permspec", "load_groups"),
    ("hierarchy", "build_hierarchy"),
    ("entrypoints", "detect_callbacks"),
    ("intraflow", "intraproc_values"),
    ("intraflow", "possible_types"),
    ("pointsto", "solve_0cfa"),
    ("pointsto", "augment_call_graph"),
    ("cfa1", "filter_edges"),
    ("analysis", "find_sensitive_sites"),
    ("analysis", "traverse"),
    ("analysis", "write_report"),
    ("collector", "collect_usage"),
    ("collector", "usage_csv"),
    ("collector", "corpus_summary"),
    ("pipeline", "prepare"),
    ("cli", "run"),
)

# spans whose call count is a metric of its own
CALL_COUNTS = (
    "hierarchy.build_hierarchy",
    "intraflow.intraproc_values",
    "intraflow.possible_types",
    "cfa1.filter_edges",
)


def _solve_counts(args, result):
    sol, cg = result
    return {
        "pointsto.pts_facts": sum(
            len(v) for table in (sol.pts0, sol.fpts0, sol.spts0) for v in table.values()
        ),
        "pointsto.call_edges": sum(len(v) for v in cg.edges.values()),
        "pointsto.reachable_methods": len(cg.reachable),
    }


# function name -> counter increments derived from (args, result)
COUNTERS = {
    "model.load_app": lambda a, r: {"model.input_bytes": os.path.getsize(a[0])},
    "entrypoints.detect_callbacks": lambda a, r: {"entrypoints.callbacks": len(r)},
    "pointsto.solve_0cfa": _solve_counts,
    "pointsto.augment_call_graph": lambda a, r: {
        "pointsto.augmented_edges": sum(
            1 for v in r.edges.values() for _t, prov in v if prov == "augmented"
        )
    },
    "analysis.find_sensitive_sites": lambda a, r: {"analysis.sensitives": len(r)},
    "analysis.traverse": lambda a, r: {
        "analysis.paths": r.summary["paths"],
        "analysis.detected": r.summary["sensitivesDetected"],
    },
    "analysis.write_report": lambda a, r: {"analysis.report_bytes": len(r)},
}

# every counter, with its unit; filter_edges counters come from end_op
COUNTER_UNITS = {
    "model.input_bytes": "B/op",
    "entrypoints.callbacks": "count/op",
    "pointsto.pts_facts": "count/op",
    "pointsto.call_edges": "count/op",
    "pointsto.reachable_methods": "count/op",
    "pointsto.augmented_edges": "count/op",
    "cfa1.filter_edges.distinct_keys": "count/op",
    "cfa1.edges_pruned": "count/op",
    "cfa1.ambiguous_sites": "count/op",
    "analysis.sensitives": "count/op",
    "analysis.paths": "count/op",
    "analysis.detected": "count/op",
    "analysis.report_bytes": "B/op",
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.kept = []  # (name, args, result) of the current op, for counters
        self.filter_calls = []  # (cg, site, ctx, result) of the current op
        self.counters = dict.fromkeys(COUNTER_UNITS, 0)
        self._bindings = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, nid, fn):
        name = self.names[nid]
        keep = name in COUNTERS
        is_filter = name == "cfa1.filter_edges"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if is_filter:
                self.filter_calls.append((args[0], args[4], args[5], result))
            elif keep:
                self.kept.append((name, args, result))
            return result

        return traced

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every name a target is
        bound to in the loaded ``permplace`` modules."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "permplace"]
        for nid, (mod, fn) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"permplace.{mod}"], fn)
            traced = self._wrap(nid, orig)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is orig:
                        self._bindings.append((m, attr, orig, traced))

    def install(self):
        if not self._bindings:
            self._find_bindings()
        for m, attr, _orig, traced in self._bindings:
            setattr(m, attr, traced)

    def uninstall(self):
        for m, attr, orig, _traced in self._bindings:
            setattr(m, attr, orig)

    # -- per-op bookkeeping -------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack = [-1]

    def end_op(self):
        c = self.counters
        for name, args, result in self.kept:
            for counter, value in COUNTERS[name](args, result).items():
                c[counter] += value
        keys = set()
        ambiguous = set()
        for cg, site, ctx, (edges, amb) in self.filter_calls:
            if (site, ctx) in keys:
                continue
            keys.add((site, ctx))
            c["cfa1.edges_pruned"] += len(cg.edges_at(site)) - len(edges)
            if amb:
                ambiguous.add(site)
        c["cfa1.filter_edges.distinct_keys"] += len(keys)
        c["cfa1.ambiguous_sites"] += len(ambiguous)
        self.kept.clear()
        self.filter_calls.clear()
        self.op_id = -1

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(per-name summed self time, per-(name, op) self time, per-name calls)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        by_name = defaultdict(float)
        by_name_op = defaultdict(float)
        calls = defaultdict(int)
        for i in range(n):
            own = self.end[i] - self.start[i] - child[i]
            name = self.names[self.name[i]]
            by_name[name] += own
            by_name_op[name, self.op[i]] += own
            calls[name] += 1
        return by_name, by_name_op, calls

    def layer_metrics(self, op_stmts):
        """Per-op averages of self times and counters over the traced ops.

        ``op_stmts[k]`` is the app statement count of op ``k``."""
        n_ops = len(op_stmts)
        by_name, by_name_op, calls = self.self_times()
        out = {}
        for name in self.names:
            out[f"{name}.s"] = (by_name[name] / n_ops, "s/op")
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
        for name, unit in COUNTER_UNITS.items():
            out[name] = (self.counters[name] / n_ops, unit)
        filter_calls = calls["cfa1.filter_edges"]
        out["cfa1.filter_edges.distinct_ratio"] = (
            self.counters["cfa1.filter_edges.distinct_keys"] / filter_calls
            if filter_calls else 0.0,
            "ratio",
        )
        solve = [
            (op_stmts[k], by_name_op["pointsto.solve_0cfa", k]) for k in range(n_ops)
        ]
        out["pointsto.solve_0cfa.exponent"] = (fit_exponent(solve), "1")
        out["trace.spans"] = (len(self.start) / n_ops, "count/op")
        return out

    def dump(self, path):
        """Write every span as columns; times are seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": list(self.name),
            "start": [t - t0 for t in self.start],
            "end": [t - t0 for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def fit_exponent(points):
    """Least-squares slope of log(time) over log(size), or 0.0 when the
    sizes span less than a factor of 1.5 (nothing to fit)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    xs = [x for x, _ in pts]
    if max(xs) - min(xs) < math.log(1.5):
        return 0.0
    mx = sum(xs) / len(xs)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
