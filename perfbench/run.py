"""Benchmark for permplace: one workload per process, ops run in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload deep-dispatch --seed 1 --seconds 20 --trace 0

One op is one ``permplace.cli.run`` call on one generated instance, as a
user's ``permplace analyze`` / ``permplace collect`` would run it. Ops run
back to back (a closed loop with one client) until ``--seconds`` have
passed. Every op's output is checked against the digest recorded for its
instance in ``digests.json``; on ``deep-dispatch`` and ``heap-dense`` the
points-to solution and raw call graph of the run's smallest instance are
also checked against ``tests/oracles.andersen_oracle``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
module's public functions (see ``tracer.py``) and reports per-layer
metrics. It runs every op twice, traced and then untraced, to measure the
tracing overhead, and writes the spans to ``.perfbench/``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
# Set-up is timed a few times before the first op and then once every
# SETUP_INTERVAL seconds between cycles, so that its median is not taken
# from one moment of a machine whose speed drifts.
SETUP_REPEATS = 3
SETUP_INTERVAL = 2.0
ORACLE_WORKLOADS = ("deep-dispatch", "heap-dense")
REQUIRED = (
    Path("src") / "permplace" / "cli.py",
    Path("tests") / "oracles.py",
    workloads.FRAMEWORK,
    workloads.SPEC,
    workloads.GROUPS,
)


def measure_setup():
    """Seconds to import ``permplace`` and its CLI, then load framework,
    spec and groups, from an empty module cache. The first call in a
    process is the cold set-up and leaves its modules loaded; later calls
    import a fresh copy, time it and put the loaded modules back."""
    loaded = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "permplace"}
    for name in loaded:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("permplace.cli")
    permplace = sys.modules["permplace"]
    permplace.load_app(ROOT / workloads.FRAMEWORK)
    permplace.load_spec(ROOT / workloads.SPEC)
    permplace.load_groups(ROOT / workloads.GROUPS)
    elapsed = time.perf_counter() - t0
    if loaded:
        for name in [n for n in sys.modules if n.split(".")[0] == "permplace"]:
            del sys.modules[name]
        sys.modules.update(loaded)
    return elapsed


class Runner:
    def __init__(self, workload, work, digests, tracer=None):
        self.workload = workload
        self.work = work
        self.digests = digests
        self.tracer = tracer
        self.cli = sys.modules["permplace.cli"]
        self.ops = []  # (key, stmts, seconds, error or None)

    def run_op(self, key):
        op = workloads.Op(ROOT, self.work, workloads.instance(key))
        if self.tracer:
            self.tracer.install()
            self.tracer.begin_op(len(self.ops))
        t0 = time.perf_counter()
        try:
            rc = self.cli.run(op.argv)
            error = None if rc == 0 else f"exit code {rc}"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            traceback.print_exc(limit=3, file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if self.tracer:
            self.tracer.uninstall()
            self.tracer.end_op()
        if error is None:
            want = self.digests.get(key)
            got = op.digest()
            if want is None:
                error = "no reference digest recorded"
            elif got != want:
                error = f"output sha256 {got} differs from reference {want}"
        if error:
            print(f"FAILED op {key}: {error}", file=sys.stderr)
        self.ops.append((key, op.inst.stmts, elapsed, error))

    def run_for(self, seconds, order, setup_times, twin=None):
        """Walk ``order`` in whole cycles until ``seconds`` have passed,
        timing set-up again between cycles into ``setup_times``. ``twin``
        reruns each op right after this runner's, so that traced and
        untraced timings of the same input interleave."""
        now = time.perf_counter()
        deadline = now + seconds
        next_setup = now + SETUP_INTERVAL
        cycle = 0
        while cycle == 0 or time.perf_counter() < deadline:
            for key in workloads.cycle_keys(self.workload, order[cycle % len(order)]):
                self.run_op(key)
                if twin is not None:
                    twin.run_op(key)
            cycle += 1
            if time.perf_counter() >= next_setup:
                setup_times.append(measure_setup())
                next_setup = time.perf_counter() + SETUP_INTERVAL

    @property
    def failed(self):
        return sum(1 for op in self.ops if op[3])

    def stmts_per_s(self):
        return sum(op[1] for op in self.ops) / sum(op[2] for op in self.ops)


def tail(times):
    """(value, percentile, samples): the highest percentile of ``times``
    with at least ten samples beyond it (the maximum when there are fewer)."""
    ranked = sorted(times)
    n = len(ranked)
    if n <= 10:
        return ranked[-1], 100.0, n
    return ranked[n - 11], 100.0 * (n - 10) / n, n


def oracle_mismatches(key):
    """Names of the solution parts that differ from ``andersen_oracle``."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    from permplace import load_app, load_spec, pipeline
    from permplace.model import app_from_dict

    prepared = pipeline.prepare(
        app_from_dict(workloads.instance(key).apps[0], key),
        [load_app(ROOT / workloads.FRAMEWORK)],
        spec=load_spec(ROOT / workloads.SPEC),
    )
    got = (
        prepared.sol.pts0,
        prepared.sol.fpts0,
        prepared.sol.spts0,
        prepared.cg_raw.edges,
        prepared.cg_raw.reachable,
    )
    want = oracles.andersen_oracle(prepared.program)
    names = ("pts0", "fpts0", "spts0", "call edges", "reachable")
    return [name for name, g, w in zip(names, got, want) if g != w]


def end_to_end(runner, setup_s):
    times = [op[2] for op in runner.ops]
    tail_s, pct, n = tail(times)
    print(f"op_tail_s is p{pct:.1f} of {n} op samples")
    return {
        "setup_s": (setup_s, "s"),
        "stmts_per_s": (runner.stmts_per_s(), "stmt/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (1 - runner.failed / len(runner.ops), "ratio"),
    }


def src_loc():
    return sum(
        1
        for path in (ROOT / "src").rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a permplace checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

    setup_times = [measure_setup() for _ in range(SETUP_REPEATS)]
    order = workloads.pool_order(args.workload, args.seed)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        runner = Runner(args.workload, work, digests, tracer)
        untraced = Runner(args.workload, work, digests) if tracer else None
        runner.run_for(args.seconds, order, setup_times, untraced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.ops)
    failed = runner.failed
    if args.workload in ORACLE_WORKLOADS:
        smallest = min(runner.ops, key=lambda op: (op[1], op[0]))[0]
        bad = oracle_mismatches(smallest)
        attempted += 1
        if bad:
            failed += 1
            print(f"FAILED andersen_oracle check on {smallest}: {', '.join(bad)} differ",
                  file=sys.stderr)

    if tracer:
        attempted += len(untraced.ops)
        failed += untraced.failed
        metrics = tracer.layer_metrics([op[1] for op in runner.ops])
        traced_rate = runner.stmts_per_s()
        untraced_rate = untraced.stmts_per_s()
        metrics["trace.stmts_per_s"] = (traced_rate, "stmt/s")
        metrics["trace.untraced_stmts_per_s"] = (untraced_rate, "stmt/s")
        metrics["trace.overhead"] = (untraced_rate / traced_rate, "ratio")
        metrics["trace.ops"] = (float(len(runner.ops)), "count")
        metrics["repo.src_loc"] = (float(src_loc()), "lines")
        metrics["fail_rate"] = (failed / attempted, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(runner, statistics.median(setup_times))

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
