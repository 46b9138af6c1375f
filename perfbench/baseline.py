"""Run the benchmark over several seeds and summarise the runs.

From the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1 --out results.json

Runs ``run.py`` once per (workload, seed), one run at a time, untraced for
``--seeds`` and traced for ``--trace-seeds``. Writes every run's result to
``--out`` and prints a Markdown summary: for each end-to-end metric its
median, quartiles and quartile spread over the seeds, and for each traced
workload every layer's self time with its share of op time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from run import HERE, ROOT


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return result


def spread_table(runs):
    lines = ["| metric | unit | median | q1 | q3 | (q3-q1)/median |", "|---|---|---|---|---|---|"]
    names = runs[0]["metrics"]
    for name, first in names.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        lines.append(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {rel:.3f} |")
    return lines


def layer_table(result):
    m = result["metrics"]
    op_s = sum(v["value"] for k, v in m.items() if k.endswith(".s"))
    lines = ["| metric | unit | value | share of op time |", "|---|---|---|---|"]
    for name, v in m.items():
        share = f"{v['value'] / op_s:.1%}" if name.endswith(".s") and op_s else ""
        lines.append(f"| {name} | {v['unit']} | {v['value']:.6g} | {share} |")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workload or workloads.WORKLOADS:
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for seed in seeds:
                result = run(workload, seed, args.seconds, trace)
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result})
                print(f"<!-- {workload} seed {seed} trace {trace}: "
                      f"{result['attempted']} attempted, {result['failed']} failed -->",
                      file=sys.stderr)
    Path(args.out).write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1)
                              + "\n", encoding="utf-8")

    out = []
    for workload in args.workload or workloads.WORKLOADS:
        plain = [r["result"] for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        if plain:
            out += [f"### {workload}: end to end, {len(plain)} seeds", ""]
            out += spread_table(plain) + [""]
        for r in traced:
            out += [f"### {workload}: per layer, traced run, seed {r['seed']}", ""]
            out += layer_table(r["result"]) + [""]
    print("\n".join(out))


if __name__ == "__main__":
    main()
