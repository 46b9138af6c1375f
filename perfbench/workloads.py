"""The benchmark's workloads: instance pools, op command lines and output
digests.

An instance is one generated input, named by a key such as
``heap-dense/40/17``. Each workload draws its instances from a fixed pool,
so every op's output can be checked against a digest recorded in
``digests.json``; a run's ``--seed`` picks the order in which it walks the
pool. One op is one ``permplace.cli.run`` call on one instance.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import gen

FIXTURES = Path("tests") / "fixtures"
FRAMEWORK = FIXTURES / "framework.json"
SPEC = FIXTURES / "fixture.spec.json"
GROUPS = FIXTURES / "groups.json"

# Sizes, chosen so that one op takes a few tenths of a second (dozens of
# ops per run, enough for a tail percentile) while the layer each workload
# targets still dominates; README.md gives the measurements behind them.
DEEP_DISPATCH = gen.DeepDispatch()
HEAP_DENSE_RUNGS = (20, 40, 80)  # workers per app; allocations grow with them
CORPUS_SHARD = gen.CorpusShard()

POOL = {"deep-dispatch": 256, "heap-dense": 96, "corpus-audit": 256}
WORKLOADS = tuple(POOL)


@dataclass(frozen=True)
class Instance:
    key: str
    apps: tuple  # app dicts; one for analyze, a whole shard for collect

    @property
    def stmts(self) -> int:
        return sum(gen.count_stmts(a) for a in self.apps)


def instance(key: str) -> Instance:
    workload, *rest = key.split("/")
    if workload == "deep-dispatch":
        return Instance(key, (gen.deep_dispatch_app(key, DEEP_DISPATCH),))
    if workload == "heap-dense":
        workers = int(rest[0])
        return Instance(key, (gen.heap_dense_app(key, gen.HeapDense(workers=workers)),))
    if workload == "corpus-audit":
        return Instance(key, tuple(gen.corpus_shard(key, CORPUS_SHARD)))
    raise ValueError(f"unknown workload in instance key {key!r}")


def cycle_keys(workload: str, index: int):
    """Instance keys of one cycle: one per heap-dense rung, else one."""
    if workload == "heap-dense":
        return [f"heap-dense/{w}/{index}" for w in HEAP_DENSE_RUNGS]
    return [f"{workload}/{index}"]


def pool_order(workload: str, seed: int):
    """The pool indices a run walks, in the order ``seed`` gives them."""
    n = POOL[workload]
    return random.Random(seed).sample(range(n), n)


def all_keys(workload: str):
    return [k for i in range(POOL[workload]) for k in cycle_keys(workload, i)]


class Op:
    """Input files and the ``cli.run`` argv for one instance in ``work``."""

    def __init__(self, root: Path, work: Path, inst: Instance):
        self.inst = inst
        framework, spec, groups = (str(root / f) for f in (FRAMEWORK, SPEC, GROUPS))
        for stale in work.iterdir():
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
        if inst.key.startswith("corpus-audit/"):
            shard = work / "shard"
            shard.mkdir()
            for a in inst.apps:
                (shard / f"{a['name']}.json").write_text(json.dumps(a), encoding="utf-8")
            self.outputs = (work / "usage.csv", work / "summary.json")
            self.argv = [
                "collect", str(shard), "--spec", spec, "--groups", groups,
                "--framework", framework, "-o", str(self.outputs[0]),
                "--summary", str(self.outputs[1]),
            ]
        else:
            app_path = work / "app.json"
            app_path.write_text(json.dumps(inst.apps[0]), encoding="utf-8")
            self.outputs = (work / "report.json",)
            self.argv = [
                "analyze", str(app_path), "--spec", spec, "--framework", framework,
                "--cfa", "1", "--max-depth", "50", "--max-paths", "100",
                "-o", str(self.outputs[0]),
            ]

    def digest(self) -> str:
        """sha256 over every output file, in order; missing files count."""
        h = hashlib.sha256()
        for path in self.outputs:
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes() if path.exists() else b"<missing>")
            h.update(b"\0")
        return h.hexdigest()
