"""Reports stay byte-identical: one instance of each benchmark workload
shape runs through ``cli.run`` and must hash to the digest the benchmark
recorded for it in ``perfbench/digests.json``."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from permplace import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
KEYS = ["heap-dense/20/0", "heap-dense/40/0", "heap-dense/80/0", "deep-dispatch/0", "corpus-audit/0"]


@pytest.mark.parametrize("key", KEYS)
def test_report_matches_recorded_digest(key, workloads, tmp_path):
    want = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))[key]
    op = workloads.Op(ROOT, tmp_path, workloads.instance(key))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(op.argv) == 0
    assert op.digest() == want
