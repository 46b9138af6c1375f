"""Acceptance gate: one test per shipped criterion, each ending in a single
PASS line (pytest's own -v output doubles as the pass/fail record).

Criteria:
  1. context-sensitivity fixture: cfa1 flags only callback1, cfa0 both
  2. augmentation fixture: sensitive detected only with safe edges
  3. parametric fixture: exactly one statement yields a sensitive
  4. published coverage arithmetic reproduced exactly
  5. oracle equivalence on >= 50 random programs, under 60 s
  6. soundness invariants on fixtures + random programs
  7. corpus collector matches hand-computed classification
"""

import time

import pytest

from oracles import andersen_oracle, detected_oracle
from permplace import collector, pipeline
from permplace.analysis import cha_reach_partition, detected_sensitives, traverse
from permplace.collector import coverage_from_counts
from permplace.model import link_program, load_app
from randprog import gen_app


def _ok(n, detail=""):
    print(f"\nACCEPTANCE CRITERION {n}: PASS {detail}".rstrip())


def test_criterion_1_context_sensitivity(fixtures_dir, spec):
    start = time.perf_counter()
    prepared = pipeline.prepare_paths(
        fixtures_dir / "threads.app.json", [fixtures_dir / "framework.json"], spec=spec
    )
    cfa1 = traverse(prepared, mode="cfa1")
    cfa0 = traverse(prepared, mode="cfa0")
    elapsed = time.perf_counter() - start

    assert [cb["method"] for cb in cfa1.callbacks] == ["app.Host#callback1()"]
    (cb,) = cfa1.callbacks
    paths = [p for ip in cb["insertionPoints"] for s in ip["sensitives"] for p in s["paths"]]
    assert len(paths) == 1 and not paths[0]["ambiguous"]

    assert sorted(cb["method"] for cb in cfa0.callbacks) == [
        "app.Host#callback1()",
        "app.Host#callback2()",
    ]
    cb2 = next(cb for cb in cfa0.callbacks if cb["method"] == "app.Host#callback2()")
    paths2 = [p for ip in cb2["insertionPoints"] for s in ip["sensitives"] for p in s["paths"]]
    assert paths2 and all(p["ambiguous"] for p in paths2)
    assert elapsed < 1.0
    _ok(1, f"({elapsed:.2f}s)")


def test_criterion_2_augmentation(fixtures_dir, spec):
    start = time.perf_counter()
    overlays = [fixtures_dir / "framework.json"]
    app = fixtures_dir / "viewstub.app.json"
    sensitive = "app.MyView#callSensitive()/4"

    plain = pipeline.prepare_paths(app, overlays, spec=spec, augment=False)
    report = traverse(plain, mode="cfa1")
    part = cha_reach_partition(plain, detected_sensitives(report))
    assert [str(s.site) for s in part["cha_reachable_undetected"]] == [sensitive]
    assert part["detected"] == []

    augmented = pipeline.prepare_paths(app, overlays, spec=spec)
    report2 = traverse(augmented, mode="cfa1")
    assert detected_sensitives(report2) == {sensitive}
    (cb,) = report2.callbacks
    assert cb["method"] == "app.MyActivity#onCreate()"
    assert [ip["stmt"] for ip in cb["insertionPoints"]] == [2]  # v.callSensitive()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(2, f"({elapsed:.2f}s)")


def test_criterion_3_parametric(parametric):
    assert [str(s.site) for s in parametric.sensitives] == ["app.Para#onCreate()/2"]
    (s,) = parametric.sensitives
    assert s.kind == "field"
    assert s.permissions == frozenset({"android.permission.READ_CONTACTS"})
    _ok(3)


def test_criterion_4_metric_arithmetic():
    assert coverage_from_counts(44, 80)[1] == 35
    assert coverage_from_counts(106, 18)[1] == 85
    _ok(4)


def test_criterion_5_oracle_equivalence(framework, spec):
    start = time.perf_counter()
    n = 50
    for seed in range(n):
        prepared = pipeline.prepare(gen_app(seed), [framework], spec=spec)
        pts, fld, sfld, edges, reachable = andersen_oracle(prepared.program)
        assert prepared.sol.pts0 == pts, f"seed {seed}"
        assert prepared.sol.fpts0 == fld and prepared.sol.spts0 == sfld, f"seed {seed}"
        assert prepared.cg_raw.edges == edges, f"seed {seed}"
        assert prepared.cg_raw.reachable == reachable, f"seed {seed}"
        for mode in ("cfa0", "cfa1"):
            got = detected_sensitives(traverse(prepared, mode=mode))
            want = detected_oracle(
                prepared.program,
                prepared.cg,
                prepared.sol,
                prepared.sensitives,
                mode,
            )
            assert got == want, f"seed {seed} ({mode})"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(5, f"({n} programs, {elapsed:.2f}s)")


def test_criterion_6_invariants():
    """The dedicated invariant suite carries the detail; rerun it here so
    the acceptance record is self-contained."""
    import pathlib
    import subprocess
    import sys

    target = pathlib.Path(__file__).with_name("test_invariants.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(target)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _ok(6)


def test_criterion_7_collector(fixtures_dir, framework, spec, groups):
    corpus = []
    for path in sorted((fixtures_dir / "corpus").glob("*.json")):
        program = link_program(load_app(path), [framework])
        corpus.append(collector.collect_usage(program, spec, groups))
    labels = {u.app: u.labels for u in corpus}

    fine = "android.permission.ACCESS_FINE_LOCATION"
    assert labels == {
        "alpha": {fine: "MCS"},
        "bravo": {"android.permission.CAMERA": "MC"},
        "charlie": {"android.permission.ACCESS_COARSE_LOCATION": "MCS", fine: "M"},
        "delta": {"android.permission.READ_CONTACTS": "M"},
        "echo": {"android.permission.RECORD_AUDIO": "MS"},
    }
    ratio, pct = collector.coverage(labels.values())
    assert ratio == pytest.approx(2 / 3) and pct == 67

    over = collector.overprivilege_report(corpus, groups)
    assert over["charlie"] == {"same_group": [fine], "cross_group": []}
    assert over["delta"] == {
        "same_group": [],
        "cross_group": ["android.permission.READ_CONTACTS"],
    }
    _ok(7)
