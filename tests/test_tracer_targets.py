"""The benchmark's tracer wraps permplace functions by (module, name); a
renamed or deleted function would silently drop its spans and per-layer
metrics from ``perfbench/run.py --trace 1``."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from permplace import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"permplace.{module}"), name, None))
    ]
    assert missing == []


def _load_tracer():
    """perfbench/tracer.py as a module, leaving no bytecode in perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_tracer_counts_what_the_commands_write(fixtures_dir, tmp_path):
    """The tracer reads ``len(write_report(...))`` as the report's size and
    ``filter_edges``' site and context at positions 4 and 5; a writer that
    streamed or a reordered signature would break only traced runs."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    common = [
        "--spec", str(fixtures_dir / "fixture.spec.json"),
        "--framework", str(fixtures_dir / "framework.json"),
    ]
    report = tmp_path / "report.json"
    analyze = ["analyze", str(fixtures_dir / "threads.app.json"), *common, "--cfa", "1"]
    collect = [
        "collect", str(fixtures_dir / "corpus"), *common,
        "--groups", str(fixtures_dir / "groups.json"),
        "-o", str(tmp_path / "usage.csv"), "--summary", str(tmp_path / "summary.json"),
    ]
    codes = []
    for op, argv in enumerate((analyze + ["-o", str(report)], collect)):
        tracer.install()
        tracer.begin_op(op)
        try:
            codes.append(cli.run(argv))
        finally:
            tracer.uninstall()
            tracer.end_op()
    assert codes == [0, 0]
    for module, name in tracer_module.TARGETS:
        assert getattr(importlib.import_module(f"permplace.{module}"), name).__name__ == name

    untraced = tmp_path / "untraced.json"
    assert cli.run(analyze + ["-o", str(untraced)]) == 0
    assert report.read_bytes() == untraced.read_bytes()
    assert tracer.counters["analysis.report_bytes"] == report.stat().st_size > 0
    _by_name, _by_op, calls = tracer.self_times()
    assert calls["cfa1.filter_edges"] > 0
    assert tracer.counters["cfa1.filter_edges.distinct_keys"] > 0
    assert calls["collector.collect_usage"] > 0
