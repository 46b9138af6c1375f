"""The benchmark's tracer wraps permplace functions by (module, name); a
renamed or deleted function would silently drop its spans and per-layer
metrics from ``perfbench/run.py --trace 1``."""

import ast
import importlib
from pathlib import Path

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
