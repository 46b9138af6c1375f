"""A command creates no reference cycles, on valid input or malformed, so
``cli.run`` pauses the cyclic collector without holding on to memory: once
the run ends, reference counting has freed everything it made. And no
module but ``cli`` touches ``gc``, so the pause lives in one place."""

import ast
import gc
import json
from collections import Counter
from pathlib import Path

import pytest

import permplace
from permplace.cli import run
from permplace.model import to_dict
from randprog import gen_app, gen_heap_app

ROOT = Path(__file__).resolve().parents[1]


def cyclic_garbage(argv) -> tuple:
    """The exit code of ``run(argv)`` and, by type name, the number of
    objects it left for the cyclic collector to free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = run(argv)
        gc.collect()
        return code, dict(Counter(type(o).__name__ for o in gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.fixture(scope="module")
def files(fixtures_dir, tmp_path_factory):
    """Name -> path of each input: the fixtures, two random programs of each
    generator and one malformed app per way an app can be wrong."""
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {
        name: str(fixtures_dir / f"{name}.app.json")
        for name in ("threads", "viewstub", "parametric")
    }
    paths.update(
        framework=str(fixtures_dir / "framework.json"),
        spec=str(fixtures_dir / "fixture.spec.json"),
        groups=str(fixtures_dir / "groups.json"),
        corpus=str(fixtures_dir / "corpus"),
        ident=str(fixtures_dir / "ident_table.json"),
        out=str(tmp / "out"),
    )

    def write(name, text):
        path = tmp / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    for seed in (0, 1):
        write(f"rand{seed}", json.dumps(to_dict(gen_app(seed, diamond=True))))
        write(f"heap{seed}", json.dumps(to_dict(gen_heap_app(seed))))
    bad_classes = {
        "self-super": [{"name": "A", "super": "A", "methods": []}],
        "unresolved-type": [{"name": "A", "super": "missing.B", "methods": []}],
        "bad-invoke": [{"name": "A", "methods": [{"name": "f", "body": [
            {"op": "invoke", "kind": "static", "method": "no signature"}]}]}],
        "unknown-key": [{"name": "A", "interface": ["I"], "methods": []}],
        "duplicate-class": [{"name": "A", "methods": []}, {"name": "A", "methods": []}],
    }
    for name, classes in bad_classes.items():
        write(name, json.dumps({"name": "t", "manifest": {}, "classes": classes}))
    write("invalid-json", "{not json")
    return paths


@pytest.fixture(scope="module", autouse=True)
def warm_parser(files):
    """The parser is built once per process and lives as long as it does,
    cycles and all; build it before counting."""
    run(["spec", "validate", files["spec"]])


# an argument "@name" stands for the input files["name"]
def analyze(app, *extra):
    return ["analyze", app, "--spec", "@spec", "--framework", "@framework", *extra]


COMMANDS = {
    "analyze-cfa1": analyze("@threads"),
    "analyze-cfa0": analyze("@threads", "--cfa", "0"),
    "analyze-viewstub-text": analyze("@viewstub", "--format", "text"),
    "analyze-parametric-dump": analyze("@parametric", "--dump-callgraph", "@out"),
    "analyze-dangerous-only": analyze("@threads", "--dangerous-only", "--groups", "@groups"),
    "cha-reach": ["cha-reach", "@viewstub", "--spec", "@spec", "--framework", "@framework",
                  "--no-augment"],
    "collect": ["collect", "@corpus", "--spec", "@spec", "--groups", "@groups",
                "--framework", "@framework", "--summary", "@out"],
    "compare-specs": ["compare-specs", "@corpus", "--spec-a", "@spec", "--spec-b", "@spec",
                      "--framework", "@framework", "--groups", "@groups"],
    "mine-doc": ["mine-doc", "@framework", "--ident-table", "@ident"],
    "spec-validate": ["spec", "validate", "@spec"],
    "spec-merge": ["spec", "merge", "@spec", "@spec", "-o", "@out"],
    **{f"analyze-{app}{seed}-cfa{cfa}": analyze(f"@{app}{seed}", "--cfa", str(cfa))
       for app in ("rand", "heap") for seed in (0, 1) for cfa in (0, 1)},
}
MALFORMED = {
    **{f"analyze-{bad}": analyze(f"@{bad}")
       for bad in ("self-super", "unresolved-type", "bad-invoke", "unknown-key",
                   "duplicate-class", "invalid-json")},
    "collect-malformed-spec": ["collect", "@corpus", "--spec", "@invalid-json"],
    "spec-validate-malformed": ["spec", "validate", "@unknown-key"],
}


@pytest.mark.parametrize(
    "code, argv",
    [(0, argv) for argv in COMMANDS.values()] + [(1, argv) for argv in MALFORMED.values()],
    ids=[*COMMANDS, *MALFORMED],
)
def test_command_leaves_no_cyclic_garbage(files, capsys, code, argv):
    argv = [files[a[1:]] if a[0] == "@" else a for a in argv]
    assert cyclic_garbage(argv) == (code, {})


@pytest.mark.parametrize("key", ["deep-dispatch/0", "heap-dense/80/0", "corpus-audit/0"])
def test_benchmark_op_leaves_no_cyclic_garbage(workloads, tmp_path, key):
    op = workloads.Op(ROOT, tmp_path, workloads.instance(key))
    assert cyclic_garbage(op.argv) == (0, {})


def gc_uses(tree) -> list:
    """Lines that import ``gc`` or name it."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        or isinstance(node, ast.Name) and node.id == "gc"
    )


def test_only_cli_touches_the_collector():
    package = Path(permplace.__file__).parent
    uses = {
        path.name: gc_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert uses.pop("cli.py")
    assert uses and all(lines == [] for lines in uses.values()), uses


def test_detects_gc_imports_and_calls():
    tree = ast.parse(
        "import gc\nfrom gc import disable\nimport os, gc as g\nos.getpid()\ngc.collect()\n"
    )
    assert gc_uses(tree) == [1, 2, 3, 5]
