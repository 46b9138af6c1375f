"""A command creates no reference cycles, on valid input or malformed, so
``cli.run`` pauses the cyclic collector without holding on to memory: once
the run ends, reference counting has freed everything it made. And no
module but ``cli`` touches ``gc``, so the pause lives in one place, and no
function imports a module, whose classes would be the first command's
cyclic garbage.
``test_reached.py`` runs the same command table to show that every
function of the package is entered."""

import ast
import gc
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import permplace
from permplace.cli import run
from randprog import app_json, gen_app, gen_heap_app
from test_model import MALFORMED_NAMES

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


FIXTURES = Path(__file__).resolve().parent / "fixtures"
# one library class declared by two overlays: one a model, with and without
# a body of its own for the method both declare
LIBRARY = {"name": "lib.Util", "origin": "library", "methods": [
    {"name": "f", "static": True, "body": [{"op": "return"}]}]}
MODEL = {**LIBRARY, "model": True, "methods": [
    {"name": "f", "static": True}, {"name": "g", "static": True, "body": []}]}

# a listener anchored by its registration, and a parametric sink fed a literal
LISTENER = "android.location.LocationListener"
LISTENER_APP = {"name": "listener", "manifest": {}, "classes": [
    {"name": "app.Listener", "interfaces": [LISTENER], "methods": [
        {"name": "onLocationChanged", "params": ["android.location.Location"], "body": [
            {"op": "invoke", "kind": "static", "method": "android.hardware.Camera#open()"}]}]},
    {"name": "app.Main", "super": "android.app.Activity", "methods": [{"name": "onCreate", "body": [
        {"op": "new", "target": "l", "type": "app.Listener"},
        {"op": "new", "target": "m", "type": "android.location.LocationManager"},
        {"op": "invoke", "kind": "virtual", "receiver": "m", "args": ["l"],
         "method": f"android.location.LocationManager#requestLocationUpdates({LISTENER})"},
        {"op": "const_str", "target": "s", "value": "content://sensitive"},
        {"op": "new", "target": "i", "type": "android.content.Intent"},
        {"op": "invoke", "kind": "special", "receiver": "i", "args": ["s"],
         "method": "android.content.Intent#<init>(java.lang.String)"}]}]},
]}

# a and b call each other and onCreate calls both, so the walk lists the
# states (a entered by b) and (b entered by a), each a callee of the other
RECURSIVE_APP = {"name": "recursive", "manifest": {}, "classes": [
    {"name": "app.Main", "super": "android.app.Activity", "methods": [{"name": "onCreate", "body": [
        {"op": "invoke", "kind": "static", "method": m} for m in ("app.U#a()", "app.U#b()")]}]},
    {"name": "app.U", "methods": [
        {"name": "a", "static": True, "body": [
            {"op": "invoke", "kind": "static", "method": m}
            for m in ("app.U#b()", "android.hardware.Camera#open()")]},
        {"name": "b", "static": True, "body": [
            {"op": "invoke", "kind": "static", "method": "app.U#a()"}]}]},
]}


def overlay(cls) -> str:
    return json.dumps({"name": "lib", "manifest": {}, "classes": [cls]})


def write_inputs(tmp) -> dict:
    """Name -> path of each input, written under ``tmp``: the fixtures, two
    random programs of each generator, a listener app, library overlays, a
    spec that conflicts with the fixture spec, one malformed app per way
    an app can be wrong and a corpus with one of them inside."""
    paths = {
        name: str(FIXTURES / f"{name}.app.json")
        for name in ("threads", "viewstub", "parametric")
    }
    paths.update(
        framework=str(FIXTURES / "framework.json"),
        spec=str(FIXTURES / "fixture.spec.json"),
        groups=str(FIXTURES / "groups.json"),
        corpus=str(FIXTURES / "corpus"),
        ident=str(FIXTURES / "ident_table.json"),
        out=str(tmp / "out"),
    )

    def write(name, text):
        path = tmp / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)

    for seed in (0, 1):
        write(f"rand{seed}", app_json(gen_app(seed, diamond=True)))
        write(f"heap{seed}", app_json(gen_heap_app(seed)))
    write("listener", json.dumps(LISTENER_APP))
    write("recursive", json.dumps(RECURSIVE_APP))
    write("library", overlay(LIBRARY))
    write("library-model", overlay(MODEL))
    write("library-model-body", overlay({**MODEL, "methods": LIBRARY["methods"]}))
    write("conflicting-spec", json.dumps([{
        "kind": "method", "key": "android.hardware.Camera#open()",
        "permissions": ["android.permission.RECORD_AUDIO"]}]))
    bad_classes = {
        "self-super": [{"name": "A", "super": "A", "methods": []}],
        "unresolved-type": [{"name": "A", "super": "missing.B", "methods": []}],
        "bad-invoke": [{"name": "A", "methods": [{"name": "f", "body": [
            {"op": "invoke", "kind": "static", "method": "no signature"}]}]}],
        "unknown-key": [{"name": "A", "interface": ["I"], "methods": []}],
        "duplicate-class": [{"name": "A", "methods": []}, {"name": "A", "methods": []}],
        # the class name the synthetic entry takes
        "reserved-name": [{"name": "synthetic.Main", "super": "android.app.Activity",
                           "methods": [{"name": "onCreate", "body": [
                               {"op": "invoke", "kind": "static",
                                "method": "android.hardware.Camera#open()"}]}]}],
    }
    bad_classes.update((name, [cls]) for name, cls in MALFORMED_NAMES.items())
    for name, classes in bad_classes.items():
        write(name, json.dumps({"name": "t", "manifest": {}, "classes": classes}))
    write("mistyped-name", json.dumps({"name": 1, "manifest": {}, "classes": []}))
    # an empty prefix would match every class name
    write("empty-prefix-config", json.dumps({"framework_prefixes": ["android.", ""]}))
    write("invalid-json", "{not json")
    # the fixture corpus with a malformed app sorted into its middle
    corpus = tmp / "malformed-corpus"
    corpus.mkdir()
    for app in Path(paths["corpus"]).glob("*.json"):
        shutil.copy(app, corpus)
    shutil.copy(paths["unresolved-type"], corpus / "corrupt.json")
    paths["malformed-corpus"] = str(corpus)
    for name in MALFORMED_NAMES:  # a corpus of the one app
        corpus = tmp / f"{name}-corpus"
        corpus.mkdir()
        shutil.copy(paths[name], corpus)
        paths[f"{name}-corpus"] = str(corpus)
    return paths


def resolve(files, argv) -> list:
    """``argv`` with each argument "@name" replaced by the input files["name"]."""
    return [files[a[1:]] if a[0] == "@" else a for a in argv]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


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
    "analyze-listener-capped": analyze("@listener", "--max-depth", "3", "--max-paths", "1"),
    "analyze-recursive": analyze("@recursive"),
    "analyze-prefix-flags": analyze("@threads", "--framework-prefixes", "android.,com.google.",
                                    "--async-excludes", "java.lang.Thread"),
    "analyze-model-overlay": analyze("@threads", "--overlay", "@library",
                                     "--overlay", "@library-model"),
    **{f"analyze-{app}{seed}-cfa{cfa}": analyze(f"@{app}{seed}", "--cfa", str(cfa))
       for app in ("rand", "heap") for seed in (0, 1) for cfa in (0, 1)},
}
MALFORMED = {
    **{f"analyze-{bad}": analyze(f"@{bad}")
       for bad in ("self-super", "unresolved-type", "bad-invoke", "unknown-key",
                   "duplicate-class", "mistyped-name", "invalid-json", "reserved-name")},
    "cha-reach-reserved-name": ["cha-reach", "@reserved-name", "--spec", "@spec",
                                "--framework", "@framework"],
    "analyze-two-overlay-bodies": analyze("@threads", "--overlay", "@library",
                                          "--overlay", "@library-model-body"),
    "analyze-empty-prefix-config": analyze("@threads", "--config", "@empty-prefix-config"),
    "spec-merge-conflict": ["spec", "merge", "@spec", "@conflicting-spec", "-o", "@out"],
    "collect-malformed-spec": ["collect", "@corpus", "--spec", "@invalid-json"],
    "collect-malformed-app": ["collect", "@malformed-corpus", "--spec", "@spec",
                              "--framework", "@framework", "--summary", "@out"],
    "spec-validate-malformed": ["spec", "validate", "@unknown-key"],
    **{f"{command}-{name}": argv
       for name in MALFORMED_NAMES
       for command, argv in (
           ("analyze", analyze(f"@{name}")),
           ("cha-reach", ["cha-reach", f"@{name}", "--spec", "@spec", "--framework", "@framework"]),
           ("collect", ["collect", f"@{name}-corpus", "--spec", "@spec",
                        "--framework", "@framework"]),
       )},
}


@pytest.mark.parametrize(
    "code, argv",
    [(0, argv) for argv in COMMANDS.values()] + [(1, argv) for argv in MALFORMED.values()],
    ids=[*COMMANDS, *MALFORMED],
)
def test_command_leaves_no_cyclic_garbage(files, capsys, code, argv):
    assert cyclic_garbage(resolve(files, argv)) == (code, {})


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


def function_imports(tree) -> list:
    """Lines of the imports inside a function, nested ones included."""
    return sorted({
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def test_no_function_imports_a_module():
    """The first command to run a function-local import would leave the new
    module's classes as its cyclic garbage; a module-level import is paid
    once, when the package loads."""
    package = Path(permplace.__file__).parent
    found = {
        path.name: function_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert found and all(lines == [] for lines in found.values()), found


def test_detects_function_imports():
    tree = ast.parse(
        "import os\ndef f():\n    import io\n    def g():\n        from csv import writer\n"
    )
    assert function_imports(tree) == [3, 5]
