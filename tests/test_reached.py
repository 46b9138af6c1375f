"""Every function defined under ``src/permplace`` is entered by a command or
by the benchmark: no API without a caller. The commands are
``test_no_cycles.py``'s table, valid and malformed, run through
``cli.run``; the benchmark part is ``perfbench/run.py``'s
``oracle_mismatches``, called as the benchmark calls it. Both run in a fresh
interpreter under ``sys.setprofile``, so functions entered at import and
builders cached once per process count, and so do functions entered only
in the children a corpus command forks. Likewise no package error is
raised only to be caught: each is raised, and only the CLI catches one.
And no module imports ``dataclasses``, so start-up generates no code.

Run as a script, this file is that interpreter: ``python -B
tests/test_reached.py OUT`` writes to ``OUT`` the lines of the ``def``s it
entered, by module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# entered only from outside the package: the console script's entry point
ALLOWED = {"cli.main"}


def defs(tree) -> dict:
    """Line -> dotted name of each ``def`` in ``tree``, nested ones and
    methods included. A decorated ``def`` is keyed by its first decorator's
    line, as its code object's ``co_firstlineno`` is."""
    found = {}
    stack = [(tree, "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, prefix))
                continue
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                first = child.decorator_list[0] if child.decorator_list else child
                found[first.lineno] = name
            stack.append((child, name + "."))
    return found


def probe(out: Path) -> None:
    """Run the commands and the oracle check, recording each function
    entered, and write the entered lines under the package to ``out``."""
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    sys.setprofile(record)
    import importlib.util
    import tempfile

    import permplace
    import test_no_cycles as table

    with tempfile.TemporaryDirectory() as tmp:
        files = table.write_inputs(Path(tmp))
        # a corpus command runs shares in forked children, which leave
        # through os._exit: have them hand back what they entered first
        children = Path(tmp) / "children"
        children.mkdir()
        exit_now = os._exit

        def exit_child(status):
            try:
                (children / f"{os.getpid()}.json").write_text(json.dumps(sorted(entered)))
            finally:
                exit_now(status)

        os._exit = exit_child
        try:
            for code, argvs in ((0, table.COMMANDS), (1, table.MALFORMED)):
                for name, argv in argvs.items():
                    assert table.run(table.resolve(files, argv)) == code, name
        finally:
            os._exit = exit_now
        for path in children.iterdir():
            entered.update(map(tuple, json.loads(path.read_text())))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.oracle_mismatches("heap-dense/20/0") == []
    sys.setprofile(None)

    package = Path(permplace.__file__).parent
    lines = {}
    for filename, line in entered:
        path = Path(filename)
        if path.parent == package:
            lines.setdefault(path.stem, []).append(line)
    out.write_text(json.dumps({"package": str(package), "entered": lines}), encoding="utf-8")


def test_every_function_is_entered(tmp_path):
    out = tmp_path / "entered.json"
    proc = subprocess.run(
        [sys.executable, "-B", __file__, str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    found = json.loads(out.read_text(encoding="utf-8"))
    modules = sorted(Path(found["package"]).glob("*.py"))
    assert modules
    missing = [
        f"{path.stem}.{name}"
        for path in modules
        for line, name in sorted(defs(ast.parse(path.read_text(encoding="utf-8"))).items())
        if line not in found["entered"].get(path.stem, ())
    ]
    assert ALLOWED <= set(missing), "an allowed function is entered: drop it from ALLOWED"
    unentered = sorted(set(missing) - ALLOWED)
    assert not unentered, "never entered: " + ", ".join(unentered)


def test_package_errors_are_raised_and_caught_only_by_the_cli():
    """No package error is raised only to be caught: every class in
    ``errors.py`` is raised somewhere under ``src/permplace``, and only
    ``cli.py``, which turns one into exit code 1, names one in an
    ``except`` clause."""
    package = ROOT / "src" / "permplace"

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    errors = {
        node.name
        for node in ast.parse((package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    raised, caught = set(), {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for t in types:
                    if name(t) in errors and path.stem != "cli":
                        caught.setdefault(name(t), set()).add(path.stem)
    assert errors, "no error classes found"
    assert errors <= raised, "never raised: " + ", ".join(sorted(errors - raised))
    assert not caught, "caught outside cli.py: " + "; ".join(
        f"{err} in {', '.join(sorted(where))}" for err, where in sorted(caught.items())
    )


def dataclasses_imports(tree) -> list:
    """Lines of the statements in ``tree`` that import the stdlib
    ``dataclasses`` module or a name from it."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_imports_dataclasses():
    """Start-up generates no code: a dataclass compiles its methods through
    ``exec`` when its module is imported, once per record class and run.
    Records are NamedTuples and holders plain classes instead."""
    found = [
        f"{path.stem} (line {line})"
        for path in sorted((ROOT / "src" / "permplace").glob("*.py"))
        for line in dataclasses_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "imports dataclasses: " + ", ".join(found)


def test_detects_dataclasses_imports():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import json, dataclasses as dc\n"
        "from typing import NamedTuple\n"
        "from .dataclasses import local\n"
        "def f():\n"
        "    import dataclasses\n"
    )
    assert dataclasses_imports(ast.parse(source)) == [1, 2, 3, 7]


def test_finds_nested_methods_and_decorated_defs():
    source = (
        "import functools\n"
        "def f():\n"
        "    def g():\n"
        "        return lambda: 1\n"
        "    return g\n"
        "class K:\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def m():\n"
        "        pass\n"
        "square = lambda x: x * x\n"
    )
    found = defs(ast.parse(source))
    assert found == {2: "f", 3: "f.g", 7: "K.m"}
    codes, lines = [compile(source, "<snippet>", "exec")], set()
    while codes:
        code = codes.pop()
        consts = [c for c in code.co_consts if hasattr(c, "co_firstlineno")]
        codes += consts
        lines |= {c.co_firstlineno for c in consts if c.co_name in ("f", "g", "m")}
    assert lines == set(found)


if __name__ == "__main__":
    probe(Path(sys.argv[1]))
