"""``LinkedProgram.call_sites`` is the one call-site index: it lists the
invokes a naive scan of each body finds, and no walker outside the
program, the solver's single scan and the collector's constant scan
iterates a method body itself."""

import ast
from pathlib import Path

import pytest

import permplace
from permplace import pipeline
from permplace.model import Invoke, SiteId, app_from_dict, load_app
from randprog import gen_app

# (module, top-level name) of the code allowed to iterate a method body: the
# indexes themselves, the solver's one scan per reachable body, and the
# collector's scan for constants, which looks for no invokes
BODY_READERS = {
    ("model.py", "LinkedProgram"),
    ("pointsto.py", "_Solver"),
    ("collector.py", "collect_usage"),
}


def naive_call_sites(program, sig) -> tuple:
    return tuple(
        (SiteId(sig, i), stmt)
        for i, stmt in enumerate(program.body_of(sig) or ())
        if isinstance(stmt, Invoke)
    )


# a library overlay whose method calls another
LIBRARY = app_from_dict({"name": "lib", "manifest": {}, "classes": [
    {"name": "lib.Util", "origin": "library", "methods": [
        {"name": "f", "static": True, "body": [
            {"op": "new", "target": "x", "type": "lib.Util"},
            {"op": "invoke", "kind": "static", "method": "lib.Util#g()", "target": "y"},
            {"op": "return", "value": "y"}]},
        {"name": "g", "static": True, "returnType": "lib.Util", "body": []}]}]})


@pytest.fixture(scope="module")
def programs(threads, viewstub, parametric, framework, spec, fixtures_dir):
    app = load_app(fixtures_dir / "threads.app.json")
    others = [pipeline.prepare(app, [framework, LIBRARY], spec=spec)]
    others += [pipeline.prepare(gen_app(seed), [framework], spec=spec) for seed in range(60)]
    return [p.program for p in (threads, viewstub, parametric, *others)]


def test_call_sites_match_a_naive_scan(programs):
    kinds = set()  # (origin, bodied) of the methods compared
    for program in programs:
        for decl in program.classes.values():
            for m in decl.methods:
                sig = m.sig(decl.name)
                assert program.call_sites(sig) == naive_call_sites(program, sig), sig
                kinds.add((decl.origin, m.body is not None))
        main = program.entry_main_sig
        assert program.call_sites(main) and program.call_sites(main) == naive_call_sites(
            program, main
        )
    assert {("app", True), ("library", True), ("framework", False)} <= kinds


def test_call_sites_cached_per_program(threads):
    program = threads.program
    main = program.entry_main_sig
    assert program.call_sites(main) is program.call_sites(main)
    assert program.call_sites("app.Missing#f()") == ()
    linked = program.with_entry(program.classes["synthetic.Main"], program.entry_sites)
    assert linked.call_sites(main) == program.call_sites(main)
    assert linked.call_sites(main) is not program.call_sites(main)


def body_loops(tree) -> list:
    """(top-level name, line) of each loop or comprehension whose iterable
    names a method body: a ``.body`` attribute, ``body_of`` or a local
    named ``body``."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                isinstance(n, ast.Attribute) and n.attr in ("body", "body_of")
                or isinstance(n, ast.Name) and n.id in ("body", "body_of")
                for n in ast.walk(node.iter)
            ):
                found.append((getattr(top, "name", None), node.iter.lineno))
    return found


def test_only_the_indexes_iterate_method_bodies():
    package = Path(permplace.__file__).parent
    walkers = {
        (path.name, name): line
        for path in sorted(package.glob("*.py"))
        for name, line in body_loops(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(walkers) - BODY_READERS == set(), walkers


def test_detects_loops_over_bodies():
    tree = ast.parse(
        "def a(m):\n    for s in m.body: pass\n"
        "def b(p, m):\n    return [s for s in p.body_of(m) or ()]\n"
        "class C:\n    def c(self, body):\n        return any(x for _, x in enumerate(body))\n"
        "def d(m):\n    for s in m.params: pass\n"
    )
    assert body_loops(tree) == [("a", 2), ("b", 4), ("C", 7)]
