"""``LinkedProgram.methods`` is the one method table: each entry holds the
definitions, call sites and returned locals that a naive scan of its body
finds, and no function but ``model._index_class``, which fills the table,
and the solver's single scan iterates a method body itself."""

import ast
from pathlib import Path

import pytest

import permplace
from permplace import pipeline
from permplace.model import Invoke, Return, SiteId, app_from_dict, load_app
from randprog import gen_app

# (module, qualified function name) of the code allowed to iterate a method
# body: ``_index_class``, which fills the table, and the solver's one scan
# per reachable body, whose body order numbers the allocations
BODY_READERS = {
    ("model.py", "_index_class"),
    ("pointsto.py", "_Solver.process_body"),
}


def naive_call_sites(program, sig) -> tuple:
    return tuple(
        (SiteId(sig, i), stmt)
        for i, stmt in enumerate(program.body_of(sig) or ())
        if isinstance(stmt, Invoke)
    )


def naive_defs(body) -> dict:
    locals_ = {stmt.target for stmt in body if getattr(stmt, "target", None) is not None}
    return {
        v: [(i, stmt) for i, stmt in enumerate(body) if getattr(stmt, "target", None) == v]
        for v in locals_
    }


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
    apps = [gen_app(seed) for seed in range(60)]
    apps += [gen_app(seed, diamond=True) for seed in range(20)]
    apps += [gen_app(seed, split=True) for seed in range(20)]
    others = [pipeline.prepare(load_app(fixtures_dir / "threads.app.json"), [framework, LIBRARY])]
    others += [pipeline.prepare(app, [framework], spec=spec) for app in apps]
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


def test_table_entries_match_a_naive_scan(programs):
    for program in programs:
        declared = {m.sig(d.name): (d, m) for d in program.classes.values() for m in d.methods}
        assert program.methods.keys() == declared.keys()
        for sig, (decl, m) in declared.items():
            entry = program.lookup_method(sig)
            body = m.body or ()
            assert entry.decl is decl and entry.method is m, sig
            assert entry.defs == naive_defs(body), sig
            assert entry.sites == naive_call_sites(program, sig), sig
            returns = [s.value for s in body if isinstance(s, Return) and s.value is not None]
            assert list(entry.returns) == returns, sig


def test_stubs_have_empty_views_and_unknown_methods_none(programs):
    stubs = 0
    for program in programs:
        for sig, entry in program.methods.items():
            if entry.method.body is None:
                stubs += 1
                assert (entry.defs, entry.sites, entry.returns) == ({}, (), ())
                assert program.defs_index(sig) == {} and program.call_sites(sig) == ()
        assert program.lookup_method("app.Missing#f()") is None
        assert program.body_of("app.Missing#f()") is None
        assert program.defs_index("app.Missing#f()") is None
        assert program.call_sites("app.Missing#f()") == ()
    assert stubs


def test_fields_are_indexed_by_id(programs):
    for program in programs:
        declared = {f"{d.name}#{f.name}": (d, f) for d in program.classes.values() for f in d.fields}
        assert program.fields == declared
        assert all(program.lookup_field(fid) is pair for fid, pair in program.fields.items())
        assert program.lookup_field("app.Missing#F") is None


def test_app_bodies_by_class_then_method_key(programs):
    for program in programs:
        expected = [
            (decl, m, m.sig(decl.name))
            for name, decl in sorted(program.classes.items())
            if decl.origin != "framework" and name != program.entry_class
            for m in sorted(decl.methods, key=lambda m: m.key)
            if m.body is not None
        ]
        assert list(program.iter_app_bodies()) == expected


def test_call_sites_cached_per_program(threads):
    # with_entry shares every entry it does not add, and adds the entry class's
    program = threads.program
    main = program.entry_main_sig
    assert program.call_sites(main) is program.call_sites(main)
    assert program.call_sites("app.Missing#f()") == ()
    entry_decl = program.classes["synthetic.Main"]
    rest = {name: decl for name, decl in program.classes.items() if name != entry_decl.name}
    linked = type(program)(program.name, program.manifest, rest, program.config)
    again = linked.with_entry(entry_decl, program.entry_sites)
    assert again.methods.keys() == linked.methods.keys() | {main}
    assert all(again.methods[sig] is entry for sig, entry in linked.methods.items())
    assert again.fields == linked.fields
    assert again.methods[main] == program.methods[main]
    assert again.call_sites(main) == program.call_sites(main)
    assert main not in linked.methods


def body_loops(tree) -> set:
    """(qualified name of the innermost enclosing function or class, line)
    of each loop or comprehension whose iterable names a method body: a
    ``.body`` attribute, ``body_of`` or a local named ``body``. Module-level
    loops are named None."""
    found = set()
    stack = [(tree, None)]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where is None else f"{where}.{child.name}"
            if isinstance(child, (ast.For, ast.comprehension)) and any(
                isinstance(n, ast.Attribute) and n.attr in ("body", "body_of")
                or isinstance(n, ast.Name) and n.id in ("body", "body_of")
                for n in ast.walk(child.iter)
            ):
                found.add((inner, child.iter.lineno))
            stack.append((child, inner))
    return found


def test_only_the_indexes_iterate_method_bodies():
    # equality: every allowed reader still iterates a body, so none is stale
    package = Path(permplace.__file__).parent
    walkers = {
        (path.name, name): line
        for path in sorted(package.glob("*.py"))
        for name, line in body_loops(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(walkers) == BODY_READERS, walkers


def test_detects_loops_over_bodies():
    tree = ast.parse(
        "def a(m):\n    for s in m.body: pass\n"
        "def b(p, m):\n    return [s for s in p.body_of(m) or ()]\n"
        "class C:\n    def c(self, body):\n        return any(x for _, x in enumerate(body))\n"
        "def d(m):\n    for s in m.params: pass\n"
        "def e(p):\n    def f(m):\n        return [s for s in m.body]\n    return f\n"
        "for s in body: pass\n"
    )
    assert body_loops(tree) == {("a", 2), ("b", 4), ("C.c", 7), ("e.f", 12), (None, 14)}
