import ast
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from oracles import _naive_dispatch, _naive_resolve, cha_oracle, supertype_oracle
from permplace import pipeline
from permplace.entrypoints import ENTRY_CLASS
from permplace.errors import CycleError, LinkError
from permplace.model import Invoke, app_from_dict, link_program, load_app, parse_method_sig
from randprog import gen_app

SRC = Path(__file__).resolve().parents[1] / "src" / "permplace"
FIXTURE_APPS = ("threads", "viewstub", "parametric")


def app_of(classes):
    return app_from_dict(
        {"name": "t", "manifest": {"targetApi": 23, "permissions": []}, "classes": classes}
    )


def linked(classes):
    return link_program(app_of(classes), [])


@pytest.fixture(scope="module")
def threads_hier(threads):
    return threads.program.hierarchy


def test_subtype_reflexive(threads_hier):
    for name in threads_hier.classes:
        assert threads_hier.is_subtype(name, name)


def test_subtype_through_interface(threads_hier):
    assert threads_hier.is_subtype("app.Host$Run1", "java.lang.Runnable")
    assert not threads_hier.is_subtype("java.lang.Runnable", "app.Host$Run1")


def test_subtype_through_superclass(threads_hier):
    assert threads_hier.is_subtype("app.Host", "android.content.Context")


def test_supertypes_and_subtypes_are_inverse(threads_hier):
    for name in threads_hier.classes:
        for s in threads_hier.supertypes(name):
            assert name in threads_hier.subtypes(s)
        for s in threads_hier.subtypes(name):
            assert name in threads_hier.supertypes(s)
    assert threads_hier.supertypes("no.Such") == threads_hier.subtypes("no.Such") == frozenset()


def test_dispatch_inherited_method():
    h = linked(
        [
            {"name": "A", "methods": [{"name": "f", "body": []}]},
            {"name": "B", "super": "A", "methods": []},
        ]
    ).hierarchy
    assert h.dispatch("B", "B#f()") == "A#f()"


def test_dispatch_override_wins():
    h = linked(
        [
            {"name": "A", "methods": [{"name": "f", "body": []}]},
            {"name": "B", "super": "A", "methods": [{"name": "f", "body": []}]},
        ]
    ).hierarchy
    assert h.dispatch("B", "A#f()") == "B#f()"


def test_dispatch_skips_abstract():
    h = linked(
        [
            {"name": "A", "methods": [{"name": "f", "body": []}]},
            {"name": "B", "super": "A", "methods": [{"name": "f", "abstract": True}]},
        ]
    ).hierarchy
    assert h.dispatch("B", "B#f()") == "A#f()"


def test_dispatch_miss_is_none(threads_hier):
    assert threads_hier.dispatch("app.Host", "app.Host#nonexistent()") is None


def test_dispatch_matches_superclass_walk(framework, fixtures_dir):
    """Every class against every invoke signature of its program."""
    programs = [link_program(gen_app(seed), [framework]) for seed in range(20)]
    programs += [
        link_program(load_app(fixtures_dir / f"{name}.app.json"), [framework])
        for name in FIXTURE_APPS
    ]
    found = 0  # pairs that dispatch to a method
    for program in programs:
        h = program.hierarchy
        sigs = {
            stmt.method
            for decl in program.classes.values()
            for m in decl.methods
            for stmt in m.body or ()
            if isinstance(stmt, Invoke)
        }
        for sig in sorted(sigs):
            _cls, name, params = parse_method_sig(sig)
            for rtype in program.classes:
                expected = _naive_dispatch(program, rtype, name, params)
                for _ in range(2):  # computed, then cached
                    assert h.dispatch(rtype, sig) == expected, (rtype, sig)
                found += expected is not None
    assert found > 300


def test_cha_targets_interface_call(threads, threads_hier):
    site = Invoke(kind="interface", method="java.lang.Runnable#run()", receiver="r")
    targets = threads_hier.cha_targets(site)
    assert targets == {"app.Host$Run1#run()", "app.Host$Run2#run()"}


def test_cha_targets_static(threads_hier):
    site = Invoke(kind="static", method="android.test.Api#SENSITIVE()", receiver=None)
    # the framework stub has no body, so the bodied-only view is empty
    assert threads_hier.cha_targets(site) == set()


def test_cha_targets_unknown_declared_type(threads_hier):
    site = Invoke(kind="virtual", method="no.Such#f()", receiver="x")
    assert threads_hier.cha_targets(site) == set()
    site = Invoke(kind="static", method="no.Such#g()", receiver=None)
    assert threads_hier.cha_targets(site) == set()


def test_cha_targets_subset_of_subtype_dispatch(viewstub):
    """Every CHA target is the dispatch result of some concrete subtype."""
    h = viewstub.program.hierarchy
    for _decl, m, _sig in viewstub.program.iter_app_bodies():
        for stmt in m.body:
            if not isinstance(stmt, Invoke) or stmt.kind not in ("virtual", "interface"):
                continue
            cls = parse_method_sig(stmt.method)[0]
            for t in h.cha_targets(stmt):
                assert any(h.dispatch(sub, stmt.method) == t for sub in h.subtypes(cls))


def test_resolve_declaration_walks_to_interface():
    h = linked(
        [
            {"name": "I", "kind": "interface", "methods": [{"name": "f", "abstract": True}]},
            {"name": "A", "interfaces": ["I"], "methods": []},
        ]
    ).hierarchy
    site = Invoke(kind="virtual", method="A#f()", receiver="x")
    assert h.resolve_declaration(site) == "I#f()"


def test_resolve_declaration_prefers_superclass():
    h = linked(
        [
            {"name": "I", "kind": "interface", "methods": [{"name": "f", "abstract": True}]},
            {"name": "S", "methods": [{"name": "f", "body": []}]},
            {"name": "A", "super": "S", "interfaces": ["I"], "methods": []},
        ]
    ).hierarchy
    site = Invoke(kind="virtual", method="A#f()", receiver="x")
    assert h.resolve_declaration(site) == "S#f()"


def test_cycle_detection():
    app = app_from_dict(
        {
            "name": "t",
            "manifest": {"targetApi": 23, "permissions": []},
            "classes": [
                {"name": "A", "super": "B", "methods": []},
                {"name": "B", "super": "A", "methods": []},
            ],
        }
    )
    with pytest.raises(CycleError, match=r"^A -> B -> A$"):
        link_program(app, [])


def random_class_table(rng):
    """Up to six classes and four interfaces, each declaring f() and g() at
    random as bodied, stub, abstract or absent. About one table in seven may
    name any type as a parent, so it may hold a cycle; the others name only
    earlier types."""
    cyclic = rng.random() < 0.15
    ifaces = [f"I{i}" for i in range(rng.randint(0, 4))]
    classes = [f"C{i}" for i in range(rng.randint(1, 6))]

    def parents_from(pool, me):
        return pool if cyclic else pool[: pool.index(me)]

    def methods(interface):
        out = []
        for name in ("f", "g"):
            how = rng.choice(["absent", "stub", "abstract"] + ([] if interface else ["body"]))
            if how != "absent":
                out.append({"name": name, "abstract": how == "abstract",
                            "body": [] if how == "body" else None})
        return out

    table = []
    for name in ifaces:
        decl = {"name": name, "kind": "interface", "methods": methods(True)}
        pool = parents_from(ifaces, name)
        decl["interfaces"] = rng.sample(pool, rng.randint(0, min(2, len(pool))))
        if pool and rng.random() < 0.2:
            decl["super"] = rng.choice(pool)
        table.append(decl)
    for name in classes:
        decl = {"name": name, "methods": methods(False)}
        pool = parents_from(classes, name)
        if pool and rng.random() < 0.7:
            decl["super"] = rng.choice(pool)
        decl["interfaces"] = rng.sample(ifaces, rng.randint(0, min(2, len(ifaces))))
        table.append(decl)
    return table


def test_random_hierarchies_match_oracle():
    for seed in range(300):
        app = app_of(random_class_table(random.Random(seed)))
        # the table as declared: one app links to the same classes
        table = SimpleNamespace(classes={c.name: c for c in app.classes})
        sups = supertype_oracle(table)
        cyclic = any(
            p == name or name in sups[p]
            for name, decl in table.classes.items()
            for p in decl.parents
        )
        if cyclic:
            with pytest.raises(CycleError) as err:
                link_program(app, [])
            # the message names a real cycle: each name's next one is a parent
            names = str(err.value).split(" -> ")
            assert len(names) >= 2 and names[0] == names[-1]
            for a, b in zip(names, names[1:]):
                assert b in table.classes[a].parents
            continue
        program = link_program(app, [])
        assert program.classes == table.classes
        h = program.hierarchy
        for a in program.classes:
            assert h.supertypes(a) == sups[a]
            assert h.subtypes(a) == {b for b in program.classes if a in sups[b]}
            for b in program.classes:
                assert h.is_subtype(a, b) == (b in sups[a])
            kinds = ("interface",) if program.classes[a].kind == "interface" else ("virtual",)
            for kind in (*kinds, "static", "special"):
                for name in ("f", "g"):
                    site = Invoke(kind=kind, method=f"{a}#{name}()", receiver="x")
                    assert h.cha_targets(site) == cha_oracle(program, site)


def test_resolve_declaration_matches_uncached_walk(framework, fixtures_dir):
    programs = [link_program(gen_app(seed), [framework]) for seed in range(60)]
    programs += [
        link_program(load_app(fixtures_dir / f"{name}.app.json"), [framework])
        for name in FIXTURE_APPS
    ]
    checked = 0
    for program in programs:
        h = program.hierarchy
        for decl in program.classes.values():
            for stmt in (s for m in decl.methods for s in m.body or ()):
                if not isinstance(stmt, Invoke):
                    continue
                cls, name, params = parse_method_sig(stmt.method)
                for _ in range(2):  # computed, then cached
                    if cls not in program.classes:
                        assert h.resolve_declaration(stmt) is None
                    else:
                        assert h.resolve_declaration(stmt) == _naive_resolve(
                            program, cls, name, params
                        )
                checked += 1
    assert checked > 400


def test_unknown_receiver_class_resolves_to_none_on_every_call():
    h = linked([{"name": "A", "methods": []}]).hierarchy
    site = Invoke(kind="static", method="missing.B#f()")
    for _ in range(2):
        assert h.resolve_declaration(site) is None


def test_prepared_program_shares_the_linked_hierarchy(framework, fixtures_dir, monkeypatch):
    """``with_entry`` hands the linked program's hierarchy on: its tables
    are the linked ones, without the synthetic entry."""
    linked_programs = []

    def linking(*args, **kwargs):
        linked_programs.append(link_program(*args, **kwargs))
        return linked_programs[-1]

    monkeypatch.setattr(pipeline, "link_program", linking)
    prepared = pipeline.prepare(load_app(fixtures_dir / "threads.app.json"), [framework])
    (linked_program,) = linked_programs
    h = prepared.program.hierarchy
    assert h is linked_program.hierarchy
    assert h.classes is linked_program.classes and h.methods is linked_program.methods
    assert ENTRY_CLASS in prepared.program.classes and ENTRY_CLASS not in h.classes
    assert prepared.program.entry_main_sig in prepared.program.methods
    assert not any(sig.startswith(ENTRY_CLASS + "#") for sig in h.methods)
    assert "hierarchy" not in pipeline.Prepared._fields
    assert not hasattr(h, "program")


@pytest.mark.parametrize("classes, message", [
    # a kind error is reported ahead of an unresolved parent, wherever each sorts
    ([{"name": "A", "super": "Missing"}, {"name": "B"}, {"name": "Z", "interfaces": ["B"]}],
     "Z implements non-interface B"),
    ([{"name": "A", "super": "Missing"}, {"name": "B"},
      {"name": "Z", "kind": "interface", "super": "B"}],
     "interface Z extends class B"),
    # the first kind error by class name
    ([{"name": "B"}, {"name": "Y", "interfaces": ["B"]},
      {"name": "Z", "kind": "interface", "super": "B"}],
     "Y implements non-interface B"),
    # an unresolved parent is reported ahead of a cycle, every one listed
    ([{"name": "A", "super": "B"}, {"name": "B", "super": "A"},
      {"name": "C", "super": "Missing"}, {"name": "D", "interfaces": ["Gone"]}],
     "unresolved type references: C -> Missing, D -> Gone"),
])
def test_type_graph_error_precedence(classes, message):
    with pytest.raises(LinkError) as err:
        linked(classes)
    assert type(err.value) is LinkError and str(err.value) == message


def hierarchy_params(tree) -> list:
    """``function:line`` of each function taking a parameter named
    ``hierarchy``."""
    return [
        f"{getattr(node, 'name', '<lambda>')}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                    node.args.vararg, node.args.kwarg)
        if arg is not None and arg.arg == "hierarchy"
    ]


def test_analyses_take_the_program_alone():
    """Every analysis reads ``program.hierarchy``; only ``filter_edges``,
    whose positional parameters the benchmark's tracer reads, takes it as a
    parameter of its own."""
    found = {
        path.name: hierarchy_params(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    found = {name: funcs for name, funcs in found.items() if funcs}
    assert [f.split(":")[0] for f in found.pop("cfa1.py", [])] == ["filter_edges"]
    assert found == {}


def test_only_the_link_path_builds_the_hierarchy():
    calls = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "build_hierarchy"
    ]
    assert calls == ["model.py"]


def test_detects_hierarchy_params():
    tree = ast.parse(
        "def f(program, hierarchy): pass\n"
        "def g(*, hierarchy=None): pass\n"
        "h = lambda hierarchy: 0\n"
        "def k(program, hier): pass\n"
    )
    assert hierarchy_params(tree) == ["f:1", "g:2", "<lambda>:3"]
