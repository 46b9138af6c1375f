import gc
import json
import sys

import pytest

from permplace import entrypoints
from permplace.errors import LinkError, ParseError, ValidationError
from permplace.hierarchy import build_hierarchy
from permplace.model import (
    AppModel,
    Assign,
    ConstStr,
    Invoke,
    New,
    SiteId,
    StoreStatic,
    app_from_dict,
    link_program,
    load_app,
    parse_method_sig,
)
from randprog import app_json, gen_app


def make_app(classes, name="t", permissions=()):
    return app_from_dict(
        {
            "name": name,
            "manifest": {"targetApi": 23, "permissions": list(permissions)},
            "classes": classes,
        }
    )


def test_empty_app():
    app = app_from_dict({"name": "e", "manifest": {"targetApi": 23, "permissions": []}, "classes": []})
    assert app.name == "e"
    assert app.classes == ()


def test_threads_transcription_loads(fixtures_dir):
    app = load_app(fixtures_dir / "threads.app.json")
    assert len(app.classes) == 3
    names = {c.name for c in app.classes}
    assert names == {"app.Host", "app.Host$Run1", "app.Host$Run2"}


def test_virtual_invoke_without_receiver_rejected():
    with pytest.raises(ValidationError):
        make_app(
            [
                {
                    "name": "A",
                    "methods": [
                        {
                            "name": "f",
                            "body": [{"op": "invoke", "kind": "virtual", "method": "A#g()"}],
                        }
                    ],
                }
            ]
        )


def test_static_invoke_with_receiver_rejected():
    with pytest.raises(ValidationError):
        make_app(
            [
                {
                    "name": "A",
                    "methods": [
                        {
                            "name": "f",
                            "body": [
                                {"op": "invoke", "kind": "static", "method": "A#g()", "receiver": "x"}
                            ],
                        }
                    ],
                }
            ]
        )


def test_duplicate_class_rejected():
    with pytest.raises(ValidationError):
        make_app([{"name": "A", "methods": []}, {"name": "A", "methods": []}])


def test_abstract_with_body_rejected():
    with pytest.raises(ValidationError):
        make_app([{"name": "A", "methods": [{"name": "f", "abstract": True, "body": []}]}])


def test_const_value_requires_static():
    with pytest.raises(ValidationError):
        make_app([{"name": "A", "fields": [{"name": "F", "type": "T", "constValue": "x"}], "methods": []}])


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ParseError):
        load_app(p)


def test_unknown_op_is_parse_error():
    with pytest.raises(ParseError):
        make_app([{"name": "A", "methods": [{"name": "f", "body": [{"op": "jump"}]}]}])


def test_round_trip_identity(fixtures_dir):
    names = ("threads.app.json", "viewstub.app.json", "parametric.app.json", "framework.json")
    apps = [load_app(fixtures_dir / name) for name in names] + [gen_app(s) for s in range(60)]
    for app in apps:
        again = app_from_dict(json.loads(app_json(app)))
        assert again == app


def test_parse_method_sig():
    assert parse_method_sig("a.B#f(x.Y,z.W)") == ("a.B", "f", ("x.Y", "z.W"))
    assert parse_method_sig("a.B#f()") == ("a.B", "f", ())
    with pytest.raises(ValueError):
        parse_method_sig("no-hash")


# signatures a lenient split used to accept, each of which then never
# resolved or matched
MALFORMED_SIGS = [
    "a.B#m(x",  # no closing parenthesis
    "a.B#m(x)y",  # text after it
    "a.B#m(x))",
    "a.B#m((x))",
    "#m()",  # no class
    "a.B#(x)",  # no name
    "a.B#m(,)",  # empty parameters
    "a.B#m(x,)",
    "a.B#m#n()",  # a second '#'
    "a.B(x)#m()",
]


@pytest.mark.parametrize("sig", MALFORMED_SIGS)
def test_parse_method_sig_rejects_malformed(sig):
    with pytest.raises(ValueError, match="malformed method signature"):
        parse_method_sig(sig)


@pytest.mark.parametrize("sig", MALFORMED_SIGS)
def test_malformed_invoke_signature_fails_load_at_its_statement(tmp_path, sig):
    path = tmp_path / "app.json"
    body = [CALL, dict(CALL, method=sig)]
    path.write_text(json.dumps(app_dict([body])), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_app(path)
    assert f"{path}.classes.A.f0[1]: malformed method signature" in str(exc.value)


def test_site_id_string_round_trip():
    s = SiteId("a.B#f()", 3)
    assert str(s) == "a.B#f()/3"
    method, _, stmt = str(s).rpartition("/")
    assert SiteId(method, int(stmt)) == s


def test_site_id_hashes_and_orders_as_its_fields():
    sites = [SiteId(m, i) for m in ("b.C#g()", "a.B#f(x.Y)", "a.B#f()") for i in (10, 2, 0)]
    for s in sites:
        # the hash of the former frozen dataclass: set and dict orders stay
        assert hash(s) == hash((s.method, s.stmt))
        assert str(s) == f"{s.method}/{s.stmt}"
    assert sorted(sites) == sorted(sites, key=lambda s: (s.method, s.stmt))


# -- linking ----------------------------------------------------------------


def test_link_model_body_overrides_stub():
    app = make_app(
        [
            {
                "name": "A",
                "methods": [
                    {
                        "name": "go",
                        "body": [
                            {"op": "new", "target": "t", "type": "java.lang.Thread"},
                            {"op": "invoke", "kind": "virtual", "method": "java.lang.Thread#start()", "receiver": "t"},
                        ],
                    }
                ],
            }
        ]
    )
    overlay = make_app(
        [
            {
                "name": "java.lang.Thread",
                "origin": "framework",
                "model": True,
                "fields": [{"name": "target", "type": "java.lang.Runnable"}],
                "methods": [
                    {
                        "name": "start",
                        "body": [
                            {"op": "load_field", "target": "r", "base": "this", "field": "target"},
                            {"op": "invoke", "kind": "interface", "method": "java.lang.Runnable#run()", "receiver": "r"},
                        ],
                    }
                ],
            },
            {
                "name": "java.lang.Runnable",
                "kind": "interface",
                "origin": "framework",
                "methods": [{"name": "run", "abstract": True}],
            },
        ],
        name="fw",
    )
    linked = link_program(app, [overlay])
    body = linked.body_of("java.lang.Thread#start()")
    assert body is not None and len(body) == 2


def test_link_zero_overlays_is_identity():
    app = make_app([{"name": "A", "methods": [{"name": "f", "body": []}]}])
    linked = link_program(app, [])
    assert set(linked.classes) == {"A"}
    assert linked.classes["A"] == app.classes[0]


def test_link_conflicting_model_bodies():
    def overlay(name):
        return make_app(
            [
                {
                    "name": "java.lang.Thread",
                    "origin": "framework",
                    "model": True,
                    "methods": [{"name": "start", "body": []}],
                }
            ],
            name=name,
        )

    app = make_app([{"name": "A", "methods": []}])
    with pytest.raises(LinkError):
        link_program(app, [overlay("o1"), overlay("o2")])


def test_link_unresolved_super():
    app = make_app([{"name": "A", "super": "missing.B", "methods": []}])
    with pytest.raises(LinkError):
        link_program(app, [])


def test_link_order_independent(fixtures_dir, framework):
    app = load_app(fixtures_dir / "threads.app.json")
    lib = make_app([{"name": "lib.Extra", "origin": "library", "methods": []}], name="lib")
    a = link_program(app, [framework, lib])
    b = link_program(app, [lib, framework])
    assert a.classes == b.classes


def test_lookup_cache_is_per_program(fixtures_dir, framework):
    linked = link_program(load_app(fixtures_dir / "threads.app.json"), [framework])
    main = "synthetic.Main#main()"
    start = "java.lang.Thread#start()"
    assert linked.lookup_method(main) is None and linked.body_of(main) is None
    assert linked.body_of(start) is linked.lookup_method(start)[1].body
    warm = dict(linked._methods)
    assert warm.keys() == {main, start}
    callbacks = entrypoints.detect_callbacks(linked, build_hierarchy(linked))
    program = entrypoints.generate_dummy_main(linked, callbacks)
    assert program.entry_main_sig == main
    assert program.lookup_method(main)[0].name == "synthetic.Main"
    assert len(program.body_of(main)) > len(callbacks)
    assert linked.lookup_method(main) is None and linked._methods == warm


# -- statement interning ----------------------------------------------------

CALL = {"op": "invoke", "kind": "static", "method": "A#g()"}


def app_dict(bodies, name="t"):
    """An app of class A whose methods f0, f1, ... have the given bodies."""
    methods = [{"name": f"f{i}", "body": body} for i, body in enumerate(bodies)]
    return {"name": name, "manifest": {"targetApi": 23, "permissions": []},
            "classes": [{"name": "A", "methods": [{"name": "g", "body": []}, *methods]}]}


def statements(*apps):
    return [s for app in apps for c in app.classes for m in c.methods for s in m.body or ()]


def test_equal_statements_are_one_object():
    app = app_from_dict(app_dict([[CALL, dict(CALL)], [dict(CALL, target="x")]]))
    first, second, other = statements(app)
    assert first is second and first == Invoke(kind="static", method="A#g()")
    assert other is not first
    interned = {}
    a = app_from_dict(app_dict([[CALL]], name="a"), "a", interned)
    b = app_from_dict(app_dict([[dict(CALL)]], name="b"), "b", interned)
    assert statements(a)[0] is statements(b)[0]
    # a bare read starts a fresh table
    assert statements(app_from_dict(app_dict([[CALL]])))[0] is not statements(a)[0]


def test_corpus_statements_are_interned_per_run(workloads):
    interned = {}
    apps = [app_from_dict(d, d["name"], interned) for d in workloads.instance("corpus-audit/0").apps]
    stmts = statements(*apps)
    distinct = {(type(s), *s) for s in stmts}  # a record equals another kind's with its fields
    assert len({id(s) for s in stmts}) == len(distinct) == len(interned) < len(stmts)


@pytest.mark.parametrize(
    "bad, error",
    [
        (dict(CALL, extra="x"), "unknown key 'extra'"),
        (dict(CALL, target=1), "target must be a string or null, not 1"),
        (dict(CALL, args="x"), "args must be a list of strings, not 'x'"),
        (dict(CALL, receiver="x"), "static invoke must not have a receiver"),
    ],
    ids=["extra-key", "mistyped-target", "mistyped-args", "failing-check"],
)
def test_later_occurrence_errors_name_their_own_place(bad, error):
    # the first occurrence is interned; a bad later one is located at itself
    interned = {}
    app_from_dict(app_dict([[CALL, dict(CALL, receiver="x", kind="virtual")]]), "a", interned)
    with pytest.raises((ParseError, ValidationError)) as exc:
        app_from_dict(app_dict([[CALL], [CALL, bad]], name="b"), "b", interned)
    assert "b.classes.A.f1[1]" in str(exc.value) and error in str(exc.value)
    # a statement that failed its check was not stored: it fails again, here
    with pytest.raises((ParseError, ValidationError)) as exc:
        app_from_dict(app_dict([[bad]], name="c"), "c", interned)
    assert "c.classes.A.f0[0]" in str(exc.value) and error in str(exc.value)


def test_dropped_app_frees_its_statements(fixtures_dir):
    app = load_app(fixtures_dir / "threads.app.json")
    stmt = statements(app)[0]
    del app
    gc.collect()
    # a record cannot be weakly referenced: check that the only references
    # left are this frame's and getrefcount's argument, so nothing else,
    # such as a table outliving the read, keeps the statement alive
    assert sys.getrefcount(stmt) == 2


def test_records_of_two_kinds_with_equal_fields_stay_two():
    # a NamedTuple equals every tuple of its field values, whatever its class
    assert New("a", "T") == ConstStr("a", "T") and Assign("X#f", "v") == StoreStatic("X#f", "v")
    body = [
        {"op": "new", "target": "a", "type": "T"},
        {"op": "const_str", "target": "a", "value": "T"},
        {"op": "assign", "target": "X#f", "source": "v"},
        {"op": "store_static", "field": "X#f", "source": "v"},
    ]
    kinds = [New, ConstStr, Assign, StoreStatic]
    interned = {}
    app = app_from_dict(app_dict([body, body]), "a", interned)
    first, second = statements(app)[:4], statements(app)[4:]
    assert [type(s) for s in first] == kinds
    assert all(x is y for x, y in zip(first, second))
    assert [type(r) for r in interned.values()] == kinds
    index = link_program(app).defs_index("A#f0()")
    assert [(i, type(s)) for i, s in index["a"]] == [(0, New), (1, ConstStr)]
    assert [(i, type(s)) for i, s in index["X#f"]] == [(2, Assign)]
