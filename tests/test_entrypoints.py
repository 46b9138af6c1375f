import pytest

from permplace.entrypoints import ENTRY_CLASS, CallbackRef, detect_callbacks, generate_dummy_main
from permplace.model import Invoke, New, app_from_dict, link_program, load_app


def prep(classes, overlays=()):
    app = app_from_dict(
        {"name": "t", "manifest": {"targetApi": 23, "permissions": []}, "classes": classes}
    )
    return link_program(app, list(overlays))


def test_threads_callbacks(threads):
    by_sig = {cb.sig: cb for cb in detect_callbacks(threads.program)}
    assert set(by_sig) == {
        "app.Host#callback1()",
        "app.Host#callback2()",
    }
    assert {cb.hostClass for cb in by_sig.values()} == {"app.Host"}


def test_runnable_run_is_not_a_callback(threads):
    """Runnable is an async construct; its run() never anchors a callback."""
    sigs = {cb.sig for cb in detect_callbacks(threads.program)}
    assert not any("run()" in s for s in sigs)


def test_interface_registration_basis(framework):
    program = prep(
        [
            {
                "name": "app.L",
                "interfaces": ["android.location.LocationListener"],
                "methods": [{"name": "onLocationChanged", "params": ["android.location.Location"], "body": []}],
            },
            {
                "name": "app.Host",
                "super": "android.app.Activity",
                "methods": [
                    {
                        "name": "onCreate",
                        "body": [
                            {"op": "new", "target": "l", "type": "app.L"},
                            {
                                "op": "invoke",
                                "kind": "virtual",
                                "method": "android.location.LocationManager#requestLocationUpdates(android.location.LocationListener)",
                                "receiver": "lm",
                                "args": ["l"],
                            },
                        ],
                    }
                ],
            },
        ],
        [framework],
    )
    cbs = detect_callbacks(program)
    listener = CallbackRef("app.L", "app.L#onLocationChanged(android.location.Location)")
    assert [cb for cb in cbs if cb.hostClass == "app.L"] == [listener]


def test_unregistered_listener_is_not_a_callback(framework):
    program = prep(
        [
            {
                "name": "app.L",
                "interfaces": ["android.location.LocationListener"],
                "methods": [{"name": "onLocationChanged", "params": ["android.location.Location"], "body": []}],
            }
        ],
        [framework],
    )
    assert detect_callbacks(program) == []


def test_static_methods_never_callbacks(framework):
    program = prep(
        [
            {
                "name": "app.Host",
                "super": "android.app.Activity",
                "methods": [{"name": "onCreate", "static": True, "body": []}],
            }
        ],
        [framework],
    )
    assert detect_callbacks(program) == []


def test_bodyless_overrides_never_callbacks(framework):
    program = prep(
        [
            {
                "name": "app.Host",
                "kind": "class",
                "super": "android.app.Activity",
                "methods": [{"name": "onCreate", "abstract": True}],
            }
        ],
        [framework],
    )
    assert detect_callbacks(program) == []


def test_app_superclass_does_not_anchor(framework):
    """Only framework declarations anchor the override basis."""
    program = prep(
        [
            {"name": "app.Base", "methods": [{"name": "handle", "body": []}]},
            {"name": "app.Sub", "super": "app.Base", "methods": [{"name": "handle", "body": []}]},
        ],
        [framework],
    )
    assert detect_callbacks(program) == []


def test_class_is_never_an_interface_anchor(framework):
    """A library class under a framework prefix passed at a parameter of
    its own type is no registration: only interfaces anchor that basis."""
    frag = "android.support.Frag"
    program = prep(
        [
            {"name": frag, "origin": "library", "methods": [{"name": "onA", "body": []}]},
            {
                "name": "app.Reg",
                "methods": [
                    {"name": "register", "params": [frag], "static": True, "body": []},
                    {"name": "run", "body": [
                        {"op": "new", "target": "f", "type": frag},
                        {"op": "invoke", "kind": "static", "method": f"app.Reg#register({frag})",
                         "args": ["f"]},
                    ]},
                ],
            },
        ],
        [framework],
    )
    assert detect_callbacks(program) == []


def test_dummy_main_shape(threads):
    program = threads.program
    assert program.entry_class == ENTRY_CLASS
    body = program.body_of(program.entry_main_sig)
    news = [s for s in body if isinstance(s, New)]
    invokes = [s for s in body if isinstance(s, Invoke)]
    # one allocation for the single host class, one invoke per callback
    assert [s.type for s in news] == ["app.Host"]
    assert sorted(s.method for s in invokes) == [
        "app.Host#callback1()",
        "app.Host#callback2()",
    ]
    assert len(program.entry_sites) == 2
    assert len(set(program.entry_sites)) == 2
    for site in program.entry_sites:
        assert isinstance(program.stmt_at(site), Invoke)


def test_dummy_main_fresh_param_allocations(framework):
    program = prep(
        [
            {
                "name": "app.L",
                "interfaces": ["android.location.LocationListener"],
                "methods": [
                    {"name": "onLocationChanged", "params": ["android.location.Location"], "body": []}
                ],
            },
            {
                "name": "app.Host",
                "super": "android.app.Activity",
                "methods": [
                    {
                        "name": "onCreate",
                        "body": [
                            {"op": "new", "target": "l", "type": "app.L"},
                            {
                                "op": "invoke",
                                "kind": "virtual",
                                "method": "android.location.LocationManager#requestLocationUpdates(android.location.LocationListener)",
                                "receiver": "lm",
                                "args": ["l"],
                            },
                        ],
                    }
                ],
            },
        ],
        [framework],
    )
    cbs = detect_callbacks(program)
    entry = generate_dummy_main(program, cbs)
    body = entry.body_of(entry.entry_main_sig)
    alloc_types = [s.type for s in body if isinstance(s, New)]
    assert alloc_types.count("android.location.Location") == 1
    # param allocation feeds the matching invoke argument
    site = next(s for s in body if isinstance(s, Invoke) and "onLocationChanged" in s.method)
    loc_var = next(s.target for s in body if isinstance(s, New) and s.type == "android.location.Location")
    assert site.args == (loc_var,)


def test_empty_callbacks_yields_empty_main(framework):
    program = prep([{"name": "app.Plain", "methods": []}], [framework])
    entry = generate_dummy_main(program, detect_callbacks(program))
    assert entry.body_of(entry.entry_main_sig) == ()
    assert entry.entry_sites == ()


def test_entry_class_excluded_from_app_bodies(threads):
    names = {decl.name for decl, _m, _sig in threads.program.iter_app_bodies()}
    assert ENTRY_CLASS not in names
