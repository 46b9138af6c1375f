from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import assert_matches_oracle
from permplace import pipeline
from permplace.graph import closure, components
from permplace.hierarchy import ClassHierarchy
from permplace.model import Invoke, LinkedProgram, SiteId, app_from_dict
from permplace.pointsto import _Solver, augment_call_graph, solve_0cfa
from randprog import gen_heap_app

CB1 = "app.Host#callback1()"
CB2 = "app.Host#callback2()"


def test_threads_matches_oracle(threads):
    assert_matches_oracle(threads)


def test_viewstub_matches_oracle(viewstub):
    assert_matches_oracle(viewstub)


def test_parametric_matches_oracle(parametric):
    assert_matches_oracle(parametric)


def test_threads_thread_targets_merge(threads):
    """0-CFA context insensitivity: Thread#start() sees both Runnables, so
    the run() call site fans out to both implementations."""
    start_body = threads.program.body_of("java.lang.Thread#start()")
    run_idx = next(
        i for i, s in enumerate(start_body) if getattr(s, "method", "") == "java.lang.Runnable#run()"
    )
    site = SiteId("java.lang.Thread#start()", run_idx)
    targets = {t for t, _p in threads.cg_raw.edges_at(site)}
    assert targets == {"app.Host$Run1#run()", "app.Host$Run2#run()"}


def test_threads_receiver_allocs_distinct(threads):
    """Each callback's Thread variable points at exactly its own site."""
    for cb in (CB1, CB2):
        t_sites = threads.sol.pts0[cb, "t"]
        assert len(t_sites) == 1
        assert next(iter(t_sites)).method == cb


def test_entry_provenance(threads):
    main = threads.program.entry_main_sig
    for site, targets in threads.cg_raw.edges.items():
        for _t, prov in targets:
            if site.method == main:
                assert prov == "entry"
            else:
                assert prov == "pointsto"


def test_unreachable_body_not_processed(threads):
    """Methods never called acquire no points-to facts."""
    assert all(m != "app.Host#unused()" for m, _v in threads.sol.pts0)


def test_alloc_types_recorded(threads):
    for site, t in zip(threads.sol.sites, threads.sol.types):
        stmt = threads.program.stmt_at(site)
        kind = type(stmt).__name__
        assert kind in ("New", "ConstStr")
        if kind == "New":
            assert stmt.type == t
        else:
            assert t == "java.lang.String"


def test_reachable_methods_closure(threads):
    main = threads.program.entry_main_sig
    callees = {}
    for site, targets in threads.cg_raw.edges.items():
        callees.setdefault(site.method, set()).update(t for t, _prov in targets)
    r = closure([main], lambda m: callees.get(m, ()))
    assert r == threads.cg_raw.reachable
    assert main in r
    assert CB1 in r and CB2 in r
    assert "app.Host$Run1#run()" in r


# -- augmentation ----------------------------------------------------------


def test_viewstub_raw_graph_misses_virtual_site(viewstub):
    """findViewById returns a stub value, so the app.MyView call site has no
    points-to edge before augmentation."""
    site = SiteId("app.MyActivity#onCreate()", 2)
    assert viewstub.cg_raw.edges_at(site) == frozenset()


def test_viewstub_augmented_edge(viewstub):
    site = SiteId("app.MyActivity#onCreate()", 2)
    assert viewstub.cg.edges_at(site) == frozenset({("app.MyView#callSensitive()", "augmented")})
    assert "app.MyView#callSensitive()" in viewstub.cg.reachable


def test_augmentation_superset(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        for site, targets in prepared.cg_raw.edges.items():
            assert targets <= prepared.cg.edges_at(site)
        assert prepared.cg_raw.reachable <= prepared.cg.reachable


def test_augmentation_idempotent(viewstub):
    again = augment_call_graph(viewstub.cg, viewstub.program, viewstub.hierarchy)
    assert again.edges == viewstub.cg.edges
    assert again.reachable == viewstub.cg.reachable


def test_augmentation_skips_ambiguous_sites(threads):
    """No augmented edge ever lands at a site with multiple CHA targets."""
    for site, targets in threads.cg.edges.items():
        for target, prov in targets:
            if prov == "augmented":
                stmt = threads.program.stmt_at(site)
                assert len(threads.hierarchy.cha_targets(stmt)) == 1


def test_solver_requires_entry(threads, framework):
    from permplace.hierarchy import build_hierarchy
    from permplace.model import link_program, load_app
    import pathlib

    app = load_app(pathlib.Path(__file__).parent / "fixtures" / "threads.app.json")
    program = link_program(app, [framework])
    with pytest.raises(ValueError):
        solve_0cfa(program, build_hierarchy(program))


# -- copy cycles -------------------------------------------------------------


graphs = st.dictionaries(st.integers(0, 9), st.lists(st.integers(0, 9), max_size=4), max_size=10)


@given(graphs, st.lists(st.integers(0, 9), max_size=4))
def test_closure_matches_fixpoint(succ, roots):
    # naive whole-graph fixpoint: add every successor of a reached node
    # until nothing changes
    reached = set(roots)
    changed = True
    while changed:
        grown = reached | {w for v in reached for w in succ.get(v, ())}
        changed, reached = grown != reached, grown
    asked = []

    def successors(v):
        asked.append(v)
        return succ.get(v, ())

    assert closure(roots, successors) == reached
    assert sorted(asked) == sorted(reached)  # once per node reached


@given(graphs, st.lists(st.integers(0, 9), max_size=4))
def test_components_match_mutual_reachability(succ, roots):
    def reached_from(node):
        seen, todo = {node}, [node]
        while todo:
            for w in succ.get(todo.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    found = components(roots, succ)
    order = {v: i for i, comp in enumerate(found) for v in comp}
    assert len(order) == sum(map(len, found))  # each node in one component
    assert set(order) == set().union(*map(reached_from, roots))
    for v in order:
        for w in reached_from(v):
            # one component when each reaches the other, else w's comes first
            assert order[w] == order[v] if v in reached_from(w) else order[w] < order[v]


def solved(prepared):
    solver = _Solver(prepared.program, prepared.hierarchy)
    solver.run()
    return solver


def test_heap_copy_cycles_share_nodes(framework):
    # a count gate: each worker's assign cycle is one node, not one per local
    prepared = pipeline.prepare(gen_heap_app(0), [framework])
    solver = solved(prepared)
    assert len(set(solver.vars.values())) < len(solver.vars)
    assert set(prepared.sol.vars) == {k for k, n in solver.vars.items() if solver.pts[n]}


def test_each_call_edge_is_linked_once(framework, monkeypatch):
    # a count gate: link_call runs once per (site, target) pair, not once
    # per receiver delta that dispatches to the target
    prepared = pipeline.prepare(gen_heap_app(0), [framework])
    link, calls = _Solver.link_call, []
    monkeypatch.setattr(
        _Solver, "link_call", lambda self, *args: calls.append(args) or link(self, *args)
    )
    solver = solved(prepared)
    assert len(calls) == sum(len(targets) for targets in solver.edges.values())


def cycle_app():
    """app.Box#swap(app.Item) copies p0 to r, r to this, this to p0 and
    returns r, calling run() on r: one cycle holds a parameter, the receiver
    and a returned local. Two callers pass different boxes and items."""

    def assign(target, source):
        return {"op": "assign", "target": target, "source": source}

    def new(target, type_):
        return {"op": "new", "target": target, "type": type_}

    def call(receiver, arg, target):
        return {"op": "invoke", "kind": "virtual", "method": "app.Box#swap(app.Item)",
                "receiver": receiver, "args": [arg], "target": target}

    return app_from_dict({
        "name": "copy-cycle",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "app.Host", "super": "android.app.Activity", "methods": [
                {"name": "onCreate", "body": [new("b", "app.Box"), new("i", "app.ItemA"),
                                              call("b", "i", "x")]},
                {"name": "callback1", "body": [new("b", "app.BigBox"), new("i", "app.ItemB"),
                                              call("b", "i", "y"), assign("z", "y")]},
            ]},
            {"name": "app.Box", "methods": [
                {"name": "swap", "params": ["app.Item"], "returnType": "app.Item", "body": [
                    assign("r", "p0"), assign("this", "r"), assign("p0", "this"),
                    {"op": "invoke", "kind": "virtual", "method": "app.Item#run()",
                     "receiver": "r"},
                    {"op": "return", "value": "r"},
                ]},
            ]},
            {"name": "app.BigBox", "super": "app.Box", "methods": []},
            {"name": "app.Item", "methods": [{"name": "run", "body": []}]},
            {"name": "app.ItemA", "super": "app.Item", "methods": [{"name": "run", "body": []}]},
            {"name": "app.ItemB", "super": "app.Item", "methods": []},
        ],
    })


def test_copy_cycle_through_parameter_receiver_and_return(framework):
    prepared = pipeline.prepare(cycle_app(), [framework])
    assert_matches_oracle(prepared)
    solver = solved(prepared)
    swap = "app.Box#swap(app.Item)"
    assert len({solver.vars[swap, v] for v in ("p0", "this", "r")}) == 1
    assert len(prepared.sol.pts0[swap, "this"]) == 4  # both boxes and both items
    run_site = SiteId(swap, 3)
    assert {t for t, _p in prepared.cg_raw.edges_at(run_site)} == {
        "app.ItemA#run()", "app.Item#run()"
    }


# -- work gates ---------------------------------------------------------------


def counting(monkeypatch, cls, name, calls):
    """Record ``(name, *args)`` in ``calls`` on each call of ``cls.name``."""
    real = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *a: calls.append((name, *a)) or real(self, *a))


@pytest.mark.parametrize("instance", [(0, 12, 6), (3, 40, 12)])
def test_hierarchy_answers_each_dispatch_once(framework, monkeypatch, instance):
    # a count gate: a solve asks is_subtype and dispatch at most once per
    # (declared class, invoke signature, runtime type), where it once asked
    # them per receiver delta (586 and 1,960 calls on these instances)
    prepared = pipeline.prepare(gen_heap_app(*instance), [framework])
    calls = []
    for name in ("dispatch", "is_subtype"):
        counting(monkeypatch, ClassHierarchy, name, calls)
    sol, cg = solve_0cfa(prepared.program, prepared.hierarchy)
    sigs = Counter()  # declared class -> virtual invoke signatures naming it
    for sig in {
        stmt.method
        for m in cg.reachable
        for stmt in prepared.program.body_of(m) or ()
        if type(stmt) is Invoke and stmt.kind in ("virtual", "interface")
    }:
        sigs[sig.split("#")[0]] += 1
    dispatched = Counter((rtype, sig) for name, rtype, sig in calls if name == "dispatch")
    asked = Counter((rtype, cls) for name, rtype, cls in calls if name == "is_subtype")
    assert dispatched and max(dispatched.values()) == 1
    assert asked and all(n <= sigs[cls] for (_rtype, cls), n in asked.items())
    assert len(calls) <= 2 * sum(sigs.values()) * len(set(sol.types))


def test_each_reachable_body_is_read_once(framework, monkeypatch):
    # a count gate: the solver reads a method's table entry when the method
    # becomes reachable, not again per call edge into it (49 body reads for
    # 21 methods before), and scans each reachable body once
    prepared = pipeline.prepare(gen_heap_app(0, 12, 6), [framework])
    calls = []
    for cls, name in ((LinkedProgram, "body_of"), (LinkedProgram, "lookup_method"),
                      (_Solver, "process_body")):
        counting(monkeypatch, cls, name, calls)
    _sol, cg = solve_0cfa(prepared.program, prepared.hierarchy)
    read = Counter(args[0] for name, *args in calls if name == "lookup_method")
    scanned = Counter(args[0] for name, *args in calls if name == "process_body")
    assert read == Counter(cg.reachable)
    assert scanned == Counter(m for m in cg.reachable if prepared.program.methods[m].method.body)
    assert all(name != "body_of" for name, *_args in calls)


# -- incremental dispatch -------------------------------------------------------

DRAW = "app.Shape#draw()"


def wave_app(waves):
    """``app.U#use()`` calls ``draw()`` on what the static ``app.Hub#S``
    holds, and ``go()`` on what ``app.Hub#G`` holds. Wave ``i`` allocates
    its classes into S and an ``app.Step{i}`` into G, whose ``go()`` reaches
    wave ``i + 1`` only once the solver dispatches it: each wave reaches the
    draw() site as a later receiver delta. app.Square inherits draw(), and
    app.Other declares one but is no app.Shape."""

    def method(name, body=(), static=False):
        return {"name": name, "static": static, "body": list(body)}

    def call(sig, kind="static", receiver=None):
        stmt = {"op": "invoke", "kind": kind, "method": sig}
        return stmt if receiver is None else {**stmt, "receiver": receiver}

    classes = [
        {"name": "app.Hub", "methods": [], "fields": [
            {"name": "S", "type": "app.Shape", "static": True},
            {"name": "G", "type": "app.Step", "static": True}]},
        {"name": "app.Shape", "methods": [method("draw")]},
        {"name": "app.Circle", "super": "app.Shape", "methods": [method("draw")]},
        {"name": "app.Square", "super": "app.Shape", "methods": []},
        {"name": "app.Other", "methods": [method("draw")]},
        {"name": "app.Step", "methods": [method("go")]},
        {"name": "app.U", "methods": [method("use", [
            {"op": "load_static", "target": "r", "field": "app.Hub#S"},
            call(DRAW, "virtual", "r"),
            {"op": "load_static", "target": "g", "field": "app.Hub#G"},
            call("app.Step#go()", "virtual", "g"),
        ], static=True)]},
        # use() is queued last, so it is processed before wave 0
        {"name": "app.Main", "super": "android.app.Activity", "methods": [
            method("onCreate", [call("app.W0#run()"), call("app.U#use()")])]},
    ]
    for i, wave in enumerate(waves):
        # the step is stored first: the worklist is a stack, so the draw()
        # site takes this wave before the step reaches the next one
        body = []
        for j, type_ in enumerate([f"app.Step{i}", *wave]):
            field = "app.Hub#S" if j else "app.Hub#G"
            body += [{"op": "new", "target": f"x{j}", "type": type_},
                     {"op": "store_static", "field": field, "source": f"x{j}"}]
        classes += [
            {"name": f"app.W{i}", "methods": [method("run", body, static=True)]},
            {"name": f"app.Step{i}", "super": "app.Step",
             "methods": [method("go", [call(f"app.W{i + 1}#run()")] if i + 1 < len(waves) else [])]},
        ]
    return app_from_dict({"name": "waves", "manifest": {}, "classes": classes})


def draw_deltas(framework, monkeypatch, waves):
    """Solve ``wave_app(waves)`` against the oracle and return, per receiver
    delta at the draw() site, (its runtime types, whether by_runtime_type
    splits it per type), with the site's call targets."""
    deltas = []
    dispatch = _Solver.dispatch_call

    def recording(self, call, bits):
        if call[0].method == "app.U#use()" and bits and self.program.stmt_at(call[0]).method == DRAW:
            types = [self.alloc_type[a] for a in range(bits.bit_length()) if bits >> a & 1]
            deltas.append((types, bits.bit_count() > len(self.type_allocs)))
        return dispatch(self, call, bits)

    monkeypatch.setattr(_Solver, "dispatch_call", recording)
    prepared = pipeline.prepare(wave_app(waves), [framework])
    assert_matches_oracle(prepared)
    targets = {t for t, _p in prepared.cg_raw.edges_at(SiteId("app.U#use()", 1))}
    return deltas, targets


def test_new_runtime_type_after_dispatch(framework, monkeypatch):
    deltas, targets = draw_deltas(framework, monkeypatch, [["app.Circle"], ["app.Square"]])
    assert deltas == [(["app.Circle"], False), (["app.Square"], False)]
    assert targets == {"app.Circle#draw()", "app.Shape#draw()"}


def test_more_allocs_of_a_classified_type(framework, monkeypatch):
    waves = [["app.Circle"], ["app.Circle", "app.Circle"], ["app.Square", "app.Circle"]]
    deltas, targets = draw_deltas(framework, monkeypatch, waves)
    assert [types for types, _split in deltas] == waves
    assert targets == {"app.Circle#draw()", "app.Shape#draw()"}


def test_nonconforming_type_after_classification_never_dispatches(framework, monkeypatch):
    waves = [["app.Circle"], ["app.Other"], ["app.Other", "app.Square"]]
    deltas, targets = draw_deltas(framework, monkeypatch, waves)
    assert [types for types, _split in deltas] == waves
    assert targets == {"app.Circle#draw()", "app.Shape#draw()"}


@pytest.mark.parametrize("waves", [
    [["app.Circle"], ["app.Circle", "app.Square"] * 4],
    [["app.Square", "app.Circle"] * 4, ["app.Other"], ["app.Circle"]],
], ids=["per-alloc-then-per-type", "per-type-then-per-alloc"])
def test_receiver_set_crosses_the_split_switch(framework, monkeypatch, waves):
    deltas, targets = draw_deltas(framework, monkeypatch, waves)
    assert [sorted(types) for types, _split in deltas] == [sorted(w) for w in waves]
    splits = [split for _types, split in deltas]
    assert splits == ([False, True] if len(waves) == 2 else [True, False, False])
    assert targets == {"app.Circle#draw()", "app.Shape#draw()"}
