from permplace import cfa1, pipeline
from permplace.cfa1 import filter_edges, refine_bits
from permplace.entrypoints import detect_callbacks
from permplace.model import SiteId, app_from_dict

CB1 = "app.Host#callback1()"
CB2 = "app.Host#callback2()"
START = "java.lang.Thread#start()"


def refine_pts(sol, program, method, var, entry_site):
    return sol.frozen(refine_bits(sol, program, method, var, entry_site))


def entry_ctx(prepared, cb_sig):
    """The context of a callback: its dummy-main invocation site."""
    for site in prepared.program.entry_sites:
        stmt = prepared.program.stmt_at(site)
        if stmt.method == cb_sig:
            return site
    raise AssertionError(f"no entry site for {cb_sig}")


def start_site(prepared, cb_sig):
    body = prepared.program.body_of(cb_sig)
    idx = next(
        i for i, s in enumerate(body) if getattr(s, "method", "") == START
    )
    return SiteId(cb_sig, idx)


def test_refine_new_is_own_site(threads):
    ctx = entry_ctx(threads, CB1)
    refined = refine_pts(threads.sol, threads.program, CB1, "t", ctx)
    assert len(refined) == 1
    assert next(iter(refined)).method == CB1


def test_refine_subset_of_insensitive(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        program = prepared.program
        for cb in detect_callbacks(program, prepared.hierarchy):
            ctx = entry_ctx(prepared, cb.sig)
            body = program.body_of(cb.sig) or ()
            vars_seen = {getattr(s, "target", None) for s in body} - {None}
            for v in sorted(vars_seen):
                refined = refine_pts(prepared.sol, program, cb.sig, v, ctx)
                assert refined <= prepared.sol.pts0.get((cb.sig, v), frozenset())


def test_refine_discriminates_field_through_receiver(threads):
    """The heart of the refinement: Thread#start() entered from callback1
    sees only Run1 in its receiver's target field."""
    ctx1 = start_site(threads, CB1)
    refined = refine_pts(threads.sol, threads.program, START, "r", ctx1)
    assert len(refined) == 1
    assert next(iter(refined)).method == CB1

    ctx2 = start_site(threads, CB2)
    refined2 = refine_pts(threads.sol, threads.program, START, "r", ctx2)
    assert len(refined2) == 1
    assert next(iter(refined2)).method == CB2
    assert refined != refined2


def test_insensitive_set_merges_both(threads):
    """Contrast: the 0-CFA set for the same variable has both sites."""
    assert len(threads.sol.pts0[START, "r"]) == 2


def test_filter_edges_run_site(threads):
    """Under callback1's context the run() dispatch keeps only Run1."""
    body = threads.program.body_of(START)
    run_idx = next(
        i for i, s in enumerate(body) if getattr(s, "method", "") == "java.lang.Runnable#run()"
    )
    run_site = SiteId(START, run_idx)
    for cb, expect in ((CB1, "app.Host$Run1#run()"), (CB2, "app.Host$Run2#run()")):
        ctx = start_site(threads, cb)
        surviving, ambiguous = filter_edges(
            threads.cg, threads.sol, threads.program, threads.hierarchy, run_site, ctx
        )
        assert {t for t, _p in surviving} == {expect}
        assert not ambiguous


def test_filter_edges_without_refinement_is_ambiguous(threads):
    """cfa0 view of the same site: both edges, ambiguous."""
    body = threads.program.body_of(START)
    run_idx = next(
        i for i, s in enumerate(body) if getattr(s, "method", "") == "java.lang.Runnable#run()"
    )
    edges = threads.cg.edges_at(SiteId(START, run_idx))
    assert len(edges) == 2


def test_filter_edges_augmented_passthrough(viewstub):
    site = SiteId("app.MyActivity#onCreate()", 2)
    ctx = entry_ctx(viewstub, "app.MyActivity#onCreate()")
    surviving, ambiguous = filter_edges(
        viewstub.cg, viewstub.sol, viewstub.program, viewstub.hierarchy, site, ctx
    )
    assert surviving == viewstub.cg.edges_at(site)
    assert not ambiguous


def test_filter_edges_static_site_passthrough(threads):
    run1 = "app.Host$Run1#run()"
    body = threads.program.body_of(run1)
    call_idx = next(i for i, s in enumerate(body) if getattr(s, "kind", "") == "static")
    site = SiteId(run1, call_idx)
    body_start = threads.program.body_of(START)
    run_idx = next(
        i for i, s in enumerate(body_start) if getattr(s, "method", "") == "java.lang.Runnable#run()"
    )
    ctx = SiteId(START, run_idx)
    surviving, ambiguous = filter_edges(
        threads.cg, threads.sol, threads.program, threads.hierarchy, site, ctx
    )
    assert surviving == threads.cg.edges_at(site)
    assert not ambiguous


def test_filter_edges_never_empties_a_live_site(threads, viewstub, parametric):
    """An edge-bearing site always keeps at least one edge after filtering."""
    for prepared in (threads, viewstub, parametric):
        for cb in detect_callbacks(prepared.program, prepared.hierarchy):
            ctx = entry_ctx(prepared, cb.sig)
            body = prepared.program.body_of(cb.sig) or ()
            for i, stmt in enumerate(body):
                site = SiteId(cb.sig, i)
                if not prepared.cg.edges_at(site):
                    continue
                surviving, _amb = filter_edges(
                    prepared.cg, prepared.sol, prepared.program, prepared.hierarchy, site, ctx
                )
                assert surviving
                assert surviving <= prepared.cg.edges_at(site)


def test_single_edge_virtual_site_is_not_refined(threads, viewstub, parametric, monkeypatch):
    """A virtual site with one edge has no choice to make: filter_edges
    passes it unchanged, under every context, without refining its
    receiver."""
    refined = []
    monkeypatch.setattr(cfa1, "refine_bits", lambda *args: refined.append(args) or 0)
    checked = 0
    for prepared in (threads, viewstub, parametric):
        entering = {}  # method -> the sites whose edges enter it
        for site, edges in prepared.cg.edges.items():
            for target, _prov in edges:
                entering.setdefault(target, []).append(site)
        for site, edges in prepared.cg.edges.items():
            if len(edges) != 1 or prepared.program.stmt_at(site).kind in ("static", "special"):
                continue
            for ctx in entering.get(site.method, ()):
                got = filter_edges(
                    prepared.cg, prepared.sol, prepared.program, prepared.hierarchy, site, ctx
                )
                assert got == (edges, False), site
                checked += 1
    assert checked
    assert refined == []


def test_refine_field_load_cycle_reads_insensitive_set_in_progress(framework, spec):
    """``b = p0; a = b.f; b = a``: a local whose refinement is still in
    progress reads its context-insensitive set, so the answer depends on
    which local the query starts from. Pinned here; the least fixpoint
    under callback1's context would give {A, B} for ``b``."""
    cycle = "app.Cycle#m(app.Node)"

    def caller(name):
        return {"name": name, "params": [], "body": [
            {"op": "new", "target": "x", "type": "app.Node"},
            {"op": "new", "target": "y", "type": "app.Node"},
            {"op": "store_field", "base": "x", "field": "f", "source": "y"},
            {"op": "invoke", "kind": "static", "method": cycle, "args": ["x"]},
        ]}

    app = app_from_dict({
        "name": "fieldcycle",
        "manifest": {"permissions": []},
        "classes": [
            {"name": "app.Host", "super": "android.app.Activity",
             "methods": [caller("callback1"), caller("callback2")]},
            {"name": "app.Node", "methods": []},
            {"name": "app.Cycle", "methods": [
                {"name": "m", "params": ["app.Node"], "static": True, "body": [
                    {"op": "assign", "target": "b", "source": "p0"},
                    {"op": "load_field", "target": "a", "base": "b", "field": "f"},
                    {"op": "assign", "target": "b", "source": "a"},
                ]},
            ]},
        ],
    })
    prepared = pipeline.prepare(app, [framework], spec=spec)
    sol, program = prepared.sol, prepared.program
    a, b = SiteId(CB1, 0), SiteId(CB1, 1)  # x and y of callback1
    c, d = SiteId(CB2, 0), SiteId(CB2, 1)  # x and y of callback2
    assert sol.pts0[cycle, "b"] == {a, b, c, d}
    assert sol.pts0[cycle, "a"] == {b, d}
    ctx1 = SiteId(CB1, 3)
    ctx2 = SiteId(CB2, 3)
    assert refine_pts(sol, program, cycle, "a", ctx1) == {b}
    assert refine_pts(sol, program, cycle, "b", ctx1) == {a, b, d}
    assert refine_pts(sol, program, cycle, "a", ctx2) == {d}
    assert refine_pts(sol, program, cycle, "b", ctx2) == {b, c, d}
