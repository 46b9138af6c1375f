import pytest

from oracles import assert_matches_oracle
from permplace.model import SiteId
from permplace.pointsto import augment_call_graph, reachable_methods, solve_0cfa

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
        t_sites = threads.sol.pts(cb, "t")
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
    for site, t in threads.sol.alloc_type.items():
        stmt = threads.program.stmt_at(site)
        kind = type(stmt).__name__
        assert kind in ("New", "ConstStr")
        if kind == "New":
            assert stmt.type == t
        else:
            assert t == "java.lang.String"


def test_reachable_methods_closure(threads):
    main = threads.program.entry_main_sig
    r = reachable_methods(threads.cg_raw.edges, [main])
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


def test_single_pass_equals_fixpoint_on_fixtures(threads, viewstub, parametric):
    """These fixtures need only one sweep, so passes=1 already converges."""
    for prepared in (threads, viewstub, parametric):
        one = augment_call_graph(prepared.cg_raw, prepared.program, prepared.hierarchy, passes=1)
        assert one.edges == prepared.cg.edges


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
