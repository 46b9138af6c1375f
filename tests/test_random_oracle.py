"""Differential testing on seeded random programs: the production solver
against the naive fixpoint oracle, and capped DFS traversal against
exhaustive path enumeration and a naive capped DFS."""

import json
import tracemalloc
from collections import Counter

import pytest

from oracles import (
    assert_matches_oracle,
    augment_oracle,
    detected_oracle,
    filter_edges_oracle,
    report_oracle,
)
from permplace import analysis, pipeline
from permplace.analysis import Limits, detected_sensitives, traverse, write_report
from permplace.hierarchy import ClassHierarchy
from permplace.model import LinkedProgram, SiteId, app_from_dict
from permplace.pointsto import CallGraph, augment_call_graph, solve_0cfa
from randprog import gen_app, gen_heap_app, ladder_app

SEEDS = range(60)
DIAMOND_SEEDS = range(20)
SPLIT_SEEDS = range(20)
# (seed, workers, allocations per worker): 74 to 386 allocation sites
HEAP_INSTANCES = [(0, 12, 6), (1, 12, 6), (2, 12, 6), (0, 24, 6), (1, 24, 6), (0, 48, 8)]
LARGEST_HEAP = (0, 96, 8)  # 770 allocation sites
# solved against the oracle only: 322 to 482 allocation sites, more workers
MORE_HEAP = [(3, 40, 12), (4, 64, 6), (5, 32, 10)]
# (maxDepth, maxPathsPerSensitive): neither cap, the depth cap, the path
# cap, and both
BINDING_CAPS = [(50, 100), (3, 100), (50, 1), (4, 2)]


@pytest.fixture(scope="module")
def prepared_programs(framework, spec):
    return [gen_and_prepare(seed, framework, spec) for seed in SEEDS]


@pytest.fixture(scope="module")
def diamond_programs(framework, spec):
    return [pipeline.prepare(gen_app(seed, diamond=True), [framework], spec=spec)
            for seed in DIAMOND_SEEDS]


@pytest.fixture(scope="module")
def split_programs(framework, spec):
    return [pipeline.prepare(gen_app(seed, split=True), [framework], spec=spec)
            for seed in SPLIT_SEEDS]


@pytest.fixture(scope="module")
def heap_programs(framework, spec):
    return [pipeline.prepare(gen_heap_app(*instance), [framework], spec=spec)
            for instance in HEAP_INSTANCES]


def gen_and_prepare(seed, framework, spec):
    return pipeline.prepare(gen_app(seed), [framework], spec=spec)


@pytest.mark.parametrize("seed", SEEDS)
def test_points_to_matches_oracle(seed, framework, spec):
    assert_matches_oracle(gen_and_prepare(seed, framework, spec))


@pytest.mark.parametrize("seed,workers,allocs", HEAP_INSTANCES + MORE_HEAP)
def test_heap_points_to_matches_oracle(seed, workers, allocs, framework, spec):
    prepared = pipeline.prepare(gen_heap_app(seed, workers, allocs), [framework], spec=spec)
    assert len(prepared.sol.sites) > 64
    assert_matches_oracle(prepared)


def test_views_stay_lazy(framework, spec):
    # analyze reads the bitsets; the frozenset views are for the oracles
    prepared = pipeline.prepare(gen_heap_app(*HEAP_INSTANCES[0]), [framework], spec=spec)
    traverse(prepared, mode="cfa1")
    assert {"pts0", "fpts0", "spts0"}.isdisjoint(vars(prepared.sol))
    assert_matches_oracle(prepared)


def test_heap_solve_memory(framework):
    prepared = pipeline.prepare(gen_heap_app(*LARGEST_HEAP), [framework])
    tracemalloc.start()
    try:
        solve_0cfa(prepared.program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a set of SiteId per node plus one frozenset each takes 30 to 55 MB on
    # the largest instances; int bitsets and one frozenset per distinct set
    # take under 2 MB
    assert peak < 8 * 2**20, f"solve_0cfa peaked at {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("mode", ["cfa0", "cfa1"])
def test_detection_matches_enumeration(prepared_programs, diamond_programs, split_programs, mode):
    # generous caps: the generated programs are far below the defaults, so
    # the capped DFS must agree with uncapped exhaustive enumeration
    repeated = []
    for prepared in [*diamond_programs, *prepared_programs, *split_programs]:
        report = traverse(prepared, mode=mode, limits=Limits(50, 10000))
        got = detected_sensitives(report)
        visits = Counter()
        want = detected_oracle(
            prepared.program,
            prepared.cg,
            prepared.sol,
            prepared.sensitives,
            mode,
            visits,
        )
        assert got == want, f"{prepared.program.name} ({mode})"
        repeated.append(sum(1 for n in visits.values() if n > 1))
    # each diamond makes the enumeration enter some callee twice from one
    # site, so the comparison covers traversal states met more than once
    assert all(repeated[:len(diamond_programs)])


def assert_report_matches_oracle(prepared, mode, max_depth, max_paths):
    """``write_report`` bytes equal the capped oracle's; returns the report."""
    report = traverse(prepared, mode=mode, limits=Limits(max_depth, max_paths))
    want = report_oracle(prepared, mode, max_depth, max_paths)
    got = write_report(report)
    assert got == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode(), (
        prepared.program.name, mode, max_depth, max_paths
    )
    return report


@pytest.mark.parametrize("mode", ["cfa0", "cfa1"])
@pytest.mark.parametrize("max_depth,max_paths", BINDING_CAPS)
def test_report_matches_capped_oracle(
    prepared_programs, diamond_programs, split_programs, mode, max_depth, max_paths
):
    # the traversal skips callees that cannot change the report; the oracle
    # walks every method-simple path, so a skip that drops a path or a
    # truncated flag shows as a byte difference
    depth_cut = sensitive_cut = 0
    for prepared in [*prepared_programs, *diamond_programs, *split_programs]:
        report = assert_report_matches_oracle(prepared, mode, max_depth, max_paths)
        depth_cut += sum(cb["truncated"] for cb in report.callbacks)
        sensitive_cut += sum(
            s["truncated"]
            for cb in report.callbacks
            for ip in cb["insertionPoints"]
            for s in ip["sensitives"]
        )
    assert bool(depth_cut) == (max_depth < 50)
    assert bool(sensitive_cut) == (max_paths < 100)


def recursion_app():
    """onCreate opens the camera and calls a, a calls b, and b calls a back
    and calls c. The longest walk, onCreate a b c, has four nodes: one more
    than a chain from a has when the a-b cycle is not counted."""

    def calls(*targets):
        return [{"op": "invoke", "kind": "static", "method": t} for t in targets]

    return app_from_dict({
        "name": "recursion",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "app.Host", "super": "android.app.Activity", "methods": [
                {"name": "onCreate", "body": calls("android.hardware.Camera#open()", "app.U#a()")},
            ]},
            {"name": "app.U", "methods": [
                {"name": "a", "static": True, "body": calls("app.U#b()")},
                {"name": "b", "static": True, "body": calls("app.U#a()", "app.U#c()")},
                {"name": "c", "static": True, "body": []},
            ]},
        ],
    })


@pytest.mark.parametrize("app", [ladder_app(1), ladder_app(2), ladder_app(3), ladder_app(5),
                                 recursion_app()], ids=lambda app: app.name)
@pytest.mark.parametrize("max_depth,max_paths", [*BINDING_CAPS, (5, 3), (6, 3)])
def test_hand_built_report_matches_capped_oracle(framework, spec, app, max_depth, max_paths):
    prepared = pipeline.prepare(app, [framework], spec=spec)
    assert_report_matches_oracle(prepared, "cfa1", max_depth, max_paths)


def test_split_programs_detect_less_under_cfa1(split_programs):
    # a kind that reaches the helper only through the re-entry is detected
    # by cfa0 alone: every entering site's refined receiver set excludes it
    differ = 0
    for prepared in split_programs:
        cfa0, cfa1 = (
            detected_sensitives(traverse(prepared, mode=mode, limits=Limits(50, 10000)))
            for mode in ("cfa0", "cfa1")
        )
        assert cfa1 <= cfa0, prepared.program.name
        differ += cfa1 != cfa0
    assert differ


def shared_state_app():
    """onCreate reaches c through a and through b, and c calls d: d is
    entered from the same site on both paths, so its virtual call is met
    twice under one context."""

    def calls(*targets):
        return [{"op": "invoke", "kind": "static", "method": t} for t in targets]

    return app_from_dict({
        "name": "shared-state",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "app.Host", "super": "android.app.Activity",
             "methods": [{"name": "onCreate", "body": calls("app.U#a()", "app.U#b()")}]},
            {"name": "app.U", "methods": [
                {"name": "a", "static": True, "body": calls("app.U#c()")},
                {"name": "b", "static": True, "body": calls("app.U#c()")},
                {"name": "c", "static": True, "body": calls("app.U#d()")},
                {"name": "d", "static": True, "body": [
                    {"op": "new", "target": "box", "type": "app.Box"},
                    {"op": "invoke", "kind": "virtual", "method": "app.Box#run()",
                     "receiver": "box"},
                ]},
            ]},
            {"name": "app.Box", "methods": [
                {"name": "run", "body": calls("android.hardware.Camera#open()")},
            ]},
        ],
    })


def test_filter_edges_runs_once_per_state(
    prepared_programs, diamond_programs, framework, spec, monkeypatch
):
    calls = Counter()
    real = analysis.filter_edges

    def counting(cg, sol, program, hierarchy, site, ctx):
        calls[site, ctx] += 1
        return real(cg, sol, program, hierarchy, site, ctx)

    monkeypatch.setattr(analysis, "filter_edges", counting)
    shared = pipeline.prepare(shared_state_app(), [framework], spec=spec)
    for prepared in [*prepared_programs, *diamond_programs, shared]:
        calls.clear()
        report = traverse(prepared, mode="cfa1", limits=Limits(50, 10000))
        assert [key for key, n in calls.items() if n > 1] == [], prepared.program.name
    d_call = (SiteId("app.U#d()", 1), SiteId("app.U#c()", 0))
    assert d_call in calls and report.summary["paths"] == 2


def path_nodes(report):
    return [
        node
        for cb in report.callbacks
        for ip in cb["insertionPoints"]
        for s in ip["sensitives"]
        for p in s["paths"]
        for node in p["nodes"]
    ]


def test_paths_share_one_node_per_state(diamond_programs, threads):
    # a work counter: every path through a (method, entering site) state
    # holds that state's one node dict, so the writer renders it once
    diamond = diamond_programs[19]  # 16 path nodes over 7 states
    for prepared in (diamond, threads):
        for mode in ("cfa0", "cfa1"):
            nodes = path_nodes(traverse(prepared, mode=mode))
            states = {(n["method"], n["entry"]) for n in nodes}
            assert len({id(n) for n in nodes}) == len(states), (prepared.program.name, mode)
            assert prepared is threads or len(nodes) > len(states)


def test_write_report_matches_stdlib_on_generated(
    prepared_programs, diamond_programs, split_programs
):
    for prepared in [*prepared_programs, *diamond_programs, *split_programs]:
        for mode in ("cfa0", "cfa1"):
            report = traverse(prepared, mode=mode)
            want = json.dumps(report._asdict(), indent=2, sort_keys=True) + "\n"
            assert write_report(report) == want.encode(), (prepared.program.name, mode)


def test_filter_edges_matches_oracle(
    prepared_programs, diamond_programs, split_programs, heap_programs, threads, viewstub,
    monkeypatch,
):
    seen = {}
    real = analysis.filter_edges

    def recording(cg, sol, program, hierarchy, site, ctx):
        seen[site, ctx] = real(cg, sol, program, hierarchy, site, ctx)
        return seen[site, ctx]

    monkeypatch.setattr(analysis, "filter_edges", recording)
    queries = pruned = ambiguous = 0
    programs = [*split_programs, *prepared_programs, *diamond_programs, *heap_programs]
    for i, prepared in enumerate([*programs, threads, viewstub]):
        seen.clear()
        traverse(prepared, mode="cfa1", limits=Limits(50, 10000))
        pruned_here = 0
        for (site, ctx), got in seen.items():
            want = filter_edges_oracle(
                prepared.cg, prepared.sol, prepared.program, site, ctx
            )
            assert got == want, f"{prepared.program.name}: {site} under {ctx}"
            pruned_here += len(got[0]) < len(prepared.cg.edges_at(site))
            ambiguous += got[1]
        # every split program's helper has its edges pruned per entering site
        assert pruned_here or i >= len(split_programs), prepared.program.name
        queries += len(seen)
        pruned += pruned_here
    # the heap programs keep several targets per site (each one from other
    # runtime types); the split programs and the threads fixture prune some
    assert queries and pruned and ambiguous


def test_generator_respects_bounds():
    for seed in SEEDS:
        app = gen_app(seed)
        assert len(app.classes) <= 10
        n_stmts = sum(len(m.body or ()) for c in app.classes for m in c.methods)
        assert n_stmts <= 40 + len(app.classes)  # returns sit outside the budget


def test_augmentation_matches_per_pass_oracle(
    prepared_programs, diamond_programs, threads, viewstub, parametric
):
    for prepared in [*prepared_programs, *diamond_programs, threads, viewstub, parametric]:
        main = prepared.program.entry_main_sig
        # without the dummy main's edges the solver's edges hang off methods
        # that only augmentation makes reachable, so the walk must follow
        # them past the targets it added
        cut = CallGraph(
            edges={s: t for s, t in prepared.cg_raw.edges.items() if s.method != main},
            reachable=frozenset(),
        )
        for raw in (prepared.cg_raw, cut):
            cg = augment_call_graph(raw, prepared.program)
            edges, reachable = augment_oracle(raw, prepared.program, prepared.program.hierarchy)
            assert cg.edges == edges, prepared.program.name
            assert cg.reachable == reachable, prepared.program.name


def test_augmentation_queries_each_site_once(prepared_programs, viewstub, monkeypatch):
    # equal statements are one interned object, which can sit at several
    # sites: an object is queried at most once per scanned site holding it
    queries = Counter()
    scanned = set()
    real_query, real_sites = ClassHierarchy.cha_targets, LinkedProgram.call_sites

    def counting(self, invoke):
        queries[id(invoke)] += 1
        return real_query(self, invoke)

    def scanning(self, sig):
        scanned.add(sig)
        return real_sites(self, sig)

    monkeypatch.setattr(ClassHierarchy, "cha_targets", counting)
    monkeypatch.setattr(LinkedProgram, "call_sites", scanning)
    for prepared in [viewstub, *prepared_programs]:
        queries.clear()
        scanned.clear()
        cg = augment_call_graph(prepared.cg_raw, prepared.program)
        holders = Counter(
            id(stmt) for sig in scanned for _site, stmt in real_sites(prepared.program, sig)
        )
        assert all(n <= holders[i] for i, n in queries.items()), prepared.program.name
        assert cg == prepared.cg
