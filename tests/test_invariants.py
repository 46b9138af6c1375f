"""Cross-cutting soundness invariants, checked on the curated fixtures and
on a band of seeded random programs, plus a hypothesis property of the
coverage arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from oracles import detected_oracle
from permplace import pipeline
from permplace.analysis import (
    Limits,
    cha_reachable_methods,
    detected_sensitives,
    traverse,
    write_report,
)
from permplace.cfa1 import filter_edges, refine_bits
from permplace.collector import coverage_from_counts
from permplace.model import Invoke, SiteId, parse_method_sig
from randprog import gen_app

SEEDS = range(20)


@pytest.fixture(scope="module")
def subjects(threads, viewstub, parametric, framework, spec):
    out = [threads, viewstub, parametric]
    for seed in SEEDS:
        out.append(pipeline.prepare(gen_app(seed), [framework], spec=spec))
    return out


def _contexts(prepared):
    """(method, context) pairs realizable during traversal, a context being
    the entering call site: each callback under its dummy-main entry, and
    each bodied call-graph target under the call site that reaches it."""
    program = prepared.program
    pairs = []
    for entry_site in program.entry_sites:
        for target, _p in prepared.cg.edges_at(entry_site):
            pairs.append((target, entry_site))
    for site, targets in prepared.cg.edges.items():
        if site.method == program.entry_main_sig:
            continue
        for target, _p in targets:
            if program.body_of(target) is not None:
                pairs.append((target, site))
    return pairs


def test_every_context_invokes_its_method(subjects):
    """Each context is an invoke of its method's name and parameters: entry,
    points-to, augmented and static/special edges all resolve the invoke's
    own name and parameters, so cfa1 needs no check of its own."""
    checked = 0
    for prepared in subjects:
        for method, entry in _contexts(prepared):
            stmt = prepared.program.stmt_at(entry)
            assert isinstance(stmt, Invoke), entry
            assert parse_method_sig(stmt.method)[1:] == parse_method_sig(method)[1:], entry
            checked += 1
    assert checked > len(subjects)


def test_entry_site_edge_is_its_invoked_callback(subjects):
    """Each dummy-main entry site has one edge, to the method its invoke
    names, by provenance "entry": traverse reads the callback off the
    invoke."""
    checked = 0
    for prepared in subjects:
        for entry_site in prepared.program.entry_sites:
            stmt = prepared.program.stmt_at(entry_site)
            assert prepared.cg.edges_at(entry_site) == {(stmt.method, "entry")}, entry_site
            checked += 1
    assert checked > len(subjects)


def test_refinement_never_widens(subjects):
    for prepared in subjects:
        for method, ctx in _contexts(prepared):
            body = prepared.program.body_of(method) or ()
            local_names = {"this"} | {
                getattr(s, "target", None) for s in body
            } - {None}
            for v in sorted(local_names):
                refined = refine_bits(prepared.sol, prepared.program, method, v, ctx)
                assert prepared.sol.frozen(refined) <= prepared.sol.pts0.get((method, v), set())


def test_filtering_never_empties_or_widens(subjects):
    for prepared in subjects:
        for method, ctx in _contexts(prepared):
            body = prepared.program.body_of(method) or ()
            for i, stmt in enumerate(body):
                if not isinstance(stmt, Invoke):
                    continue
                site = SiteId(method, i)
                edges = prepared.cg.edges_at(site)
                if not edges:
                    continue
                surviving, ambiguous = filter_edges(
                    prepared.cg, prepared.sol, prepared.program, prepared.hierarchy, site, ctx
                )
                assert surviving
                assert surviving <= edges
                pointsto = [e for e in surviving if e[1] == "pointsto"]
                assert ambiguous == (len(pointsto) > 1)


def test_cfa1_subset_of_cfa0(subjects):
    for prepared in subjects:
        d1 = detected_sensitives(traverse(prepared, mode="cfa1"))
        d0 = detected_sensitives(traverse(prepared, mode="cfa0"))
        assert d1 <= d0


def test_augmentation_monotone(subjects):
    for prepared in subjects:
        raw, aug = prepared.cg_raw, prepared.cg
        for site, targets in raw.edges.items():
            assert targets <= aug.edges_at(site)
        assert raw.reachable <= aug.reachable
        # extra edges carry only the augmented provenance
        for site, targets in aug.edges.items():
            for extra in targets - raw.edges_at(site):
                assert extra[1] == "augmented"


def test_sites_without_a_choice_hold_one_edge(threads, viewstub, parametric, framework, spec):
    """What lets filter_edges pass a site with fewer than two edges
    unchanged: an augmented edge is alone at its site, and a static or
    special site links at most one target."""
    apps = [
        *map(gen_app, range(60)),
        *(gen_app(seed, diamond=True) for seed in range(20)),
        *(gen_app(seed, split=True) for seed in range(20)),
    ]
    augmented = direct = 0
    for prepared in [
        threads,
        viewstub,
        parametric,
        *(pipeline.prepare(app, [framework], spec=spec) for app in apps),
    ]:
        for site, edges in prepared.cg.edges.items():
            if any(prov == "augmented" for _target, prov in edges):
                assert len(edges) == 1, site
                augmented += 1
            if prepared.program.stmt_at(site).kind in ("static", "special"):
                assert len(edges) <= 1, site
                direct += 1
    assert augmented and direct


def test_detected_within_cha_within_all(subjects):
    for prepared in subjects:
        all_methods = {m.sig(d.name) for d in prepared.program.classes.values() for m in d.methods}
        cha = cha_reachable_methods(prepared.program, prepared.hierarchy)
        assert cha <= all_methods
        for mode in ("cfa0", "cfa1"):
            detected = detected_sensitives(traverse(prepared, mode=mode))
            assert {sid.rsplit("/", 1)[0] for sid in detected} <= cha


def site_id(text: str) -> SiteId:
    """The site written as ``text`` in a report."""
    method, _, stmt = text.rpartition("/")
    return SiteId(method, int(stmt))


def test_reported_paths_replay(subjects):
    """Every path in a report walks real, mode-surviving call edges."""
    for prepared in subjects:
        for mode in ("cfa0", "cfa1"):
            report = traverse(prepared, mode=mode)
            for cb in report.callbacks:
                for ip in cb["insertionPoints"]:
                    for s in ip["sensitives"]:
                        for p in s["paths"]:
                            nodes = p["nodes"]
                            assert nodes[0]["entry"] == cb["entrySite"]
                            assert nodes[-1]["method"] == s["site"].rsplit("/", 1)[0]
                            for prev, node in zip(nodes, nodes[1:]):
                                site = site_id(node["entry"])
                                assert site.method == prev["method"]
                                edges = prepared.cg.edges_at(site)
                                if mode == "cfa1":
                                    edges, _amb = filter_edges(
                                        prepared.cg,
                                        prepared.sol,
                                        prepared.program,
                                        prepared.hierarchy,
                                        site,
                                        site_id(prev["entry"]),
                                    )
                                assert node["method"] in {t for t, _p in edges}


def test_reports_byte_identical_across_fresh_runs(framework, spec):
    for seed in (0, 7, 13):
        a = pipeline.prepare(gen_app(seed), [framework], spec=spec)
        b = pipeline.prepare(gen_app(seed), [framework], spec=spec)
        for mode in ("cfa0", "cfa1"):
            assert write_report(traverse(a, mode=mode)) == write_report(
                traverse(b, mode=mode)
            )


def test_limits_only_shrink_detections(subjects):
    for prepared in subjects:
        full = detected_sensitives(traverse(prepared, mode="cfa1"))
        small = detected_sensitives(
            traverse(prepared, mode="cfa1", limits=Limits(3, 2))
        )
        assert small <= full


# -- arithmetic property -----------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_coverage_counts_properties(mcs, mc):
    if mcs + mc == 0:
        assert coverage_from_counts(mcs, mc) is None
        return
    ratio, pct = coverage_from_counts(mcs, mc)
    assert 0.0 <= ratio <= 1.0
    assert pct == math.floor(ratio * 100 + 0.5)
    assert 0 <= pct <= 100
