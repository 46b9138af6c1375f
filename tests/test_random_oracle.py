"""Differential testing on seeded random programs: the production solver
against the naive fixpoint oracle, and capped DFS traversal against
exhaustive path enumeration."""

from collections import Counter

import pytest

from oracles import andersen_oracle, detected_oracle
from permplace import analysis, pipeline
from permplace.analysis import Limits, detected_sensitives
from permplace.cfa1 import Context
from permplace.model import SiteId, app_from_dict
from randprog import gen_app

SEEDS = range(60)


@pytest.fixture(scope="module")
def prepared_programs(framework, spec):
    return [gen_and_prepare(seed, framework, spec) for seed in SEEDS]


def gen_and_prepare(seed, framework, spec):
    return pipeline.prepare(gen_app(seed), [framework], spec=spec)


@pytest.mark.parametrize("seed", SEEDS)
def test_points_to_matches_oracle(seed, framework, spec):
    prepared = gen_and_prepare(seed, framework, spec)
    pts, fld, sfld, edges, reachable = andersen_oracle(prepared.program)
    assert prepared.sol.pts0 == pts
    assert prepared.sol.fpts0 == fld
    assert prepared.sol.spts0 == sfld
    assert prepared.cg_raw.edges == edges
    assert prepared.cg_raw.reachable == reachable


@pytest.mark.parametrize("mode", ["cfa0", "cfa1"])
def test_detection_matches_enumeration(prepared_programs, mode):
    # generous caps: the generated programs are far below the defaults, so
    # the capped DFS must agree with uncapped exhaustive enumeration
    for prepared in prepared_programs:
        report = pipeline.analyze(prepared, mode=mode, limits=Limits(50, 10000))
        got = detected_sensitives(report)
        want = detected_oracle(
            prepared.program,
            prepared.cg,
            prepared.sol,
            prepared.hierarchy,
            prepared.sensitives,
            mode,
        )
        assert got == want, f"{prepared.program.name} ({mode})"


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


def test_filter_edges_runs_once_per_state(prepared_programs, framework, spec, monkeypatch):
    calls = Counter()
    real = analysis.filter_edges

    def counting(cg, sol, program, hierarchy, site, ctx):
        calls[site, ctx] += 1
        return real(cg, sol, program, hierarchy, site, ctx)

    monkeypatch.setattr(analysis, "filter_edges", counting)
    shared = pipeline.prepare(shared_state_app(), [framework], spec=spec)
    for prepared in [*prepared_programs, shared]:
        calls.clear()
        report = pipeline.analyze(prepared, mode="cfa1", limits=Limits(50, 10000))
        assert [key for key, n in calls.items() if n > 1] == [], prepared.program.name
    d_call = (SiteId("app.U#d()", 1), Context(entrySite=SiteId("app.U#c()", 0)))
    assert d_call in calls and report.summary["paths"] == 2


def test_generator_respects_bounds():
    for seed in SEEDS:
        app = gen_app(seed)
        assert len(app.classes) <= 10
        n_stmts = sum(len(m.body or ()) for c in app.classes for m in c.methods)
        assert n_stmts <= 40 + len(app.classes)  # returns sit outside the budget
