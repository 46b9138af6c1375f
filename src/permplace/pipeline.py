"""End-to-end wiring: load, link, entry synthesis, solve, traverse."""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import analysis, entrypoints, pointsto
from .hierarchy import ClassHierarchy, build_hierarchy
from .model import AppModel, LinkConfig, LinkedProgram, link_program, load_app
from .permspec import PermissionSpec


class Prepared(NamedTuple):
    """Everything downstream analyses need about one app."""

    program: LinkedProgram  # with synthetic entry
    hierarchy: ClassHierarchy
    sol: pointsto.PointsToSolution
    cg: pointsto.CallGraph  # possibly augmented
    cg_raw: pointsto.CallGraph  # before augmentation
    sensitives: list
    augmented: bool  # whether ``cg`` went through augmentation


def prepare(
    app: AppModel,
    overlays=(),
    config: Optional[LinkConfig] = None,
    spec: Optional[PermissionSpec] = None,
    augment: bool = True,
    augment_passes: Optional[int] = None,
) -> Prepared:
    linked = link_program(app, overlays, config)
    hierarchy = build_hierarchy(linked)
    callbacks = entrypoints.detect_callbacks(linked, hierarchy)
    # reused: no hierarchy query names synthetic.Main (no parents, children, calls or allocations)
    program = entrypoints.generate_dummy_main(linked, callbacks)
    sol, cg_raw = pointsto.solve_0cfa(program, hierarchy)
    cg = (
        pointsto.augment_call_graph(cg_raw, program, hierarchy, passes=augment_passes)
        if augment
        else cg_raw
    )
    sensitives = (
        analysis.find_sensitive_sites(program, hierarchy, spec) if spec is not None else []
    )
    return Prepared(
        program=program,
        hierarchy=hierarchy,
        sol=sol,
        cg=cg,
        cg_raw=cg_raw,
        sensitives=sensitives,
        augmented=augment,
    )


def prepare_paths(
    app_path,
    overlay_paths=(),
    config: Optional[LinkConfig] = None,
    spec: Optional[PermissionSpec] = None,
    augment: bool = True,
    augment_passes: Optional[int] = None,
) -> Prepared:
    interned = {}  # one statement table for the app and its overlays
    app = load_app(app_path, interned)
    overlays = [load_app(p, interned) for p in overlay_paths]
    return prepare(
        app,
        overlays,
        config=config,
        spec=spec,
        augment=augment,
        augment_passes=augment_passes,
    )


def analyze(
    prepared: Prepared,
    mode: str = "cfa1",
    limits: analysis.Limits = analysis.Limits(),
) -> analysis.AnalysisReport:
    return analysis.traverse(
        prepared.program,
        prepared.cg,
        prepared.sol,
        prepared.hierarchy,
        prepared.sensitives,
        mode=mode,
        limits=limits,
        augment=prepared.augmented,
    )
