"""1-CFA context-sensitive refinement, realized as query-time filtering over
the 0-CFA solution.

A context is the call site that entered the current method (depth 1),
passed as that invoke's ``SiteId``. Every edge a traversal follows
resolves the invoke's own name and parameters, so the site calls the
method it enters.
Actual arguments and call returns are evaluated context-insensitively in
the caller; instance-field contents use context-insensitive field sets but
through a context-refined base set, which is what lets one call site's
receiver discriminate between otherwise-merged heap objects.
"""

from __future__ import annotations

from .hierarchy import ClassHierarchy
from .model import (
    Assign,
    ConstStr,
    Invoke,
    LinkedProgram,
    LoadField,
    LoadStatic,
    New,
    SiteId,
    param_index,
)
from .pointsto import CallGraph, PointsToSolution, by_runtime_type, members


def refine_bits(
    sol: PointsToSolution,
    program: LinkedProgram,
    method: str,
    var: str,
    entry_site: SiteId,
) -> int:
    """Context-refined points-to set, as a bitset over the solution's
    allocations, for a local of ``method`` entered at the invoke
    ``entry_site``.

    Always a subset of the context-insensitive set; falls back to it on
    local-assignment cycles and at the depth-1 cutoff (call returns,
    arguments evaluated in the caller).
    """
    entry = program.stmt_at(entry_site)
    index = program.defs_index(method) or {}
    caller = entry_site.method
    pts, fpts = sol.vars, sol.fields

    def entry_bits(v: str, defined: bool) -> int:
        # the part of a local's set that its definitions do not give
        if v == "this" and entry.receiver is not None:
            return pts.get((caller, entry.receiver), 0)
        i = param_index(v)
        if i is not None and i < len(entry.args):
            return pts.get((caller, entry.args[i]), 0)
        if not defined and i is None and v != "this":
            return pts.get((method, v), 0)
        return 0

    if var not in index:
        # a parameter, ``this`` or an undefined local: no walk to start
        return entry_bits(var, False) & pts.get((method, var), 0)
    memo = {}

    def refine(v: str):
        # yields each local whose refined set it needs and is sent that set
        pts0 = pts.get((method, v), 0)
        memo[v] = pts0  # cycle fallback: context-insensitive set
        defs = index.get(v, ())
        bits = entry_bits(v, bool(defs))
        for idx, stmt in defs:
            if isinstance(stmt, (New, ConstStr)):
                bits |= sol.site_bit.get(SiteId(method, idx), 0)
            elif isinstance(stmt, Assign):
                bits |= yield stmt.source
            elif isinstance(stmt, LoadField):
                for a in members((yield stmt.base)):
                    bits |= fpts.get((a, stmt.field), 0)
            elif isinstance(stmt, LoadStatic):
                bits |= sol.statics.get(stmt.field, 0)
            elif isinstance(stmt, Invoke):
                bits |= pts0  # depth-1 cutoff on call returns
        memo[v] = bits & pts0
        return memo[v]

    # post-order walk over an explicit stack of suspended refine() frames; a
    # local already in memo, finished or still on the stack, is read from it
    stack = [refine(var)]
    value = None
    while stack:
        try:
            dep = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
            continue
        if dep in memo:
            value = memo[dep]
        else:
            stack.append(refine(dep))
            value = None
    return value


def filter_edges(
    cg: CallGraph,
    sol: PointsToSolution,
    program: LinkedProgram,
    hierarchy: ClassHierarchy,
    site: SiteId,
    entry_site: SiteId,
):
    """Context-filter the edges at a call site; returns (edges, ambiguous).
    The one function with a ``hierarchy`` parameter (``program.hierarchy``):
    the benchmark's tracer reads the site and the context at positions 4, 5.

    A site with fewer than two edges has no choice and passes unchanged:
    static and special sites link one target, and augmentation adds one
    edge, only at a site that had none. At any other site only the edges
    whose targets the refined receiver set dispatches to survive; an empty
    refined set, or a filter that would drop every edge, keeps them all
    (never drop reachability on refinement gaps). ``ambiguous`` is true
    when more than one edge survives.
    """
    edges = cg.edges_at(site)
    if len(edges) < 2:
        return edges, False
    stmt = program.stmt_at(site)
    refined = refine_bits(sol, program, site.method, stmt.receiver, entry_site)
    surviving = edges
    if refined:
        # the targets of the refined runtime types; unlike the solver, no
        # subtype check
        allowed = {
            hierarchy.dispatch(t, stmt.method)
            for t, _ in by_runtime_type(refined, sol.type_allocs, sol.types)
        }
        surviving = frozenset(e for e in edges if e[0] in allowed) or edges
    return surviving, len(surviving) > 1
