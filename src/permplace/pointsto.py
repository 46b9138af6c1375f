"""Context-insensitive (0-CFA) Andersen-style points-to analysis with
on-the-fly call-graph construction, plus CHA safe-edge augmentation.

Field points-to is keyed by allocation site; static fields are global
cells. Method bodies are processed only once reachable from the synthetic
entry, so call sites whose receiver never acquires an allocation site get
zero edges — the incompleteness that augmentation repairs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from .errors import UnknownType
from .hierarchy import ClassHierarchy
from .model import (
    Assign,
    ConstStr,
    Invoke,
    LinkedProgram,
    LoadField,
    LoadStatic,
    New,
    Return,
    SiteId,
    StoreField,
    StoreStatic,
    param_local,
    parse_method_sig,
)

JAVA_STRING = "java.lang.String"


@dataclass(frozen=True)
class PointsToSolution:
    pts0: dict  # (method sig, var) -> frozenset[SiteId]
    fpts0: dict  # (alloc SiteId, field name) -> frozenset[SiteId]
    spts0: dict  # static field id -> frozenset[SiteId]
    alloc_type: dict  # SiteId -> class name

    def pts(self, method: str, var: str) -> frozenset:
        return self.pts0.get((method, var), frozenset())

    def fpts(self, site: SiteId, fname: str) -> frozenset:
        return self.fpts0.get((site, fname), frozenset())


@dataclass(frozen=True)
class CallGraph:
    edges: dict  # SiteId -> frozenset[(target sig, provenance)]
    reachable: frozenset  # method sigs

    def edges_at(self, site: SiteId) -> frozenset:
        return self.edges.get(site, frozenset())


class _Solver:
    def __init__(self, program: LinkedProgram, hierarchy: ClassHierarchy):
        self.program = program
        self.hierarchy = hierarchy
        self.pts = defaultdict(set)  # node -> set[SiteId]
        self.succ = defaultdict(set)  # copy edges between nodes
        self.load_deps = defaultdict(list)  # base node -> [(field, target node)]
        self.store_deps = defaultdict(list)  # base node -> [(field, source node)]
        self.call_deps = defaultdict(list)  # receiver node -> [SiteId]
        self.edges = defaultdict(set)  # SiteId -> {(target, provenance)}
        self.reachable = set()
        self.pending = []  # reachable methods whose bodies are not processed yet
        self.linked = set()  # (site, target) arg/return plumbing done
        self.alloc_type = {}
        self.worklist = deque()

    # nodes ----------------------------------------------------------------

    @staticmethod
    def var(sig, name):
        return ("v", sig, name)

    @staticmethod
    def fld(site, name):
        return ("f", site, name)

    @staticmethod
    def sfld(fid):
        return ("s", fid)

    # propagation ----------------------------------------------------------

    def add_pts(self, node, sites):
        new = set(sites) - self.pts[node]
        if new:
            self.pts[node] |= new
            self.worklist.append((node, new))

    def add_edge(self, src, dst):
        if dst not in self.succ[src]:
            self.succ[src].add(dst)
            if self.pts[src]:
                self.add_pts(dst, self.pts[src])

    # call handling --------------------------------------------------------

    def _provenance(self, site: SiteId) -> str:
        return "entry" if site.method == self.program.entry_main_sig else "pointsto"

    def add_call_edge(self, site: SiteId, target: str):
        self.edges[site].add((target, self._provenance(site)))
        self.make_reachable(target)

    def link_call(self, site: SiteId, stmt: Invoke, target: str):
        """Arg -> param and return -> target copy edges, once per edge."""
        if (site, target) in self.linked:
            return
        self.linked.add((site, target))
        caller = site.method
        for i, arg in enumerate(stmt.args):
            self.add_edge(self.var(caller, arg), self.var(target, param_local(i)))
        if stmt.target is not None:
            body = self.program.body_of(target)
            if body is not None:
                for ret in body:
                    if isinstance(ret, Return) and ret.value is not None:
                        self.add_edge(self.var(target, ret.value), self.var(caller, stmt.target))

    def dispatch_call(self, site: SiteId, stmt: Invoke, alloc: SiteId):
        rtype = self.alloc_type.get(alloc)
        if rtype is None:
            return
        cls, name, params = parse_method_sig(stmt.method)
        # ill-typed receiver objects never dispatch: the runtime type must
        # conform to the declared receiver type (keeps every points-to edge
        # inside the CHA cone of the site)
        if not self.hierarchy.is_subtype(rtype, cls):
            return
        hit = self.hierarchy.dispatch(rtype, name, params)
        if hit is None:
            return
        owner, m = hit
        target = m.sig(owner)
        self.add_call_edge(site, target)
        self.add_pts(self.var(target, "this"), {alloc})
        self.link_call(site, stmt, target)

    # body processing ------------------------------------------------------

    def make_reachable(self, sig: str):
        if sig not in self.reachable:
            self.reachable.add(sig)
            self.pending.append(sig)

    def process_body(self, sig: str):
        body = self.program.body_of(sig)
        if body is None:
            return
        for i, stmt in enumerate(body):
            site = SiteId(sig, i)
            if isinstance(stmt, New):
                self.alloc_type[site] = stmt.type
                self.add_pts(self.var(sig, stmt.target), {site})
            elif isinstance(stmt, ConstStr):
                self.alloc_type[site] = JAVA_STRING
                self.add_pts(self.var(sig, stmt.target), {site})
            elif isinstance(stmt, Assign):
                self.add_edge(self.var(sig, stmt.source), self.var(sig, stmt.target))
            elif isinstance(stmt, LoadStatic):
                self.add_edge(self.sfld(stmt.field), self.var(sig, stmt.target))
            elif isinstance(stmt, StoreStatic):
                self.add_edge(self.var(sig, stmt.source), self.sfld(stmt.field))
            elif isinstance(stmt, LoadField):
                base = self.var(sig, stmt.base)
                self.load_deps[base].append((stmt.field, self.var(sig, stmt.target)))
                for a in list(self.pts[base]):
                    self.add_edge(self.fld(a, stmt.field), self.var(sig, stmt.target))
            elif isinstance(stmt, StoreField):
                base = self.var(sig, stmt.base)
                self.store_deps[base].append((stmt.field, self.var(sig, stmt.source)))
                for a in list(self.pts[base]):
                    self.add_edge(self.var(sig, stmt.source), self.fld(a, stmt.field))
            elif isinstance(stmt, Invoke):
                if stmt.kind in ("static", "special"):
                    try:
                        target = self.hierarchy.resolve_declaration(stmt)
                    except UnknownType:
                        target = None
                    if target is not None:
                        self.add_call_edge(site, target)
                        if stmt.kind == "special" and stmt.receiver is not None:
                            self.add_edge(
                                self.var(sig, stmt.receiver), self.var(target, "this")
                            )
                        self.link_call(site, stmt, target)
                else:
                    recv = self.var(sig, stmt.receiver)
                    self.call_deps[recv].append(site)
                    for a in list(self.pts[recv]):
                        self.dispatch_call(site, stmt, a)

    def run(self):
        main = self.program.entry_main_sig
        if main is None:
            raise ValueError("program has no synthetic entry; run generate_dummy_main first")
        self.make_reachable(main)
        while self.pending or self.worklist:
            if self.pending:
                self.process_body(self.pending.pop())
                continue
            node, delta = self.worklist.popleft()
            for dst in list(self.succ[node]):
                self.add_pts(dst, delta)
            for fname, tgt in list(self.load_deps.get(node, ())):
                for a in delta:
                    self.add_edge(self.fld(a, fname), tgt)
            for fname, src in list(self.store_deps.get(node, ())):
                for a in delta:
                    self.add_edge(src, self.fld(a, fname))
            for csite in list(self.call_deps.get(node, ())):
                stmt = self.program.stmt_at(csite)
                for a in delta:
                    self.dispatch_call(csite, stmt, a)


def solve_0cfa(program: LinkedProgram, hierarchy: ClassHierarchy):
    """Worklist fixpoint from the synthetic entry. Returns
    (PointsToSolution, CallGraph)."""
    solver = _Solver(program, hierarchy)
    solver.run()
    pts0 = {}
    fpts0 = {}
    spts0 = {}
    for node, sites in solver.pts.items():
        if not sites:
            continue
        if node[0] == "v":
            pts0[(node[1], node[2])] = frozenset(sites)
        elif node[0] == "f":
            fpts0[(node[1], node[2])] = frozenset(sites)
        else:
            spts0[node[1]] = frozenset(sites)
    sol = PointsToSolution(
        pts0=pts0,
        fpts0=fpts0,
        spts0=spts0,
        alloc_type=dict(solver.alloc_type),
    )
    cg = CallGraph(
        edges={s: frozenset(ts) for s, ts in solver.edges.items() if ts},
        reachable=frozenset(solver.reachable),
    )
    return sol, cg


def reachable_methods(edges: dict, roots) -> frozenset:
    """Transitive closure over call edges from root method sigs."""
    by_method = defaultdict(list)
    for site, targets in edges.items():
        by_method[site.method].append(targets)
    seen = set()
    queue = deque(roots)
    while queue:
        m = queue.popleft()
        if m in seen:
            continue
        seen.add(m)
        for targets in by_method.get(m, ()):
            for target, _prov in targets:
                if target not in seen:
                    queue.append(target)
    return frozenset(seen)


def augment_call_graph(
    cg: CallGraph,
    program: LinkedProgram,
    hierarchy: ClassHierarchy,
    passes: int | None = None,
) -> CallGraph:
    """Add a safe edge at every reachable, points-to-edgeless call site whose
    CHA target set is a single bodied method; iterate over newly reachable
    code until fixpoint (``passes`` caps the iterations; 1 reproduces a
    single post-processing sweep). Points-to sets are never recomputed."""
    edges = {site: set(ts) for site, ts in cg.edges.items()}
    main = program.entry_main_sig
    reachable = reachable_methods(edges, [main] if main else [])
    done = 0
    while passes is None or done < passes:
        changed = False
        for m in sorted(reachable):
            body = program.body_of(m)
            if body is None:
                continue
            for i, stmt in enumerate(body):
                if not isinstance(stmt, Invoke):
                    continue
                site = SiteId(m, i)
                if edges.get(site):
                    continue
                try:
                    targets = hierarchy.cha_targets(stmt)
                except UnknownType:
                    continue
                if len(targets) == 1:
                    edges[site] = {(next(iter(targets)), "augmented")}
                    changed = True
        done += 1
        if not changed:
            break
        reachable = reachable_methods(edges, [main] if main else [])
    return CallGraph(
        edges={s: frozenset(ts) for s, ts in edges.items() if ts},
        reachable=frozenset(reachable),
    )
