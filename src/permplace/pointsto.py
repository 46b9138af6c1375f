"""Context-insensitive (0-CFA) Andersen-style points-to analysis with
on-the-fly call-graph construction, plus CHA safe-edge augmentation.

Field points-to is keyed by allocation site; static fields are global
cells. A body is scanned once, when it becomes reachable from the synthetic
entry, so call sites whose receiver never acquires an allocation site get
zero edges — the incompleteness that augmentation repairs.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import NamedTuple

from .graph import closure, components
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
    StoreField,
    StoreStatic,
    param_local,
    parse_method_sig,
)

JAVA_STRING = "java.lang.String"


class PointsToSolution:
    """The solver's tables. A points-to set is an int whose bit ``a`` stands
    for allocation ``a``; the ``frozenset[SiteId]`` views ``pts0``,
    ``fpts0`` and ``spts0`` are built on first access, with one frozenset
    shared by every key holding the same set."""

    def __init__(self, vars: dict, fields: dict, statics: dict, sites: list, types: list,
                 type_allocs: dict, site_bit: dict):
        self.vars = vars  # (method sig, local) -> bitset
        self.fields = fields  # (alloc, field name) -> bitset
        self.statics = statics  # static field id -> bitset
        self.sites = sites  # alloc -> SiteId
        self.types = types  # alloc -> class name
        self.type_allocs = type_allocs  # class name -> bitset of its allocs
        self.site_bit = site_bit  # SiteId -> bit
        self._frozen = {}

    def frozen(self, bits: int) -> frozenset:
        """The allocation sites of ``bits``, one frozenset per distinct set."""
        if bits not in self._frozen:
            self._frozen[bits] = frozenset(self.sites[a] for a in members(bits))
        return self._frozen[bits]

    @cached_property
    def pts0(self) -> dict:  # (method sig, var) -> frozenset[SiteId]
        return {key: self.frozen(bits) for key, bits in self.vars.items()}

    @cached_property
    def fpts0(self) -> dict:  # (alloc SiteId, field name) -> frozenset[SiteId]
        return {(self.sites[a], f): self.frozen(bits) for (a, f), bits in self.fields.items()}

    @cached_property
    def spts0(self) -> dict:  # static field id -> frozenset[SiteId]
        return {key: self.frozen(bits) for key, bits in self.statics.items()}


class CallGraph(NamedTuple):
    edges: dict  # SiteId -> frozenset[(target sig, provenance)]
    reachable: frozenset  # method sigs

    def edges_at(self, site: SiteId) -> frozenset:
        return self.edges.get(site, frozenset())


class _Solver:
    """Locals, instance fields of one allocation, static fields and
    allocation sites are numbered densely as they appear. A node is on the
    worklist while it holds bits its dependents have not seen,
    ``pts[n] & ~done[n]``, and only those bits are pushed on. A body is
    scanned once, when it becomes reachable, and receiver allocs are
    classified once per invoke signature; the hot loops keep the tables in
    locals and inline the bit update."""

    def __init__(self, program: LinkedProgram, hierarchy: ClassHierarchy):
        self.program, self.hierarchy, self.main = program, hierarchy, program.entry_main_sig
        self.vars = {}  # (method sig, local) -> node
        self.fields = {}  # (alloc, field name) -> node
        self.statics = {}  # static field id -> node
        self.pts = []  # node -> bitset of allocs
        self.done = []  # node -> bits already pushed to its dependents
        self.dirty = []  # nodes with pts != done
        self.succ = defaultdict(set)  # copy edges between nodes
        self.load_deps = defaultdict(list)  # base node -> [(field, target node)]
        self.store_deps = defaultdict(list)  # base node -> [(field, source node)]
        self.call_deps = defaultdict(list)  # receiver node -> [(site, stmt, targets linked)]
        self.classified = {}  # invoke sig -> [allocs seen, {type: target}, {target: allocs}, cls]
        self.sites = []  # alloc -> SiteId
        self.alloc_type = []  # alloc -> class name
        self.type_allocs = defaultdict(int)  # class name -> bitset of its allocs
        self.edges = defaultdict(set)  # SiteId -> {(target, provenance)}
        self.reachable = set()
        self.pending = []  # (sig, body) of reachable methods not processed yet

    def node(self, table: dict, key) -> int:
        n = table.get(key)
        if n is None:
            n = table[key] = len(self.pts)
            self.pts.append(0)
            self.done.append(0)
        return n

    def var(self, sig, name):
        return self.node(self.vars, (sig, name))

    def add_pts(self, n, bits):
        old = self.pts[n]
        if bits & ~old:
            if old == self.done[n]:
                self.dirty.append(n)
            self.pts[n] = old | bits

    def add_edge(self, src, dst):
        if src != dst and dst not in self.succ[src]:
            self.succ[src].add(dst)
            self.add_pts(dst, self.pts[src])

    def link_call(self, site: SiteId, stmt: Invoke, target: str):
        """The call edge with its arg -> param and return -> target copies,
        once per (site, target) pair."""
        caller = site.method
        self.edges[site].add((target, "entry" if caller == self.main else "pointsto"))
        self.make_reachable(target)
        for i, arg in enumerate(stmt.args):
            self.add_edge(self.var(caller, arg), self.var(target, param_local(i)))
        for ret in self.program.methods[target].returns if stmt.target is not None else ():
            self.add_edge(self.var(target, ret), self.var(caller, stmt.target))

    def dispatch_call(self, call, bits):
        """Feed each target's ``this`` its allocs in ``bits``, linking it on
        first use at the site. Only allocs new to the invoke signature are
        split by runtime type, and only types new to it ask the hierarchy."""
        site, stmt, linked = call
        entry = self.classified.get(stmt.method)
        if entry is None:
            entry = self.classified[stmt.method] = [0, {}, {}, parse_method_sig(stmt.method)[0]]
        seen, by_type, allocs, cls = entry
        if bits & ~seen:
            entry[0], h = seen | bits, self.hierarchy
            for rtype, recv in by_runtime_type(bits & ~seen, self.type_allocs, self.alloc_type):
                if rtype not in by_type:
                    # an ill-typed receiver never dispatches, keeping every
                    # points-to edge inside the CHA cone of the site
                    by_type[rtype] = h.is_subtype(rtype, cls) and h.dispatch(rtype, stmt.method)
                if by_type[rtype]:
                    allocs[by_type[rtype]] = allocs.get(by_type[rtype], 0) | recv
        for target, mine in allocs.items():
            if bits & mine:
                if target not in linked:
                    linked.add(target)
                    self.link_call(site, stmt, target)
                n, recv = self.var(target, "this"), bits & mine
                old = self.pts[n]
                if recv & ~old:
                    if old == self.done[n]:
                        self.dirty.append(n)
                    self.pts[n] = old | recv

    def make_reachable(self, sig: str):
        """Queue a method new to the reachable set, reading its entry in the
        program's table."""
        if sig in self.reachable:
            return
        self.reachable.add(sig)
        entry = self.program.lookup_method(sig)
        if entry.method.body:
            self.pending.append((sig, entry.method.body))
        # off-line variable substitution: the locals of a copy cycle end with
        # one set, so they share one node. The assigns among a local's
        # definitions give its sources: the copy graph reversed, with the
        # same cycles; a cycle needs a local copied both ways
        sources = {}
        for local, defs in entry.defs.items():
            for _i, stmt in defs:
                if type(stmt) is Assign:
                    sources.setdefault(local, []).append(stmt.source)
        if any(s in sources for ss in sources.values() for s in ss):
            for comp in components(sources, sources):
                for local in comp[1:]:
                    self.vars[sig, local] = self.var(sig, comp[0])

    def process_body(self, sig: str, body):
        vars, pts, node, add_edge = self.vars, self.pts, self.node, self.add_edge
        sites, new_site = self.sites, tuple.__new__
        for i, stmt in enumerate(body):
            kind = type(stmt)
            if kind is Assign:
                add_edge(node(vars, (sig, stmt.source)), node(vars, (sig, stmt.target)))
            elif kind is New or kind is ConstStr:
                bit = 1 << len(sites)
                sites.append(new_site(SiteId, (sig, i)))
                self.alloc_type.append(stmt.type if kind is New else JAVA_STRING)
                self.type_allocs[self.alloc_type[-1]] |= bit
                self.add_pts(node(vars, (sig, stmt.target)), bit)
            elif kind is LoadStatic:
                add_edge(node(self.statics, stmt.field), node(vars, (sig, stmt.target)))
            elif kind is StoreStatic:
                add_edge(node(vars, (sig, stmt.source)), node(self.statics, stmt.field))
            elif kind is LoadField:
                base, dst = node(vars, (sig, stmt.base)), node(vars, (sig, stmt.target))
                self.load_deps[base].append((stmt.field, dst))
                for a in members(pts[base]):
                    add_edge(node(self.fields, (a, stmt.field)), dst)
            elif kind is StoreField:
                base, src = node(vars, (sig, stmt.base)), node(vars, (sig, stmt.source))
                self.store_deps[base].append((stmt.field, src))
                for a in members(pts[base]):
                    add_edge(src, node(self.fields, (a, stmt.field)))
            elif kind is Invoke:
                site = new_site(SiteId, (sig, i))
                if stmt.kind == "static" or stmt.kind == "special":
                    target = self.hierarchy.resolve_declaration(stmt)
                    if target is not None:
                        self.link_call(site, stmt, target)
                        if stmt.kind == "special" and stmt.receiver is not None:
                            add_edge(node(vars, (sig, stmt.receiver)), self.var(target, "this"))
                else:
                    recv, call = node(vars, (sig, stmt.receiver)), (site, stmt, set())
                    self.call_deps[recv].append(call)
                    self.dispatch_call(call, pts[recv])

    def run(self):
        if self.main is None:
            raise ValueError("program has no synthetic entry; run generate_dummy_main first")
        pts, done, dirty, pending, succ = self.pts, self.done, self.dirty, self.pending, self.succ
        loads, stores, calls = self.load_deps, self.store_deps, self.call_deps
        node, fields, add_edge = self.node, self.fields, self.add_edge
        self.make_reachable(self.main)
        while pending or dirty:
            if pending:
                self.process_body(*pending.pop())
                continue
            n = dirty.pop()
            delta = pts[n] & ~done[n]
            done[n] = pts[n]
            for dst in succ.get(n, ()):
                old = pts[dst]
                if delta & ~old:
                    if old == done[dst]:
                        dirty.append(dst)
                    pts[dst] = old | delta
            if n in loads or n in stores:
                allocs = members(delta)
                for fname, dst in loads.get(n, ()):
                    for a in allocs:
                        add_edge(node(fields, (a, fname)), dst)
                for fname, src in stores.get(n, ()):
                    for a in allocs:
                        add_edge(src, node(fields, (a, fname)))
            for call in calls.get(n, ()):
                self.dispatch_call(call, delta)


def members(bits: int) -> list:
    """Indices of the set bits of ``bits``, lowest first."""
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


def by_runtime_type(bits: int, type_allocs: dict, alloc_type) -> list:
    """Split the allocs ``bits`` into (runtime type, its allocs in ``bits``)
    pairs: per type when the set outnumbers the types (merged heaps), else
    per alloc (a receiver or two, many types), so a type may repeat."""
    if bits.bit_count() > len(type_allocs):
        return [(rtype, bits & allocs) for rtype, allocs in type_allocs.items() if bits & allocs]
    return [(alloc_type[a], 1 << a) for a in members(bits)]


def solve_0cfa(program: LinkedProgram, hierarchy: ClassHierarchy):
    """Worklist fixpoint from the synthetic entry. Returns
    (PointsToSolution, CallGraph)."""
    solver = _Solver(program, hierarchy)
    solver.run()
    pts = solver.pts
    sol = PointsToSolution(
        vars={key: pts[n] for key, n in solver.vars.items() if pts[n]},
        fields={key: pts[n] for key, n in solver.fields.items() if pts[n]},
        statics={key: pts[n] for key, n in solver.statics.items() if pts[n]},
        sites=solver.sites,
        types=solver.alloc_type,
        type_allocs=dict(solver.type_allocs),
        site_bit={site: 1 << a for a, site in enumerate(solver.sites)},
    )
    cg = CallGraph(
        edges={s: frozenset(ts) for s, ts in solver.edges.items() if ts},
        reachable=frozenset(solver.reachable),
    )
    return sol, cg


def augment_call_graph(
    cg: CallGraph, program: LinkedProgram, hierarchy: ClassHierarchy
) -> CallGraph:
    """Add a safe edge at every reachable call site that has no edge and
    whose CHA target set is a single bodied method. One reachability walk
    from the synthetic entry does it: scanning a method augments its
    edgeless sites, and its successors are then the targets of all its
    sites. Points-to sets are never recomputed."""
    edges = dict(cg.edges)

    def callees(m):
        out = []
        for site, stmt in program.call_sites(m):
            targets = edges.get(site)
            if not targets:
                cha = hierarchy.cha_targets(stmt)
                if len(cha) != 1:
                    continue
                targets = edges[site] = frozenset({(*cha, "augmented")})
            out += [target for target, _prov in targets]
        return out

    main = program.entry_main_sig
    reachable = closure([main] if main else (), callees)
    return CallGraph(edges=edges, reachable=frozenset(reachable))
