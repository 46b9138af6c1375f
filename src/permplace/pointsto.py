"""Context-insensitive (0-CFA) Andersen-style points-to analysis with
on-the-fly call-graph construction, plus CHA safe-edge augmentation.

Field points-to is keyed by allocation site; static fields are global
cells. Method bodies are processed only once reachable from the synthetic
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
    Return,
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
    """Locals, instance fields of one allocation and static fields are
    numbered densely as they appear, and so are allocation sites. A
    points-to set is an int whose bit ``a`` stands for allocation ``a``. A
    node is on the worklist while it holds bits its dependents have not
    seen, ``pts[n] & ~done[n]``, and only those bits are pushed on."""

    def __init__(self, program: LinkedProgram, hierarchy: ClassHierarchy):
        self.program = program
        self.hierarchy = hierarchy
        self.main = program.entry_main_sig
        self.vars = {}  # (method sig, local) -> node
        self.fields = {}  # (alloc, field name) -> node
        self.statics = {}  # static field id -> node
        self.pts = []  # node -> bitset of allocs
        self.done = []  # node -> bits already pushed to its dependents
        self.dirty = []  # nodes with pts != done
        self.succ = defaultdict(set)  # copy edges between nodes
        self.load_deps = defaultdict(list)  # base node -> [(field, target node)]
        self.store_deps = defaultdict(list)  # base node -> [(field, source node)]
        # receiver node -> [(site, stmt, declared receiver type, targets linked at the site)]
        self.call_deps = defaultdict(list)
        self.sites = []  # alloc -> SiteId
        self.alloc_type = []  # alloc -> class name
        self.type_allocs = defaultdict(int)  # class name -> bitset of its allocs
        self.edges = defaultdict(set)  # SiteId -> {(target, provenance)}
        self.reachable = set()
        self.pending = []  # reachable methods whose bodies are not processed yet

    # nodes ----------------------------------------------------------------

    def node(self, table: dict, key) -> int:
        n = table.get(key)
        if n is None:
            n = table[key] = len(self.pts)
            self.pts.append(0)
            self.done.append(0)
        return n

    def var(self, sig, name):
        return self.node(self.vars, (sig, name))

    def field(self, alloc, name):
        return self.node(self.fields, (alloc, name))

    def alloc(self, site: SiteId, type_: str) -> int:
        self.sites.append(site)
        self.alloc_type.append(type_)
        bit = 1 << (len(self.sites) - 1)
        self.type_allocs[type_] |= bit
        return bit

    # propagation ----------------------------------------------------------

    def add_pts(self, n, bits):
        old = self.pts[n]
        if bits & ~old:
            if old == self.done[n]:
                self.dirty.append(n)
            self.pts[n] = old | bits

    def add_edge(self, src, dst):
        if src != dst and dst not in self.succ[src]:
            self.succ[src].add(dst)
            if self.pts[src]:
                self.add_pts(dst, self.pts[src])

    # call handling --------------------------------------------------------

    def link_call(self, site: SiteId, stmt: Invoke, target: str):
        """The call edge, with its arg -> param and return -> target copy
        edges. Called once per (site, target) pair: a body is processed
        once, and a virtual site links only targets new to it."""
        caller = site.method
        self.edges[site].add((target, "entry" if caller == self.main else "pointsto"))
        self.make_reachable(target)
        for i, arg in enumerate(stmt.args):
            self.add_edge(self.var(caller, arg), self.var(target, param_local(i)))
        if stmt.target is not None:
            body = self.program.body_of(target)
            if body is not None:
                for ret in body:
                    if isinstance(ret, Return) and ret.value is not None:
                        self.add_edge(self.var(target, ret.value), self.var(caller, stmt.target))

    def dispatch_call(self, call, bits):
        """Dispatch a virtual call on the receiver allocs ``bits``: one
        ``this`` update per distinct target, and the edge with its
        arg/return links for each target new to the site."""
        site, stmt, cls, linked = call
        by_target = defaultdict(int)
        for rtype, recv in by_runtime_type(bits, self.type_allocs, self.alloc_type):
            # ill-typed receiver objects never dispatch: the runtime type must
            # conform to the declared receiver type (keeps every points-to
            # edge inside the CHA cone of the site)
            if self.hierarchy.is_subtype(rtype, cls):
                target = self.hierarchy.dispatch(rtype, stmt.method)
                if target is not None:
                    by_target[target] |= recv
        for target, recv in by_target.items():
            if target not in linked:
                linked.add(target)
                self.link_call(site, stmt, target)
            self.add_pts(self.var(target, "this"), recv)

    # body processing ------------------------------------------------------

    def make_reachable(self, sig: str):
        if sig not in self.reachable:
            self.reachable.add(sig)
            self.pending.append(sig)
            # off-line variable substitution: the locals of a copy cycle end
            # with one set, so they share one node from the start
            copies = {}
            for stmt in self.program.body_of(sig) or ():
                if type(stmt) is Assign:
                    copies.setdefault(stmt.source, []).append(stmt.target)
            for comp in components(copies, copies) if len(copies) > 1 else ():
                for local in comp[1:]:
                    self.vars[sig, local] = self.var(sig, comp[0])

    def process_body(self, sig: str):
        body = self.program.body_of(sig)
        if body is None:
            return
        for i, stmt in enumerate(body):
            if isinstance(stmt, New):
                self.add_pts(self.var(sig, stmt.target), self.alloc(SiteId(sig, i), stmt.type))
            elif isinstance(stmt, ConstStr):
                self.add_pts(self.var(sig, stmt.target), self.alloc(SiteId(sig, i), JAVA_STRING))
            elif isinstance(stmt, Assign):
                self.add_edge(self.var(sig, stmt.source), self.var(sig, stmt.target))
            elif isinstance(stmt, LoadStatic):
                self.add_edge(self.node(self.statics, stmt.field), self.var(sig, stmt.target))
            elif isinstance(stmt, StoreStatic):
                self.add_edge(self.var(sig, stmt.source), self.node(self.statics, stmt.field))
            elif isinstance(stmt, LoadField):
                base, dst = self.var(sig, stmt.base), self.var(sig, stmt.target)
                self.load_deps[base].append((stmt.field, dst))
                for a in members(self.pts[base]):
                    self.add_edge(self.field(a, stmt.field), dst)
            elif isinstance(stmt, StoreField):
                base, src = self.var(sig, stmt.base), self.var(sig, stmt.source)
                self.store_deps[base].append((stmt.field, src))
                for a in members(self.pts[base]):
                    self.add_edge(src, self.field(a, stmt.field))
            elif isinstance(stmt, Invoke):
                site = SiteId(sig, i)
                if stmt.kind in ("static", "special"):
                    target = self.hierarchy.resolve_declaration(stmt)
                    if target is not None:
                        self.link_call(site, stmt, target)
                        if stmt.kind == "special" and stmt.receiver is not None:
                            self.add_edge(
                                self.var(sig, stmt.receiver), self.var(target, "this")
                            )
                else:
                    recv = self.var(sig, stmt.receiver)
                    call = (site, stmt, parse_method_sig(stmt.method)[0], set())
                    self.call_deps[recv].append(call)
                    self.dispatch_call(call, self.pts[recv])

    def run(self):
        if self.main is None:
            raise ValueError("program has no synthetic entry; run generate_dummy_main first")
        self.make_reachable(self.main)
        while self.pending or self.dirty:
            if self.pending:
                self.process_body(self.pending.pop())
                continue
            n = self.dirty.pop()
            delta = self.pts[n] & ~self.done[n]
            self.done[n] = self.pts[n]
            for dst in self.succ.get(n, ()):
                self.add_pts(dst, delta)
            allocs = members(delta) if n in self.load_deps or n in self.store_deps else ()
            for fname, dst in self.load_deps.get(n, ()):
                for a in allocs:
                    self.add_edge(self.field(a, fname), dst)
            for fname, src in self.store_deps.get(n, ()):
                for a in allocs:
                    self.add_edge(src, self.field(a, fname))
            for call in self.call_deps.get(n, ()):
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
        for i, stmt in enumerate(program.body_of(m) or ()):
            if not isinstance(stmt, Invoke):
                continue
            site = SiteId(m, i)
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
