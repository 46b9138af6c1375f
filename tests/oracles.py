"""Independent reference implementations used to cross-check the analyzer.

These are deliberately naive: whole-state fixpoint iteration instead of a
worklist, recursion over frozensets instead of bitsets, and exhaustive path
enumeration, or a recursive capped DFS without pruning, instead of the
pruned DFS on an explicit stack. They share no code with the production
analyses beyond the IR data model, except that ``augment_oracle`` asks the
hierarchy for CHA targets, which ``cha_oracle`` checks on its own.
"""

from collections import defaultdict, deque

from permplace.model import (
    Assign,
    ConstStr,
    Invoke,
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


def _naive_subtype(program, sub, sup):
    """Reflexive-transitive subtype check over supers and interfaces."""
    seen = set()
    stack = [sub]
    while stack:
        cur = stack.pop()
        if cur == sup:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        decl = program.get_class(cur)
        if decl is None:
            continue
        if decl.super is not None:
            stack.append(decl.super)
        stack.extend(decl.interfaces)
    return False


def _declared(decl, name, params):
    """The method of ``decl`` with this name and parameters, by a linear scan."""
    return next((m for m in decl.methods if m.name == name and m.params == tuple(params)), None)


def _naive_dispatch(program, rtype, name, params):
    """Walk the superclass chain for the nearest concrete declaration; a
    runtime type that is not a class dispatches nowhere."""
    decl = program.get_class(rtype)
    if decl is None or decl.kind != "class":
        return None
    cur = rtype
    while cur is not None:
        decl = program.get_class(cur)
        if decl is None:
            return None
        m = _declared(decl, name, params)
        if m is not None and not m.abstract:
            return m.sig(cur)
        cur = decl.super
    return None


def _naive_resolve(program, cls, name, params):
    """Visible declaration: breadth-first, superclasses before interfaces."""
    seen = set()
    queue = [cls]
    while queue:
        cur = queue.pop(0)
        if cur in seen:
            continue
        seen.add(cur)
        decl = program.get_class(cur)
        if decl is None:
            continue
        m = _declared(decl, name, params)
        if m is not None:
            return m.sig(cur)
        if decl.super is not None:
            queue.append(decl.super)
        queue.extend(decl.interfaces)
    return None


def supertype_oracle(program):
    """Name -> reflexive-transitive supertypes, by whole-table fixpoint
    iteration over every class's declared superclass and interfaces."""
    sups = {name: {name} for name in program.classes}
    changed = True
    while changed:
        changed = False
        for name, decl in program.classes.items():
            declared = list(decl.interfaces)
            if decl.super is not None:
                declared.append(decl.super)
            for p in declared:
                if not sups[p] <= sups[name]:
                    sups[name] |= sups[p]
                    changed = True
    return sups


def cha_oracle(program, invoke):
    """Bodied CHA targets of a call site: the visible declaration for static
    and special sites, else the dispatch result of every class whose
    supertypes include the declared receiver type."""
    cls, name, params = parse_method_sig(invoke.method)
    if invoke.kind in ("static", "special"):
        found = [_naive_resolve(program, cls, name, params)]
    else:
        found = [
            _naive_dispatch(program, sub, name, params)
            for sub, sups in supertype_oracle(program).items()
            if cls in sups and program.classes[sub].kind == "class"
        ]
    return {
        sig
        for sig in found
        if sig is not None and program.lookup_method(sig)[1].body is not None
    }


def andersen_oracle(program):
    """Naive whole-program fixpoint for the 0-CFA constraint system.

    Returns (pts, fld, sfld, edges, reachable) with the same shapes as the
    production solution: pts keyed by (method sig, var), fld by (alloc site,
    field name), sfld by field id, edges by SiteId holding (target,
    provenance) pairs.
    """
    main = program.entry_main_sig
    pts = defaultdict(set)
    fld = defaultdict(set)
    sfld = defaultdict(set)
    edges = defaultdict(set)
    reachable = {main}
    alloc_type = {}

    def returns_of(sig):
        body = program.body_of(sig)
        if body is None:
            return []
        return [s.value for s in body if isinstance(s, Return) and s.value is not None]

    changed = True
    while changed:
        changed = False

        def add(store, key, values):
            nonlocal changed
            new = set(values) - store[key]
            if new:
                store[key] |= new
                changed = True

        for sig in sorted(reachable):
            body = program.body_of(sig)
            if body is None:
                continue
            prov = "entry" if sig == main else "pointsto"
            for i, stmt in enumerate(body):
                site = SiteId(sig, i)
                if isinstance(stmt, New):
                    alloc_type[site] = stmt.type
                    add(pts, (sig, stmt.target), {site})
                elif isinstance(stmt, ConstStr):
                    alloc_type[site] = JAVA_STRING
                    add(pts, (sig, stmt.target), {site})
                elif isinstance(stmt, Assign):
                    add(pts, (sig, stmt.target), pts[(sig, stmt.source)])
                elif isinstance(stmt, LoadStatic):
                    add(pts, (sig, stmt.target), sfld[stmt.field])
                elif isinstance(stmt, StoreStatic):
                    add(sfld, stmt.field, pts[(sig, stmt.source)])
                elif isinstance(stmt, LoadField):
                    for a in list(pts[(sig, stmt.base)]):
                        add(pts, (sig, stmt.target), fld[(a, stmt.field)])
                elif isinstance(stmt, StoreField):
                    for a in list(pts[(sig, stmt.base)]):
                        add(fld, (a, stmt.field), pts[(sig, stmt.source)])
                elif isinstance(stmt, Invoke):
                    cls, name, params = parse_method_sig(stmt.method)
                    targets = []
                    if stmt.kind in ("static", "special"):
                        t = _naive_resolve(program, cls, name, params)
                        if t is not None:
                            targets.append((t, None))
                            if stmt.kind == "special" and stmt.receiver is not None:
                                add(pts, (t, "this"), pts[(sig, stmt.receiver)])
                    else:
                        for a in sorted(pts[(sig, stmt.receiver)]):
                            rtype = alloc_type.get(a)
                            if rtype is None or not _naive_subtype(program, rtype, cls):
                                continue
                            t = _naive_dispatch(program, rtype, name, params)
                            if t is not None:
                                targets.append((t, a))
                    for t, recv_alloc in targets:
                        if (t, prov) not in edges[site]:
                            edges[site].add((t, prov))
                            changed = True
                        if t not in reachable:
                            reachable.add(t)
                            changed = True
                        if recv_alloc is not None:
                            add(pts, (t, "this"), {recv_alloc})
                        for k, arg in enumerate(stmt.args):
                            add(pts, (t, param_local(k)), pts[(sig, arg)])
                        if stmt.target is not None:
                            for rv in returns_of(t):
                                add(pts, (sig, stmt.target), pts[(t, rv)])

    return (
        {k: frozenset(v) for k, v in pts.items() if v},
        {k: frozenset(v) for k, v in fld.items() if v},
        {k: frozenset(v) for k, v in sfld.items() if v},
        {k: frozenset(v) for k, v in edges.items() if v},
        frozenset(reachable),
    )


def assert_matches_oracle(prepared):
    """The solver's points-to sets, raw call edges and reachable methods
    equal ``andersen_oracle``'s."""
    pts, fld, sfld, edges, reachable = andersen_oracle(prepared.program)
    assert prepared.sol.pts0 == pts
    assert prepared.sol.fpts0 == fld
    assert prepared.sol.spts0 == sfld
    assert prepared.cg_raw.edges == edges
    assert prepared.cg_raw.reachable == reachable


def _reachable_methods(edges: dict, roots) -> frozenset:
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


def augment_oracle(cg, program, hierarchy):
    """Safe-edge augmentation pass by pass until a pass adds no edge,
    recomputing reachability from the root after each pass; returns
    (edges, reachable). This is an earlier production algorithm, kept as
    the reference for the single reachability walk of
    ``augment_call_graph``."""
    edges = dict(cg.edges)
    roots = [program.entry_main_sig] if program.entry_main_sig else []
    reachable = _reachable_methods(edges, roots)
    fresh = reachable
    while True:
        changed = False
        for m in sorted(fresh):
            body = program.body_of(m)
            if body is None:
                continue
            for i, stmt in enumerate(body):
                if not isinstance(stmt, Invoke):
                    continue
                site = SiteId(m, i)
                if edges.get(site):
                    continue
                targets = hierarchy.cha_targets(stmt)
                if len(targets) == 1:
                    edges[site] = frozenset({(next(iter(targets)), "augmented")})
                    changed = True
        if not changed:
            break
        fresh = _reachable_methods(edges, roots) - reachable
        reachable |= fresh
    return edges, reachable


def refine_oracle(sol, program, method, var, entry_site):
    """The 1-CFA refined points-to set of a local of ``method`` entered from
    ``entry_site``, by direct recursion over the frozenset views. A local met
    again while it is being refined reads its context-insensitive set."""
    entry = program.stmt_at(entry_site)
    caller = entry_site.method
    body = program.body_of(method) or ()
    memo = {}

    def refine(v):
        if v in memo:
            return memo[v]
        pts0 = memo[v] = sol.pts0.get((method, v), frozenset())
        defs = [(i, s) for i, s in enumerate(body) if getattr(s, "target", None) == v]
        param = int(v[1:]) if v[:1] == "p" and v[1:].isdigit() else None
        result = set()
        if v == "this" and entry.receiver is not None:
            result |= sol.pts0.get((caller, entry.receiver), frozenset())
        elif param is not None and param < len(entry.args):
            result |= sol.pts0.get((caller, entry.args[param]), frozenset())
        elif not defs and param is None and v != "this":
            result |= pts0
        for i, stmt in defs:
            if isinstance(stmt, (New, ConstStr)):
                result.add(SiteId(method, i))
            elif isinstance(stmt, Assign):
                result |= refine(stmt.source)
            elif isinstance(stmt, LoadField):
                for a in refine(stmt.base):
                    result |= sol.fpts0.get((a, stmt.field), frozenset())
            elif isinstance(stmt, LoadStatic):
                result |= sol.spts0.get(stmt.field, frozenset())
            elif isinstance(stmt, Invoke):
                result |= pts0
        memo[v] = frozenset(result) & pts0
        return memo[v]

    return refine(var)


def filter_edges_oracle(cg, sol, program, site, entry_site):
    """(edges, ambiguous) at ``site`` under the context ``entry_site``: a
    points-to edge at a virtual site survives when some allocation in the
    refined receiver set dispatches to it, one dispatch per allocation;
    augmented edges pass, and an empty survivor set keeps every edge."""
    edges = cg.edges_at(site)
    stmt = program.stmt_at(site)
    if not isinstance(stmt, Invoke):
        return frozenset(), False
    if stmt.kind in ("static", "special"):
        return edges, False
    passthrough = {e for e in edges if e[1] == "augmented"}
    pointsto = edges - passthrough
    if not pointsto:
        return edges, False
    _cls, name, params = parse_method_sig(stmt.method)
    alloc_type = dict(zip(sol.sites, sol.types))
    allowed = {
        _naive_dispatch(program, alloc_type[a], name, params)
        for a in refine_oracle(sol, program, site.method, stmt.receiver, entry_site)
    }
    surviving = frozenset(e for e in pointsto if e[0] in allowed) or pointsto
    return frozenset(passthrough | surviving), len(surviving) > 1


def detected_oracle(program, cg, sol, sensitives, mode, visits=None):
    """Exhaustive simple-path enumeration of detectable sensitive sites.

    Mirrors the traversal's reachability semantics (per-entry DFS, method
    path-stack cycle cut, per-entered-site context filtering in cfa1 mode)
    without any depth or path caps. Returns site-id strings. A Counter
    passed as ``visits`` counts each (method, entering site) walked.
    """
    sens_by_method = defaultdict(list)
    for s in sensitives:
        sens_by_method[s.site.method].append(s)
    found = set()

    def walk(method, entry_site, stack):
        if visits is not None:
            visits[method, entry_site] += 1
        for s in sens_by_method.get(method, ()):
            found.add(str(s.site))
        body = program.body_of(method) or ()
        for i, stmt in enumerate(body):
            if not isinstance(stmt, Invoke):
                continue
            site = SiteId(method, i)
            edges = cg.edges_at(site)
            if not edges:
                continue
            if mode == "cfa1":
                surviving, _amb = filter_edges_oracle(cg, sol, program, site, entry_site)
            else:
                surviving = edges
            for target, _prov in surviving:
                if target in stack or program.body_of(target) is None:
                    continue
                walk(target, site, stack | {target})

    for entry_site in program.entry_sites:
        entry_edges = cg.edges_at(entry_site)
        if not entry_edges:
            continue
        cb_sig = sorted(entry_edges)[0][0]
        walk(cb_sig, entry_site, {cb_sig})
    return found


def report_oracle(prepared, mode, max_depth, max_paths):
    """The report ``analysis.traverse`` writes, as a dict, by a recursive,
    unpruned, method-simple DFS over every callback: each call site in body
    order, its surviving edges sorted, at most ``max_paths`` paths per
    sensitive and ``max_depth`` nodes per path. A callback is ``truncated``
    when some path reaches ``max_depth`` nodes, a sensitive when it is
    reached with ``max_paths`` paths already recorded. cfa1 filters with
    ``filter_edges_oracle``."""
    program, cg, sol = prepared.program, prepared.cg, prepared.sol
    callbacks, flagged = [], set()

    for entry_site in program.entry_sites:
        entry_edges = cg.edges_at(entry_site)
        if not entry_edges:
            continue
        cb_sig = sorted(entry_edges)[0][0]
        paths = defaultdict(list)  # sensitive -> [(insertion stmt, path)]
        capped = set()
        depth_cut = []

        def walk(method, entry_site, path, ambiguous):
            path = path + [(method, entry_site)]
            for s in prepared.sensitives:
                if s.site.method != method:
                    continue
                if len(paths[s]) >= max_paths:
                    capped.add(s)
                    continue
                stmt = path[1][1].stmt if len(path) > 1 else s.site.stmt
                nodes = [{"method": m, "entry": str(e)} for m, e in path]
                paths[s].append((stmt, {"nodes": nodes, "ambiguous": ambiguous}))
            if len(path) >= max_depth:
                depth_cut.append(True)
                return
            for i, stmt in enumerate(program.body_of(method) or ()):
                site = SiteId(method, i)
                edges = cg.edges_at(site)
                if not isinstance(stmt, Invoke) or not edges:
                    continue
                if mode == "cfa1":
                    surviving, amb = filter_edges_oracle(cg, sol, program, site, entry_site)
                else:
                    surviving, amb = edges, len(edges) > 1
                for target, _prov in sorted(surviving):
                    if program.body_of(target) is not None and all(target != m for m, _ in path):
                        walk(target, site, path, ambiguous or amb)

        walk(cb_sig, entry_site, [], False)
        if not paths:
            continue
        by_stmt = defaultdict(list)
        for s in sorted(paths):
            for stmt in sorted({stmt for stmt, _ in paths[s]}):
                flagged.add(s)
                by_stmt[stmt].append({
                    "site": str(s.site),
                    "kind": s.kind,
                    "keys": list(s.matchedKeys),
                    "permissions": sorted(s.permissions),
                    "viaParametric": s.kind == "field",
                    "truncated": s in capped,
                    "paths": [p for at, p in paths[s] if at == stmt],
                })
        callbacks.append({
            "class": parse_method_sig(cb_sig)[0],
            "method": cb_sig,
            "entrySite": str(entry_site),
            "truncated": bool(depth_cut),
            "insertionPoints": [
                {
                    "stmt": stmt,
                    "permissions": sorted({p for s in sens for p in s["permissions"]}),
                    "sensitives": sens,
                }
                for stmt, sens in sorted(by_stmt.items())
            ],
        })
    return {
        "app": program.name,
        "mode": mode,
        "augment": prepared.augmented,
        "callbacks": callbacks,
        "summary": {
            "callbacksFlagged": len(callbacks),
            "sensitivesDetected": len(flagged),
            "paths": sum(
                len(s["paths"]) for cb in callbacks for ip in cb["insertionPoints"]
                for s in ip["sensitives"]
            ),
            "permissions": sorted({p for s in flagged for p in s.permissions}),
        },
    }
