"""Sensitive-site detection, context-filtered reachability traversal,
insertion-point reporting, and the CHA-reachability partition."""

from __future__ import annotations

import json
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple

from .cfa1 import filter_edges
from .errors import InconsistentInput
from .graph import closure, components
from .intraflow import intraproc_values
from .model import LinkedProgram, SiteId, parse_method_sig
from .permspec import PermissionSpec


class SensitiveSite(NamedTuple):
    site: SiteId
    kind: str  # method | field
    matchedKeys: tuple  # sorted method sig / field ids / literal values
    permissions: frozenset


class Limits(NamedTuple):
    maxDepth: int = 50
    maxPathsPerSensitive: int = 100


class AnalysisReport(NamedTuple):
    app: str
    mode: str  # cfa0 | cfa1
    augment: bool  # whether the walked call graph went through augmentation
    callbacks: list  # [{class, method, entrySite, truncated, insertionPoints: [...]}]
    summary: dict  # {callbacksFlagged, sensitivesDetected, paths, permissions}


class ReportPaths(list):
    """A sensitive's report paths as traverse builds them, each
    ``{"ambiguous", "nodes"}`` with shared node dicts; the writer renders
    them with :func:`_path_pieces`."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# sensitive detection


def find_sensitive_sites(program: LinkedProgram, spec: PermissionSpec):
    """Scan every invoke in app/library bodies against the spec.

    Method entries match the declaration visible at the site; parametric
    entries match when the intraprocedural values of the flagged argument
    include a protected field (by id, or a string literal equal to a field
    entry's URI value). A site may yield both kinds."""
    out = []
    for _decl, _m, sig in program.iter_app_bodies():
        for site, stmt in program.call_sites(sig):
            visible = program.hierarchy.resolve_declaration(stmt)
            if visible is None:
                continue
            entry = spec.method_entry(visible)
            if entry is not None:
                out.append(
                    SensitiveSite(
                        site=site,
                        kind="method",
                        matchedKeys=(visible,),
                        permissions=entry.permissions,
                    )
                )
            for pentry in spec.parametric_entries(visible):
                idx = pentry.argIndex
                if idx is None or idx >= len(stmt.args):
                    continue
                matched = set()
                perms = set()
                for kind, value in intraproc_values(program, sig, stmt.args[idx]):
                    if kind == "sfield":
                        fentry = spec.field_entry(value)
                    else:
                        fentry = spec.field_entry_by_value(value)
                    if fentry is not None:
                        matched.add(value)
                        perms |= fentry.permissions
                if matched:
                    out.append(
                        SensitiveSite(
                            site=site,
                            kind="field",
                            matchedKeys=tuple(sorted(matched)),
                            permissions=frozenset(perms),
                        )
                    )
    return sorted(out)


# ---------------------------------------------------------------------------
# traversal


def traverse(prepared, mode: str = "cfa1", limits: Limits = Limits()) -> AnalysisReport:
    """Depth-first reachability from every dummy-main callback invocation
    of ``prepared`` (what :func:`pipeline.prepare` returns), over its call
    graph ``cg``.

    A method already on the current path stack is not re-entered; caps are
    reported in-band as ``truncated`` flags, never as errors. The callees
    of a (method, entering site) state depend on the state alone, so each
    state's call sites are context-filtered once per call and reused by
    every later visit, from any callback. A callee is skipped when every
    sensitive it can reach is already truncated for this callback and no
    walk below it can newly set the depth flag: such a subtree records
    nothing. Each state has one path node dict, made when its caller's
    call sites are first listed and shared by every reported path through
    it: callers must not mutate the nodes of a report, whose writer renders
    each node once."""
    assert mode in ("cfa0", "cfa1")
    program, cg, sol = prepared.program, prepared.cg, prepared.sol
    sensitives = prepared.sensitives
    max_depth, max_paths = limits.maxDepth, limits.maxPathsPerSensitive
    bit_of = {s: 1 << i for i, s in enumerate(sensitives)}
    ranked = sorted(bit_of)  # distinct sensitives, in report order
    # method -> [(the sensitive's stmt, its bit)]
    sens_by_method = defaultdict(list)
    for s in sensitives:
        sens_by_method[s.site.method].append((s.site.stmt, bit_of[s]))

    # Context-insensitive summaries over the call edges to bodied targets
    # (cfa1 only removes edges, so they bound every state of a method):
    # ``reach``, the bits of the sensitives a method can reach, and
    # ``height``, the most nodes a call chain from it can add, as
    # ``max_depth`` when it can reach a cycle. Self-edges are never walked.
    calls = defaultdict(set)
    for site, targets in cg.edges.items():
        for target, _prov in targets:
            if target != site.method and program.body_of(target) is not None:
                calls[site.method].add(target)
    reach, height = {}, {}
    for comp in components(calls, calls):
        bits = longest = 0
        for m in comp:
            for _stmt, b in sens_by_method.get(m, ()):
                bits |= b
            for target in calls.get(m, ()):
                bits |= reach.get(target, 0)
                # only a member of a cycle has no height yet
                longest = max(longest, height.get(target, max_depth))
        for m in comp:
            reach[m], height[m] = bits, min(longest + 1, max_depth)

    callbacks = []
    total_paths = 0
    flagged = set()
    # (method, entering site) -> the state's report node, shared by every
    # path through the state; it keeps the node's id valid
    nodes = {}
    # id(state node) -> [(callee, its node, the site entering it, ambiguous,
    # its reach, its height, its sensitives)] in visit order, bodyless
    # callees dropped. No entry refers to a list, so the states of recursive
    # code form no reference cycle.
    successors = {}

    def successors_of(node, method, entered_at):
        out = successors[id(node)] = []
        for site, _stmt in program.call_sites(method):
            edges = cg.edges_at(site)
            if not edges:
                continue
            if mode == "cfa1":
                surviving, amb = filter_edges(cg, sol, program, program.hierarchy, site, entered_at)
            else:
                surviving, amb = edges, len(edges) > 1
            for target, _prov in sorted(surviving):
                if program.body_of(target) is not None:
                    key = (target, site)
                    callee = nodes.get(key)
                    if callee is None:
                        callee = nodes[key] = {"method": target, "entry": str(site)}
                    out.append(
                        (
                            target,
                            callee,
                            site,
                            amb,
                            reach[target],
                            height[target],
                            sens_by_method.get(target, ()),
                        )
                    )
        return out

    for entry_site in program.entry_sites:
        # the solver links the entry invoke's host to the invoked callback
        cb_sig = program.stmt_at(entry_site).method
        cls = parse_method_sig(cb_sig)[0]
        # sensitive's bit -> [(insertion stmt, report path)] in path order
        paths_by_bit = defaultdict(list)
        truncated = 0  # bits of the sensitives whose paths were capped
        depth_truncated = False

        # a callee's frame runs to completion before its caller resumes, so
        # ``path`` and ``on_path`` always describe the top frame: its callees
        # iterator, whether its path is ambiguous and its method. The bottom
        # frame lists the callback alone, as a callee no check skips.
        root = {"method": cb_sig, "entry": str(entry_site)}
        nodes[cb_sig, entry_site] = root
        callees = iter([(cb_sig, root, entry_site, False, -1, 0, sens_by_method.get(cb_sig, ()))])
        ambiguous, method = False, None
        frames = []  # the frames below the top one
        path = []
        on_path = set()
        first_stmt = None  # the callback's statement that starts ``path``
        while True:
            for target, node, site, amb, bits, tall, sens in callees:
                if target in on_path or not bits & ~truncated and (
                    depth_truncated or len(path) + tall < max_depth
                ):
                    continue
                path.append(node)
                if len(path) == 2:
                    first_stmt = site.stmt
                amb = ambiguous or amb
                for stmt, b in sens:
                    recorded = paths_by_bit[b]
                    if len(recorded) >= max_paths:
                        truncated |= b
                        continue
                    # insertion point = first-call statement inside the
                    # callback body (or the sensitive itself when it sits in
                    # the callback)
                    recorded.append(
                        (first_stmt if len(path) > 1 else stmt, {"nodes": list(path), "ambiguous": amb})
                    )
                if len(path) >= max_depth:
                    depth_truncated = True
                    path.pop()
                    continue
                out = successors.get(id(node))
                if out is None:
                    out = successors_of(node, target, site)
                on_path.add(target)
                frames.append((callees, ambiguous, method))
                callees, ambiguous, method = iter(out), amb, target
                break
            else:
                if not frames:
                    break
                on_path.discard(method)
                path.pop()
                callees, ambiguous, method = frames.pop()

        if not paths_by_bit:
            continue
        # stmt index -> sensitive -> paths, sensitives in sorted order and
        # paths in path order
        by_stmt = defaultdict(dict)
        for s in ranked:
            for idx, p in paths_by_bit.get(bit_of[s], ()):
                by_stmt[idx].setdefault(s, ReportPaths()).append(p)
        insertion_points = []
        for idx in sorted(by_stmt):
            perms = set()
            sens_out = []
            for s, paths in by_stmt[idx].items():
                perms |= s.permissions
                flagged.add(s)
                total_paths += len(paths)
                sens_out.append(
                    {
                        "site": str(s.site),
                        "kind": s.kind,
                        "keys": list(s.matchedKeys),
                        "permissions": sorted(s.permissions),
                        "viaParametric": s.kind == "field",
                        "truncated": bool(truncated & bit_of[s]),
                        "paths": paths,
                    }
                )
            insertion_points.append(
                {"stmt": idx, "permissions": sorted(perms), "sensitives": sens_out}
            )
        callbacks.append(
            {
                "class": cls,
                "method": cb_sig,
                "entrySite": str(entry_site),
                "truncated": depth_truncated,
                "insertionPoints": insertion_points,
            }
        )

    summary = {
        "callbacksFlagged": len(callbacks),
        "sensitivesDetected": len(flagged),
        "paths": total_paths,
        "permissions": sorted({p for s in flagged for p in s.permissions}),
    }
    return AnalysisReport(program.name, mode, prepared.augmented, callbacks, summary)


def detected_sensitives(report: AnalysisReport):
    """Set of sensitive site-id strings flagged anywhere in a report."""
    out = set()
    for cb in report.callbacks:
        for ip in cb["insertionPoints"]:
            for s in ip["sensitives"]:
                out.add(s["site"])
    return out


# ---------------------------------------------------------------------------
# CHA-reachability partition


def cha_reachable_methods(program: LinkedProgram):
    """Closure from the dummy main using class hierarchy data alone: every
    call site expands to all its bodied CHA targets."""
    hierarchy = program.hierarchy

    def callees(m):
        return [t for _site, stmt in program.call_sites(m) for t in hierarchy.cha_targets(stmt)]

    main = program.entry_main_sig
    return closure([main] if main else (), callees)


def cha_reach_partition(prepared, detected):
    """Partition the sensitives of ``prepared`` into unreachable /
    cha_reachable_undetected / detected. ``detected`` is the site-id string
    set from a traverse run on the same program."""
    reachable = cha_reachable_methods(prepared.program)
    partition = {"unreachable": [], "cha_reachable_undetected": [], "detected": []}
    for s in sorted(prepared.sensitives):
        sid = str(s.site)
        if sid in detected:
            if s.site.method not in reachable:
                raise InconsistentInput(f"detected sensitive {sid} is not CHA-reachable")
            partition["detected"].append(s)
        elif s.site.method in reachable:
            partition["cha_reachable_undetected"].append(s)
        else:
            partition["unreachable"].append(s)
    return partition


# ---------------------------------------------------------------------------
# report serialization


def _indented_pieces(value, depth: int = 0) -> list:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, for
    ``value`` nested ``depth`` levels deep, as a list of strings; written
    without the stdlib's pure-Python encoder (which it uses whenever
    ``indent`` is set) and without recursion."""
    out = []
    node_texts = {}  # the path node texts of this call, see _path_pieces
    # popped in output order: a str is literal text, a (value, depth) pair a
    # value still to render
    stack = [(value, depth)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        v, depth = item
        if type(v) is str:
            out.append(_encode_str(v))
        elif type(v) is ReportPaths:
            out += _path_pieces(v, node_texts, depth)
        elif isinstance(v, dict):
            if not v:
                out.append("{}")
                continue
            inner = "\n" + "  " * (depth + 1)
            out.append("{")
            stack.append("\n" + "  " * depth + "}")
            items = sorted(v.items())
            for i in range(len(items) - 1, -1, -1):
                k, x = items[i]
                stack.append((x, depth + 1))
                stack.append(f"{',' if i else ''}{inner}{_encode_str(k)}: ")
        elif isinstance(v, (list, tuple)):
            if not v:
                out.append("[]")
                continue
            inner = "\n" + "  " * (depth + 1)
            out.append("[")
            stack.append("\n" + "  " * depth + "]")
            for i in range(len(v) - 1, -1, -1):
                stack.append((v[i], depth + 1))
                stack.append("," + inner if i else inner)
        elif v is True:
            out.append("true")
        elif v is False:
            out.append("false")
        else:
            out.append(json.dumps(v))
    return out


def write_json(value) -> bytes:
    """``json.dumps(value, indent=2, sort_keys=True)`` and a newline, as
    UTF-8, for values whose dict keys are strings: the one indented-JSON
    writer of reports and CLI outputs."""
    pieces = _indented_pieces(value)
    pieces.append("\n")
    return "".join(pieces).encode("utf-8")


def _path_pieces(paths, node_texts, depth: int) -> list:
    """``_indented_pieces(list(paths), depth)`` for a sensitive's report
    paths, from the texts of their nodes. ``node_texts`` maps a depth to
    {id(node): the node's text after its separator}; traverse shares one
    node dict per state, so each is rendered once per write. A path has
    its two keys and at least its callback's node, and ``paths`` holds at
    least one path."""
    ind = "\n" + "  " * (depth + 1)  # a path's braces
    key_ind = ind + "  "  # its keys and the brackets of its nodes
    sep = "," + key_ind + "  "  # what comes before a node
    head = f'{ind}{{{key_ind}"ambiguous": %s,{key_ind}"nodes": ['
    tail = f"{key_ind}]{ind}}}"
    # what comes before a path's nodes: the list's bracket or the previous
    # path's end, then the path's head
    first = {False: "[" + head % "false", True: "[" + head % "true"}
    later = {False: tail + "," + head % "false", True: tail + "," + head % "true"}
    texts = node_texts.setdefault(depth, {})
    text_of = texts.__getitem__
    out = []
    before = first
    for p in paths:
        nodes = p["nodes"]
        out.append(before[p["ambiguous"]])
        before = later
        mark = len(out)
        try:
            out += map(text_of, map(id, nodes))
        except KeyError:
            del out[mark:]
            for n in nodes:
                if id(n) not in texts:
                    texts[id(n)] = sep + "".join(_indented_pieces(n, depth + 3))
            out += map(text_of, map(id, nodes))
        out[mark] = out[mark][1:]  # no comma before the first node
    out.append(f"{tail}\n{'  ' * depth}]")
    return out


def write_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Stable serialization: sorted keys, sorted sites, byte-identical
    across reruns."""
    if fmt == "json":
        return write_json(report._asdict())
    if fmt != "text":
        raise ValueError(f"unknown report format: {fmt}")
    lines = [
        f"app: {report.app}",
        f"mode: {report.mode}  augment: {'on' if report.augment else 'off'}",
        "",
    ]
    for cb in report.callbacks:
        lines.append(f"callback {cb['method']}")
        for ip in cb["insertionPoints"]:
            lines.append(
                f"  insert request at stmt {ip['stmt']}: {', '.join(ip['permissions'])}"
            )
            for s in ip["sensitives"]:
                n_amb = sum(1 for p in s["paths"] if p["ambiguous"])
                lines.append(
                    f"    {s['kind']} sensitive {s['site']} "
                    f"({len(s['paths'])} path(s), {n_amb} ambiguous)"
                )
        lines.append("")
    lines.append(
        f"summary: {report.summary.get('callbacksFlagged', 0)} callback(s), "
        f"{report.summary.get('sensitivesDetected', 0)} sensitive(s), "
        f"{report.summary.get('paths', 0)} path(s)"
    )
    return ("\n".join(lines) + "\n").encode("utf-8")
