"""Callback detection and synthetic entry (dummy main) generation."""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import LinkError
from .hierarchy import ClassHierarchy
from .intraflow import possible_types
from .model import (
    ClassDecl,
    Invoke,
    LinkedProgram,
    MethodDecl,
    New,
    SiteId,
    method_sig,
    parse_method_sig,
    sig_in,
)

ENTRY_CLASS = "synthetic.Main"


class CallbackRef(NamedTuple):
    hostClass: str
    sig: str


def _excluded_anchors(program: LinkedProgram, hierarchy: ClassHierarchy):
    """Async-construct classes plus their framework supertypes."""
    excluded = set(program.config.async_excludes)
    for name in program.config.async_excludes:
        for sup in hierarchy.supertypes(name):
            if program.is_framework(program.classes[sup]):
                excluded.add(sup)
    return excluded


def _registered(program, hierarchy, host: str, anchors) -> bool:
    """Whether some invoke passes an object of type ``host`` at a parameter
    position whose declared type is one of ``anchors``."""
    for _decl, _m, sig in program.iter_app_bodies():
        types_cache = {}
        for _site, stmt in program.call_sites(sig):
            _, _, params = parse_method_sig(stmt.method)
            for pos, ptype in enumerate(params):
                if ptype not in anchors or pos >= len(stmt.args):
                    continue
                arg = stmt.args[pos]
                if arg not in types_cache:
                    types_cache[arg] = possible_types(program, sig, arg)
                for tname, exact in types_cache[arg]:
                    if (tname == host) if exact else hierarchy.is_subtype(host, tname):
                        return True
    return False


def detect_callbacks(program: LinkedProgram, hierarchy: ClassHierarchy):
    """Find app/library methods invoked by the framework.

    A bodied instance method C.f of a class C (never of an interface, which
    the dummy main cannot allocate) is a callback when a framework
    superclass declares a matching signature (an override), or C implements
    a framework interface declaring f and an instance of C is registered by
    being passed at a parameter position of that interface type. Async
    constructs (Thread, Runnable, ...) never anchor a callback.
    """
    excluded = _excluded_anchors(program, hierarchy)
    out = []
    for decl, m, sig in program.iter_app_bodies():
        if m.static or decl.kind != "class":
            continue
        if any(
            sup.name != decl.name
            and sup.name not in excluded
            and program.is_framework(sup)
            and sig_in(sup.name, sig) in program.methods
            for sup in hierarchy.superclass_chain(decl.name)
        ):
            out.append(CallbackRef(hostClass=decl.name, sig=sig))
            continue
        anchors = set()
        for iname in hierarchy.supertypes(decl.name):
            idecl = program.classes[iname]
            if idecl.kind != "interface" or not program.is_framework(idecl):
                continue
            # every supertype of an interface is an interface (link_program)
            if iname not in excluded and any(
                sig_in(s, sig) in program.methods for s in hierarchy.supertypes(iname)
            ):
                anchors.add(iname)
        if anchors and _registered(program, hierarchy, decl.name, anchors):
            out.append(CallbackRef(hostClass=decl.name, sig=sig))
    return sorted(out)


def generate_dummy_main(program: LinkedProgram, callbacks) -> LinkedProgram:
    """Build ``synthetic.Main#main()``: one allocation per host class, one
    virtual invoke per callback (each a distinct root call site), with fresh
    allocations synthesized for every parameter. The class name is reserved:
    an input class of that name is a :class:`LinkError`."""
    if ENTRY_CLASS in program.classes:
        raise LinkError(f"{ENTRY_CLASS}: class name reserved for the synthetic entry")
    body = []
    entry_sites = []
    fresh = itertools.count()
    main_sig = method_sig(ENTRY_CLASS, "main", ())
    hosts = sorted({cb.hostClass for cb in callbacks})
    host_var = {}
    for host in hosts:
        var = f"h{next(fresh)}"
        host_var[host] = var
        body.append(New(target=var, type=host))
    for cb in sorted(callbacks):
        _, name, params = parse_method_sig(cb.sig)
        args = []
        for ptype in params:
            var = f"a{next(fresh)}"
            body.append(New(target=var, type=ptype))
            args.append(var)
        site = SiteId(main_sig, len(body))
        body.append(
            Invoke(
                kind="virtual",
                method=cb.sig,
                receiver=host_var[cb.hostClass],
                args=tuple(args),
            )
        )
        entry_sites.append(site)
    entry_decl = ClassDecl(
        name=ENTRY_CLASS,
        kind="class",
        origin="app",
        methods=(MethodDecl(name="main", static=True, body=tuple(body)),),
    )
    return program.with_entry(entry_decl, entry_sites)
