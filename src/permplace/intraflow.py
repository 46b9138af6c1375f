"""Intraprocedural, flow-insensitive value chasing over method locals.

Two views over the same def-chase: concrete values (allocation sites,
string literals, static-field ids) for sensitive matching, and possible
runtime types for callback-registration evidence. Both walk the method's
definition index (:meth:`LinkedProgram.defs_index`) with a worklist.
"""

from __future__ import annotations

from .model import (
    Assign,
    ConstStr,
    Invoke,
    LinkedProgram,
    LoadStatic,
    New,
    SiteId,
    parse_method_sig,
)

UNKNOWN = ("unknown",)


def _param_index(var: str):
    if var.startswith("p") and var[1:].isdigit():
        return int(var[1:])
    return None


def _reaching_defs(index: dict, var: str):
    """Follow assigns back from ``var``. Yields (local, stmt index, stmt) for
    each non-assign definition reached, and (local, None, None) for each
    reached local without definitions (a parameter, ``this`` or undefined)."""
    seen = {var}
    work = [var]
    while work:
        v = work.pop()
        defs = index.get(v)
        if not defs:
            yield v, None, None
            continue
        for i, stmt in defs:
            if not isinstance(stmt, Assign):
                yield v, i, stmt
            elif stmt.source not in seen:
                seen.add(stmt.source)
                work.append(stmt.source)


def intraproc_values(program: LinkedProgram, sig: str, var: str):
    """Possible values of a local: allocation sites, literals, static field
    ids, or UNKNOWN (params, instance-field loads, call returns)."""
    index = program.defs_index(sig)
    if index is None:
        return {UNKNOWN}
    out = set()
    for _, i, stmt in _reaching_defs(index, var):
        if isinstance(stmt, New):
            out.add(("alloc", SiteId(sig, i)))
        elif isinstance(stmt, ConstStr):
            out.add(("literal", stmt.value))
        elif isinstance(stmt, LoadStatic):
            out.add(("sfield", stmt.field))
        else:  # parameter, `this`, undefined local, load_field, invoke return
            out.add(UNKNOWN)
    return out


def possible_types(program: LinkedProgram, sig: str, var: str):
    """Possible runtime types of a local, as (type name, exact) pairs.

    ``exact`` types come from allocation sites; inexact ones are declared
    types of opaque defs (call returns, parameters, static-field loads),
    meaning any subtype is possible.
    """
    index = program.defs_index(sig)
    if index is None:
        return set()
    cls, _, params = parse_method_sig(sig)
    out = set()
    for v, _, stmt in _reaching_defs(index, var):
        if stmt is None:
            i = _param_index(v)
            if v == "this":
                out.add((cls, False))
            elif i is not None and i < len(params):
                out.add((params[i], False))
        elif isinstance(stmt, New):
            out.add((stmt.type, True))
        elif isinstance(stmt, ConstStr):
            out.add(("java.lang.String", True))
        elif isinstance(stmt, Invoke):
            found = program.lookup_method(stmt.method)
            if found is not None:
                out.add((found[1].returnType, False))
        elif isinstance(stmt, LoadStatic):
            found = program.lookup_field(stmt.field)
            if found is not None:
                out.add((found[1].type, False))
        # load_field: base type unknown without points-to; contributes nothing
    return out
