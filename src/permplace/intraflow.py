"""Intraprocedural, flow-insensitive value chasing over method locals.

Two views over the same def-chase: the evidence sensitive matching reads
(string literals and static-field ids), and possible runtime types for
callback-registration evidence. Both walk the method's definitions in the
program's method table (:attr:`MethodEntry.defs`) with a worklist.
"""

from __future__ import annotations

from .model import (
    Assign,
    ConstStr,
    Invoke,
    LinkedProgram,
    LoadStatic,
    New,
    param_index,
)


def _reaching_defs(index: dict, var: str):
    """Follow assigns back from ``var``. Yields (local, stmt) for each
    non-assign definition reached, and (local, None) for each reached local
    without definitions (a parameter, ``this`` or undefined)."""
    seen = {var}
    work = [var]
    while work:
        v = work.pop()
        defs = index.get(v)
        if not defs:
            yield v, None
            continue
        for _i, stmt in defs:
            if not isinstance(stmt, Assign):
                yield v, stmt
            elif stmt.source not in seen:
                seen.add(stmt.source)
                work.append(stmt.source)


def intraproc_values(program: LinkedProgram, sig: str, var: str):
    """The evidence for a local of the bodied method ``sig`` that sensitive
    matching reads: ("literal", value) for each string constant and
    ("sfield", field id) for each static-field load it may hold."""
    out = set()
    for _, stmt in _reaching_defs(program.defs_index(sig), var):
        if isinstance(stmt, ConstStr):
            out.add(("literal", stmt.value))
        elif isinstance(stmt, LoadStatic):
            out.add(("sfield", stmt.field))
    return out


def possible_types(program: LinkedProgram, sig: str, var: str):
    """Possible runtime types of a local of the declared method ``sig``, as
    (type name, exact) pairs.

    ``exact`` types come from allocation sites; inexact ones are declared
    types of opaque defs (call returns, parameters, static-field loads),
    meaning any subtype is possible.
    """
    entry = program.lookup_method(sig)
    out = set()
    for v, stmt in _reaching_defs(entry.defs, var):
        if stmt is None:
            i = param_index(v)
            if v == "this":
                out.add((entry.decl.name, False))
            elif i is not None and i < len(entry.method.params):
                out.add((entry.method.params[i], False))
        elif isinstance(stmt, New):
            out.add((stmt.type, True))
        elif isinstance(stmt, ConstStr):
            out.add(("java.lang.String", True))
        elif isinstance(stmt, Invoke):
            found = program.lookup_method(stmt.method)
            if found is not None:
                out.add((found.method.returnType, False))
        elif isinstance(stmt, LoadStatic):
            found = program.lookup_field(stmt.field)
            if found is not None:
                out.add((found[1].type, False))
        # load_field: base type unknown without points-to; contributes nothing
    return out
