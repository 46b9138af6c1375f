"""Permission specification: data model, file format, merging, doc mining.

A spec file (``*.spec.json``) is a JSON array of entry objects; a group
table (``groups.json``) is a JSON array of ``{permission, group, dangerous}``
rows. Multi-permission entries mean all-of by default; ``anyOf: true``
opts into any-of semantics (reports always show the full set).
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import re
from typing import NamedTuple, Optional

from .errors import ConflictError, ParseError, ValidationError
from .model import (
    LinkedProgram,
    check_id,
    field_id,
    from_dict,
    method_sig,
    parse_field_id,
    parse_method_sig,
    read_json,
)

log = logging.getLogger(__name__)

ENTRY_KINDS = ("method", "field", "parametric")
ENTRY_SOURCES = ("annotation", "xml", "javadoc", "app-mined", "fixture")


class SpecEntry(NamedTuple):
    kind: str
    key: str  # canonical method sig (method/parametric) or field id (field)
    permissions: frozenset[str]
    argIndex: Optional[int] = None
    constValue: Optional[str] = None
    anyOf: bool = False
    deprecated: bool = False
    source: str = "fixture"

    @property
    def entry_key(self):
        return (self.kind, self.key, self.argIndex)

    def _check(self, where: str) -> None:
        if self.kind not in ENTRY_KINDS:
            raise ValidationError(f"{where}: bad entry kind {self.kind!r}")
        if not self.permissions or "" in self.permissions:
            raise ValidationError(f"{where}: permissions must be a non-empty set of names")
        if self.kind == "parametric":
            if self.argIndex is None:
                raise ValidationError(f"{where}: parametric entry requires argIndex")
            if self.argIndex < 0:
                raise ValidationError(f"{where}: argIndex must be >= 0, not {self.argIndex}")
        elif self.argIndex is not None:
            raise ValidationError(f"{where}: argIndex only allowed on parametric entries")
        if self.constValue is not None and self.kind != "field":
            raise ValidationError(f"{where}: constValue only allowed on field entries")
        check_id(parse_field_id if self.kind == "field" else parse_method_sig, self.key, where)
        if self.source not in ENTRY_SOURCES:
            raise ValidationError(f"{where}: bad source {self.source!r}")


class PermissionSpec:
    def __init__(self, entries: dict):
        self.entries = entries  # (kind, key, argIndex) -> SpecEntry

    def __len__(self):
        return len(self.entries)

    def method_entry(self, sig: str) -> Optional[SpecEntry]:
        return self.entries.get(("method", sig, None))

    @functools.cached_property
    def _index(self) -> tuple:
        """(signature -> parametric entries, constValue -> first field
        entry), both in entry-key order; built once per spec."""
        by_sig, by_value = {}, {}
        for _, e in sorted(self.entries.items()):
            if e.kind == "parametric":
                by_sig[e.key] = (*by_sig.get(e.key, ()), e)
            elif e.kind == "field":
                by_value.setdefault(e.constValue, e)
        return by_sig, by_value

    def parametric_entries(self, sig: str) -> tuple:
        return self._index[0].get(sig, ())

    def field_entry(self, fid: str) -> Optional[SpecEntry]:
        return self.entries.get(("field", fid, None))

    def field_entry_by_value(self, literal: str) -> Optional[SpecEntry]:
        return self._index[1].get(literal)

    def all_permissions(self) -> frozenset:
        perms = set()
        for e in self.entries.values():
            perms |= e.permissions
        return frozenset(perms)


def _entry_from_dict(d, where: str) -> Optional[SpecEntry]:
    arg = d.get("argIndex") if type(d) is dict and d.get("kind") == "parametric" else None
    if type(arg) is list:
        # Multi-parameter parametric sensitives are unsupported; skip with a
        # warning rather than failing the whole spec.
        log.warning("%s: skipping parametric entry with %d argument indices (%s)",
                    where, len(arg), d.get("key"))
        return None
    return from_dict(SpecEntry, d, where)


def _merged(a: SpecEntry, b: SpecEntry) -> Optional[SpecEntry]:
    """One entry for two of one key, whatever their order: None when they
    differ in permissions, anyOf or constValue; else the first source in
    ``ENTRY_SOURCES``, deprecated if either is."""
    if (a.permissions, a.anyOf, a.constValue) != (b.permissions, b.anyOf, b.constValue):
        return None
    return a._replace(
        deprecated=a.deprecated or b.deprecated,
        source=min(a.source, b.source, key=ENTRY_SOURCES.index),
    )


def spec_from_list(items, where: str = "<spec>") -> PermissionSpec:
    entries = {}
    for i, raw in enumerate(items):
        entry = _entry_from_dict(raw, f"{where}[{i}]")
        if entry is None:
            continue
        prev = entries.get(entry.entry_key)
        if prev is not None:
            entry = _merged(prev, entry)
            if entry is None:
                raise ValidationError(f"{where}[{i}]: duplicate key {prev.key} with other "
                                      "permissions, anyOf or constValue")
        entries[entry.entry_key] = entry
    return PermissionSpec(entries=entries)


def load_spec(path) -> PermissionSpec:
    data = read_json(path)
    if type(data) is not list:
        raise ParseError("spec file must be a JSON array of entries", str(path))
    return spec_from_list(data, str(path))


def entry_to_dict(e: SpecEntry) -> dict:
    d = {"kind": e.kind, "key": e.key, "permissions": sorted(e.permissions)}
    if e.argIndex is not None:
        d["argIndex"] = e.argIndex
    if e.constValue is not None:
        d["constValue"] = e.constValue
    if e.anyOf:
        d["anyOf"] = True
    if e.deprecated:
        d["deprecated"] = True
    d["source"] = e.source
    return d


def spec_to_list(spec: PermissionSpec):
    return [entry_to_dict(e) for _, e in sorted(spec.entries.items())]


def merge_specs(a: PermissionSpec, b: PermissionSpec):
    """Union two specs; a key present in both gets the :func:`_merged`
    entry, and keys whose entries conflict raise :class:`ConflictError`."""
    merged = dict(a.entries)
    for key, eb in b.entries.items():
        merged[key] = _merged(merged[key], eb) if key in merged else eb
    conflicts = sorted(key for key, e in merged.items() if e is None)
    if conflicts:
        raise ConflictError(conflicts)
    return PermissionSpec(entries=merged)


# ---------------------------------------------------------------------------
# dangerous-permission groups


class GroupTable(NamedTuple):
    group_of: dict  # permission -> group name
    dangerous: frozenset  # permission names

    def is_dangerous(self, permission: str) -> bool:
        return permission in self.dangerous

    def group(self, permission: str) -> Optional[str]:
        return self.group_of.get(permission)

    def check_total(self, spec: PermissionSpec) -> None:
        missing = sorted(spec.all_permissions() - set(self.group_of))
        if missing:
            log.warning("group table missing permissions: %s", ", ".join(missing))


class GroupRow(NamedTuple):
    permission: str
    group: str
    dangerous: bool = False

    def _check(self, where: str) -> None:
        if not self.permission or not self.group:
            raise ValidationError(f"{where}: permission and group are required")


def load_groups(path) -> GroupTable:
    data = read_json(path)
    if type(data) is not list:
        raise ParseError("group table must be a JSON array", str(path))
    rows = [from_dict(GroupRow, row, f"{path}[{i}]") for i, row in enumerate(data)]
    group_of = {}
    for i, r in enumerate(rows):
        if r.permission in group_of:
            raise ValidationError(f"{path}[{i}]: second row for permission {r.permission!r}")
        group_of[r.permission] = r.group
    return GroupTable(
        group_of=group_of,
        dangerous=frozenset(r.permission for r in rows if r.dangerous),
    )


def filter_dangerous(spec: PermissionSpec, groups: GroupTable) -> PermissionSpec:
    """Drop non-dangerous permissions from entries; drop emptied entries."""
    groups.check_total(spec)
    entries = {}
    for key, e in spec.entries.items():
        kept = frozenset(p for p in e.permissions if groups.is_dangerous(p))
        if kept:
            entries[key] = e._replace(permissions=kept)
    return PermissionSpec(entries=entries)


# ---------------------------------------------------------------------------
# doc-comment candidate mining


class DocCandidate(NamedTuple):
    element: str  # class name, method sig, or field id
    permission: str
    uniqueIdentifier: bool
    snippet: str
    needsMemberExpansion: bool


def _snippet(doc: str, match: re.Match) -> str:
    start = max(0, match.start() - 40)
    end = min(len(doc), match.end() + 40)
    return doc[start:end].replace("\n", " ").strip()


def mine_doc_candidates(program: LinkedProgram, ident_table: dict):
    """Scan framework doc comments for permission identifiers.

    ``ident_table`` maps identifier -> (permission, unique). One candidate
    is produced per (element, identifier) word-boundary match; class-level
    hits are flagged for member expansion, non-unique identifiers for
    manual review.
    """
    patterns = {
        ident: re.compile(r"\b" + re.escape(ident) + r"\b") for ident in ident_table
    }
    out = []

    def scan(element: str, doc: Optional[str], class_level: bool) -> None:
        if not doc:
            return
        for ident in sorted(patterns):
            m = patterns[ident].search(doc)
            if m is None:
                continue
            permission, unique = ident_table[ident]
            out.append(
                DocCandidate(
                    element=element,
                    permission=permission,
                    uniqueIdentifier=unique,
                    snippet=_snippet(doc, m),
                    needsMemberExpansion=class_level,
                )
            )

    for cname in sorted(program.classes):
        decl = program.classes[cname]
        if not program.is_framework(decl):
            continue
        scan(cname, decl.doc, class_level=True)
        for f in sorted(decl.fields, key=lambda f: f.name):
            scan(field_id(cname, f.name), f.doc, class_level=False)
        for m in sorted(decl.methods, key=lambda m: (m.name, m.params)):
            scan(method_sig(cname, m.name, m.params), m.doc, class_level=False)
    return out


def candidates_to_csv(candidates) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["element", "permission", "unique", "needs_expansion", "snippet"])
    for c in candidates:
        writer.writerow(
            [
                c.element,
                c.permission,
                str(c.uniqueIdentifier).lower(),
                str(c.needsMemberExpansion).lower(),
                c.snippet,
            ]
        )
    return buf.getvalue()


class IdentRow(NamedTuple):
    permission: str
    unique: bool = True


def load_ident_table(path) -> dict:
    data = read_json(path)
    if type(data) is not dict:
        raise ParseError("identifier table must be a JSON object", str(path))
    rows = {ident: from_dict(IdentRow, raw, f"{path}.{ident}") for ident, raw in data.items()}
    for ident, row in rows.items():
        if not ident or not row.permission:
            what = "permission name" if ident else "identifier"
            raise ValidationError(f"{path}.{ident}: empty {what}")
    return {ident: (row.permission, row.unique) for ident, row in rows.items()}
