"""Program model: classes, methods, statements, on-disk format, and linking.

The model is a compact, branch-free IR: each method body is an ordered list
of statements over untyped local variables. Parameter i of a method is the
local ``p{i}``; instance methods additionally see ``this``. Statement order
is flow-irrelevant for all analyses but is kept for reporting.

Canonical identifier forms (used verbatim in spec files and reports):

* method:  ``pkg.Cls#name(pkg.T1,pkg.T2)``
* field:   ``pkg.Cls#NAME``
* site:    ``methodSig/stmtIndex``
"""

from __future__ import annotations

import functools
import json
import re
import reprlib
import sys
from types import UnionType
from typing import NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .errors import LinkError, ParseError, ValidationError

# ---------------------------------------------------------------------------
# canonical identifiers


def method_sig(cls: str, name: str, params) -> str:
    return f"{cls}#{name}({','.join(params)})"


def sig_in(cls: str, sig: str) -> str:
    """The signature of ``sig``'s name and parameters declared in ``cls``."""
    return cls + sig[sig.index("#"):]


_METHOD_SIG = re.compile(r"([^#()]+)#([^#()]+)\(([^#()]*)\)")


def parse_method_sig(sig: str):
    """Split ``Cls#name(T1,T2)`` into (cls, name, params tuple). The text
    has one ``#``, then one ``(`` and one ``)`` that ends it; the class, the
    name and every parameter are non-empty."""
    match = _METHOD_SIG.fullmatch(sig)
    params = () if match is None or not match[3] else tuple(match[3].split(","))
    if match is None or "" in params:
        raise ValueError(f"malformed method signature: {sig!r}")
    return match[1], match[2], params


def field_id(cls: str, name: str) -> str:
    return f"{cls}#{name}"


def parse_field_id(fid: str):
    cls, _, name = fid.partition("#")
    if not cls or not name:
        raise ValueError(f"malformed field id: {fid!r}")
    return cls, name


def check_id(parse, text: str, where: str, parts=None) -> None:
    """Raise :class:`ValidationError` at ``where`` unless ``parse`` accepts
    ``text`` and, given ``parts``, reads it back as ``parts``."""
    try:
        parsed = parse(text)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")
    if parts is not None and parsed != parts:
        raise ValidationError(f"{where}: {text!r} reads back as {parsed!r}, not {parts!r}")


def param_local(i: int) -> str:
    return f"p{i}"


# a parameter local as ``param_local`` names it: ASCII digits, no leading
# zero; nine digits at most, far below int()'s limit and any parameter count
_PARAM_LOCAL = re.compile(r"p(0|[1-9][0-9]{0,8})")


def param_index(var: str):
    """The index ``i`` of the local ``param_local(i)``, else None."""
    m = _PARAM_LOCAL.fullmatch(var)
    return int(m[1]) if m else None


class SiteId(NamedTuple):
    """Identifies one statement: allocation site (new/const_str) or call site.
    A tuple, so hashing, equality and ordering run in C; a report holds its
    string, never the tuple."""

    method: str
    stmt: int

    def __str__(self) -> str:
        return f"{self.method}/{self.stmt}"


# ---------------------------------------------------------------------------
# JSON records: each record class, a NamedTuple, is its own schema
#
# Keys, JSON types and defaults come from the field annotations, read once
# per class into that class's reader; a record's ``_where`` maps a field to
# the path suffix that locates its errors where that is not the default. A
# reader rejects unknown keys, missing required keys and values of another
# JSON type (nothing is coerced), then runs the record's ``_check(where)``:
# the rules that span fields. Records nest only as deep as the schema (app,
# class, method, statement). A record compares, hashes and orders as the
# tuple of its fields, whatever its class.
#
# Statements are interned (hash-consed): equal statements read with one
# table are one record, keyed by class and fields, since records of two
# kinds may have equal fields. Their fields are strings, nulls and lists of
# strings, so equal values have equal JSON types, and ``_check`` is a pure
# function of the values: it runs once per distinct statement. A record
# that fails is never stored, so each error names its own ``where``.

_JSON_TYPES = {str: "a string", int: "an integer", bool: "a boolean"}
_MISSING = object()  # a key absent from the object, or a field without a default


def _mistyped(where: str, key: str, desc: str, value) -> ValidationError:
    return ValidationError(f"{where}: {key} must be {desc}, not {reprlib.repr(value)}")


def _record_reader(tp):
    """(object, where, interned) -> record, for a record class or a union of
    records chosen by their ``op`` key."""
    if get_origin(tp) is not UnionType:
        return _reader(tp)
    by_op = {c.op: _reader(c) for c in get_args(tp)}

    def read(d, where, interned):
        op = d.get("op") if type(d) is dict else None
        read_op = by_op.get(op) if type(op) is str else None
        if read_op is None:
            raise ParseError(f"expected an object with a known 'op', not {reprlib.repr(d)}", where)
        return read_op(d, where, interned)

    return read


def _list_reader(container, elem, key: str):
    """Reader and description of a JSON list held as ``container``."""
    if elem is str:

        def read(v, where, interned):
            if all(type(s) is str for s in v):
                return container(v)
            raise _mistyped(where, key, "a list of strings", v)

        return read, "a list of strings"
    read_one = _record_reader(elem)
    named = "name" in getattr(elem, "_fields", ())

    def read(v, where, interned):
        # records with a name are located by it, others by their index
        out = []
        for i, d in enumerate(v):
            name = d.get("name") if named and type(d) is dict else None
            at = f"{where}.{name}" if type(name) is str else f"{where}[{i}]"
            out.append(read_one(d, at, interned))
        return tuple(out)

    return read, "a list of objects"


@functools.cache
def _reader(cls):
    """The reader of record ``cls``: (object, where, interned) -> record,
    built once per class from its field annotations; statement records come
    from ``interned``."""
    hints = get_type_hints(cls)
    where = getattr(cls, "_where", {})
    reads = []  # (key, JSON type, nullable, default, reader, path suffix, description)
    for name in cls._fields:
        tp, nullable = hints[name], False
        if get_origin(tp) in (Union, UnionType) and type(None) in get_args(tp):
            nullable, tp = True, next(a for a in get_args(tp) if a is not type(None))
        if tp in _JSON_TYPES:
            jtype, reader, desc = tp, None, _JSON_TYPES[tp]
        elif get_origin(tp) in (tuple, frozenset):
            jtype = list
            reader, desc = _list_reader(get_origin(tp), get_args(tp)[0], name)
        else:
            jtype, reader, desc = dict, _record_reader(tp), "an object"
        suffix = where.get(name, f".{name}" if jtype is dict else "")
        desc += " or null" if nullable else ""
        default = cls._field_defaults.get(name, _MISSING)
        reads.append((name, jtype, nullable, default, reader, suffix, desc))
    # records of a union carry an ``op`` key
    known = frozenset(r[0] for r in reads) | ({"op"} if "op" in cls.__dict__ else set())
    check = getattr(cls, "_check", None)
    shared = cls in get_args(Stmt)

    def read(d, where, interned):
        if type(d) is not dict:
            raise ParseError(f"expected a JSON object, not {reprlib.repr(d)}", where)
        values = []
        for key, jtype, nullable, default, read_value, suffix, desc in reads:
            v = d.get(key, _MISSING)
            if type(v) is jtype:
                if read_value is not None:
                    v = read_value(v, where + suffix, interned)
            elif v is _MISSING:
                if default is _MISSING:
                    raise ParseError(f"missing required key {key!r}", where)
                v = default
            elif v is not None or not nullable:
                raise _mistyped(where, key, desc, v)
            values.append(v)
        if not known.issuperset(d):
            raise ParseError(f"unknown key {min(set(d) - known)!r}", where)
        if shared:
            ident = (cls, *values)
            record = interned.get(ident)
            if record is not None:
                return record
        record = cls(*values)
        if check is not None:
            check(record, where)
        if shared:
            interned[ident] = record
        return record

    return read


def from_dict(cls, d, where: str):
    """Build record ``cls`` from the JSON object ``d``; errors name ``where``."""
    return _reader(cls)(d, where, {})


def first_duplicate(keys):
    """The first key seen twice, or None."""
    seen = set()
    for k in keys:
        if k in seen:
            return k
        seen.add(k)
    return None


def read_json(path):
    """The JSON value in the file at ``path``; :class:`ParseError` names the
    file, and a string holding a lone UTF-16 surrogate, which no output encodes."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        value = json.loads(text)
        if re.search(r"\\u[dD][89a-fA-F]", text):  # either half; a pair is one code point
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("lone UTF-16 surrogate escape in a string", str(path))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path))
    return value


# ---------------------------------------------------------------------------
# statements


class New(NamedTuple):
    op = "new"
    target: str
    type: str


class Assign(NamedTuple):
    op = "assign"
    target: str
    source: str


class ConstStr(NamedTuple):
    op = "const_str"
    target: str
    value: str


def _check_field_id(stmt, where: str) -> None:
    check_id(parse_field_id, stmt.field, where)


class LoadStatic(NamedTuple):
    op = "load_static"
    target: str
    field: str  # field id

    _check = _check_field_id


class StoreStatic(NamedTuple):
    op = "store_static"
    field: str
    source: str

    _check = _check_field_id


class LoadField(NamedTuple):
    op = "load_field"
    target: str
    base: str
    field: str  # plain field name


class StoreField(NamedTuple):
    op = "store_field"
    base: str
    field: str
    source: str


INVOKE_KINDS = ("virtual", "interface", "static", "special")


class Invoke(NamedTuple):
    op = "invoke"
    kind: str
    method: str  # canonical signature naming the declared receiver class
    receiver: Optional[str] = None
    target: Optional[str] = None
    args: tuple[str, ...] = ()

    def _check(self, where: str) -> None:
        if self.kind not in INVOKE_KINDS:
            raise ValidationError(f"{where}: bad invoke kind {self.kind!r}")
        if self.kind == "static":
            if self.receiver is not None:
                raise ValidationError(f"{where}: static invoke must not have a receiver")
        elif self.receiver is None:
            raise ValidationError(f"{where}: {self.kind} invoke requires a receiver")
        check_id(parse_method_sig, self.method, where)


class Return(NamedTuple):
    op = "return"
    value: Optional[str] = None


# ``|`` rather than typing's Union and Optional wherever a record class is an
# argument: typing caches those objects for the whole process, which would
# keep every imported copy of this module alive.
Stmt = New | Assign | ConstStr | LoadStatic | StoreStatic | LoadField | StoreField | Invoke | Return


# ---------------------------------------------------------------------------
# declarations


class FieldDecl(NamedTuple):
    name: str
    type: str
    static: bool = False
    constValue: Optional[str] = None
    doc: Optional[str] = None

    def _check(self, where: str) -> None:
        if self.constValue is not None and not self.static:
            raise ValidationError(f"{where}: constValue only allowed on static fields")


class MethodDecl(NamedTuple):
    name: str
    params: tuple[str, ...] = ()
    returnType: str = "void"
    static: bool = False
    abstract: bool = False
    doc: Optional[str] = None
    body: tuple[Stmt, ...] | None = None  # None = stub

    def sig(self, cls: str) -> str:
        return method_sig(cls, self.name, self.params)

    @property
    def key(self):
        return (self.name, self.params)

    def _check(self, where: str) -> None:
        if self.abstract and self.body is not None:
            raise ValidationError(f"{where}: abstract method must not have a body")


class ClassDecl(NamedTuple):
    name: str
    kind: str = "class"  # class | interface
    origin: str = "app"  # app | library | framework
    super: Optional[str] = None
    interfaces: tuple[str, ...] = ()
    doc: Optional[str] = None
    model: bool = False
    fields: tuple[FieldDecl, ...] = ()
    methods: tuple[MethodDecl, ...] = ()

    @property
    def parents(self) -> tuple:
        """Direct supertypes: the interfaces, then the superclass."""
        return self.interfaces if self.super is None else (*self.interfaces, self.super)

    def _check(self, where: str) -> None:
        if self.kind not in ("class", "interface"):
            raise ValidationError(f"{where}: bad class kind {self.kind!r}")
        if self.origin not in ("app", "library", "framework"):
            raise ValidationError(f"{where}: bad origin {self.origin!r}")
        dup = first_duplicate(f.name for f in self.fields)
        if dup is not None:
            raise ValidationError(f"{where}: duplicate field {dup}")
        dup = first_duplicate(m.key for m in self.methods)
        if dup is not None:
            raise ValidationError(f"{where}: duplicate method {method_sig(self.name, *dup)}")
        # every id made from a declaration names it: none is ambiguous
        for m in self.methods:
            check_id(parse_method_sig, m.sig(self.name), where, (self.name, m.name, m.params))
        for f in self.fields:
            check_id(parse_field_id, field_id(self.name, f.name), where, (self.name, f.name))


class Manifest(NamedTuple):
    targetApi: int = 23
    permissions: frozenset[str] = frozenset()

    def _check(self, where: str) -> None:
        if "" in self.permissions:
            raise ValidationError(f"{where}: empty permission name")


class AppModel(NamedTuple):
    name: str
    manifest: Manifest
    classes: tuple[ClassDecl, ...] = ()

    # a class is located as ``<file>.classes.<name>``; its members directly under it
    _where = {"classes": ".classes"}

    def _check(self, where: str) -> None:
        dup = first_duplicate(c.name for c in self.classes)
        if dup is not None:
            raise ValidationError(f"{where}: duplicate class {dup}")


def app_from_dict(d: dict, where: str = "<app>", interned: Optional[dict] = None) -> AppModel:
    """Read an app; ``interned`` is the statement table shared by the apps
    of one run (a fresh one by default)."""
    return _reader(AppModel)(d, where, {} if interned is None else interned)


def load_app(path, interned: Optional[dict] = None) -> AppModel:
    return app_from_dict(read_json(path), str(path), interned)


# ---------------------------------------------------------------------------
# linking


DEFAULT_FRAMEWORK_PREFIXES = ("android.", "com.google.android.")
DEFAULT_ASYNC_EXCLUDES = (
    "java.lang.Thread",
    "java.lang.Runnable",
    "java.util.concurrent.Executor",
    "java.util.concurrent.ExecutorService",
    "java.util.concurrent.Callable",
    "android.os.AsyncTask",
    "android.os.Handler",
)
DEFAULT_PERMISSION_CONSTANT_CLASS = "android.Manifest$permission"


class LinkConfig(NamedTuple):
    framework_prefixes: tuple[str, ...] = DEFAULT_FRAMEWORK_PREFIXES
    async_excludes: tuple[str, ...] = DEFAULT_ASYNC_EXCLUDES
    permission_constant_class: str = DEFAULT_PERMISSION_CONSTANT_CLASS

    def _check(self, where: str) -> None:
        for key in ("framework_prefixes", "async_excludes"):
            if "" in getattr(self, key):
                raise ValidationError(f"{where}: empty name in {key}")


class MethodEntry(NamedTuple):
    """A declared method, with the views of its body (empty for a stub)."""

    decl: ClassDecl
    method: MethodDecl
    defs: dict  # local -> [(stmt index, stmt)] of the statements assigning it, in body order
    sites: tuple  # (SiteId, Invoke) of each invoke, in body order
    returns: tuple  # the locals its returns return, in body order


def _index_class(decl: ClassDecl, methods: dict, fields: dict) -> None:
    """Add the table entries of ``decl`` to ``methods`` (signature ->
    :class:`MethodEntry`, by method name and params) and ``fields`` (field
    id -> (ClassDecl, FieldDecl)), with one pass over each body."""
    for f in decl.fields:
        fields[field_id(decl.name, f.name)] = (decl, f)
    for m in sorted(decl.methods, key=lambda m: m.key):
        sig = m.sig(decl.name)
        defs, sites, returns = {}, [], []
        for i, stmt in enumerate(m.body or ()):
            kind, target = type(stmt), getattr(stmt, "target", None)
            if target is not None:
                defs.setdefault(target, []).append((i, stmt))
            if kind is Invoke:
                sites.append((SiteId(sig, i), stmt))
            elif kind is Return and stmt.value is not None:
                returns.append(stmt.value)
        methods[sig] = MethodEntry(decl, m, defs, tuple(sites), tuple(returns))


class LinkedProgram:
    """One merged class table plus analysis configuration, immutable.

    ``methods`` maps a signature to its :class:`MethodEntry`, by class name,
    then method name and params, ``fields`` a field id to (ClassDecl,
    FieldDecl), and ``hierarchy`` (``type_graph``) is the type graph: all are
    built once by :func:`link_program`. The entry class and its callback call
    sites are filled in by the entrypoints module via :func:`with_entry`.
    """

    def __init__(self, name: str, manifest: Manifest, classes: dict, config: LinkConfig,
                 tables: tuple, type_graph, entry_class: Optional[str] = None,
                 entry_sites: tuple = ()):
        self.name = name
        self.manifest = manifest
        self.classes = classes  # name -> ClassDecl
        self.config = config
        self.methods, self.fields = tables
        self.hierarchy = type_graph
        self.entry_class = entry_class
        self.entry_sites = entry_sites  # SiteIds of callback invocations in the dummy main

    # -- lookups ------------------------------------------------------------

    def lookup_method(self, sig: str) -> Optional[MethodEntry]:
        """The method's :class:`MethodEntry`; None for an undeclared signature."""
        return self.methods.get(sig)

    def lookup_field(self, fid: str):
        return self.fields.get(fid)

    def body_of(self, sig: str):
        entry = self.methods.get(sig)
        return None if entry is None else entry.method.body

    def stmt_at(self, site: SiteId):
        body = self.body_of(site.method)
        if body is None or not 0 <= site.stmt < len(body):
            raise KeyError(f"no statement at {site}")
        return body[site.stmt]

    def is_framework(self, decl: ClassDecl) -> bool:
        return decl.origin == "framework" or decl.name.startswith(self.config.framework_prefixes)

    def defs_index(self, sig: str) -> Optional[dict]:
        """The method's :attr:`MethodEntry.defs`, empty for a stub; None for
        an undeclared method."""
        entry = self.methods.get(sig)
        return None if entry is None else entry.defs

    def call_sites(self, sig: str) -> tuple:
        """(SiteId, Invoke) for each invoke of the method, in body order; ()
        for a stub or an undeclared method."""
        entry = self.methods.get(sig)
        return () if entry is None else entry.sites

    def iter_app_bodies(self):
        """(ClassDecl, MethodDecl, sig) of each bodied method of app/library
        classes (the analyzed code), by class, then method name and params."""
        for sig, entry in self.methods.items():
            decl, m = entry.decl, entry.method
            if m.body is not None and decl.origin != "framework" and decl.name != self.entry_class:
                yield decl, m, sig

    @property
    def entry_main_sig(self) -> Optional[str]:
        if self.entry_class is None:
            return None
        return method_sig(self.entry_class, "main", ())

    def with_entry(self, entry_decl: ClassDecl, entry_sites) -> "LinkedProgram":
        """This program plus the entry class, sharing every other table entry
        and the hierarchy: no hierarchy query names the entry class, which
        has no parents or children and which nothing calls or allocates."""
        tables = dict(self.methods), dict(self.fields)
        _index_class(entry_decl, *tables)
        classes = {**self.classes, entry_decl.name: entry_decl}
        return LinkedProgram(self.name, self.manifest, classes, self.config, tables,
                             self.hierarchy, entry_decl.name, tuple(entry_sites))


def _merge_class(name: str, decls) -> ClassDecl:
    kinds = {d.kind for d in decls}
    if len(kinds) > 1:
        raise LinkError(f"{name}: declared both as class and interface")
    base = next((d for d in decls if not d.model), decls[0])
    non_model = [d for d in decls if not d.model]
    if len(non_model) > 1:
        raise LinkError(f"{name}: duplicate non-model declarations")
    supers = {d.super for d in decls if d.super is not None}
    if len(supers) > 1:
        raise LinkError(f"{name}: conflicting superclasses {sorted(supers)}")
    interfaces = []
    for d in decls:
        for i in d.interfaces:
            if i not in interfaces:
                interfaces.append(i)
    fields = {}
    for d in decls:
        for f in d.fields:
            prev = fields.get(f.name)
            if prev is None:
                fields[f.name] = f
            elif (prev.type, prev.static) != (f.type, f.static):
                raise LinkError(f"{name}.{f.name}: conflicting field declarations")
    methods = {}
    for d in decls:
        for m in d.methods:
            prev = methods.get(m.key)
            if prev is None:
                methods[m.key] = m
            elif m.body is not None and prev.body is not None:
                raise LinkError(f"{m.sig(name)}: two overlays define a body")
            elif m.body is not None:
                methods[m.key] = m
    doc = next((d.doc for d in decls if d.doc is not None), None)
    return base._replace(
        super=next(iter(supers)) if supers else None,
        interfaces=tuple(interfaces),
        fields=tuple(fields.values()),
        methods=tuple(methods.values()),
        doc=doc,
    )


def link_program(app: AppModel, overlays=(), config: Optional[LinkConfig] = None) -> LinkedProgram:
    """Merge app + library + framework overlays into one indexed class table and its hierarchy."""
    config = config or LinkConfig()
    by_name = {}
    for model in (app, *overlays):
        for c in model.classes:
            by_name.setdefault(c.name, []).append(c)
    classes = {}
    tables = {}, {}
    for name in sorted(by_name):
        decls = by_name[name]
        classes[name] = decls[0] if len(decls) == 1 else _merge_class(name, decls)
        _index_class(classes[name], *tables)
    # looked up, not imported: hierarchy imports this module (the package imports both)
    hierarchy = sys.modules[f"{__package__}.hierarchy"].build_hierarchy(classes, tables[0])
    return LinkedProgram(app.name, app.manifest, classes, config, tables, hierarchy)
