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

import json
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from .errors import LinkError, ParseError, ValidationError

# ---------------------------------------------------------------------------
# canonical identifiers


def method_sig(cls: str, name: str, params) -> str:
    return f"{cls}#{name}({','.join(params)})"


def parse_method_sig(sig: str):
    """Split ``Cls#name(T1,T2)`` into (cls, name, params tuple)."""
    try:
        cls, rest = sig.split("#", 1)
        name, params = rest.split("(", 1)
        params = params.rstrip(")")
    except ValueError as exc:
        raise ValueError(f"malformed method signature: {sig!r}") from exc
    return cls, name, tuple(p for p in params.split(",") if p)


def field_id(cls: str, name: str) -> str:
    return f"{cls}#{name}"


def parse_field_id(fid: str):
    cls, _, name = fid.partition("#")
    if not cls or not name:
        raise ValueError(f"malformed field id: {fid!r}")
    return cls, name


def param_local(i: int) -> str:
    return f"p{i}"


@dataclass(frozen=True, order=True)
class SiteId:
    """Identifies one statement: allocation site (new/const_str) or call site."""

    method: str
    stmt: int

    def __str__(self) -> str:
        return f"{self.method}/{self.stmt}"

    @classmethod
    def parse(cls, text: str) -> "SiteId":
        m, _, i = text.rpartition("/")
        return cls(m, int(i))


# ---------------------------------------------------------------------------
# statements


@dataclass(frozen=True)
class New:
    op: ClassVar[str] = "new"
    target: str
    type: str


@dataclass(frozen=True)
class Assign:
    op: ClassVar[str] = "assign"
    target: str
    source: str


@dataclass(frozen=True)
class ConstStr:
    op: ClassVar[str] = "const_str"
    target: str
    value: str


@dataclass(frozen=True)
class LoadStatic:
    op: ClassVar[str] = "load_static"
    target: str
    field: str  # field id


@dataclass(frozen=True)
class StoreStatic:
    op: ClassVar[str] = "store_static"
    field: str
    source: str


@dataclass(frozen=True)
class LoadField:
    op: ClassVar[str] = "load_field"
    target: str
    base: str
    field: str  # plain field name


@dataclass(frozen=True)
class StoreField:
    op: ClassVar[str] = "store_field"
    base: str
    field: str
    source: str


INVOKE_KINDS = ("virtual", "interface", "static", "special")


@dataclass(frozen=True)
class Invoke:
    op: ClassVar[str] = "invoke"
    kind: str
    method: str  # canonical signature naming the declared receiver class
    receiver: Optional[str] = None
    target: Optional[str] = None
    args: tuple = ()


@dataclass(frozen=True)
class Return:
    op: ClassVar[str] = "return"
    value: Optional[str] = None


Stmt = (New, Assign, ConstStr, LoadStatic, StoreStatic, LoadField, StoreField, Invoke, Return)

_STMT_BY_OP = {c.op: c for c in Stmt}


def stmt_from_dict(d: dict, where: str):
    if not isinstance(d, dict) or "op" not in d:
        raise ParseError("statement must be an object with an 'op' key", where)
    op = d["op"]
    cls = _STMT_BY_OP.get(op)
    if cls is None:
        raise ParseError(f"unknown statement op {op!r}", where)
    fields = {k: v for k, v in d.items() if k != "op"}
    if op == "invoke":
        fields["args"] = tuple(fields.get("args", ()))
    try:
        stmt = cls(**fields)
    except TypeError as exc:
        raise ParseError(f"bad {op} statement: {exc}", where)
    _validate_stmt(stmt, where)
    return stmt


def _validate_stmt(stmt, where: str) -> None:
    if isinstance(stmt, Invoke):
        if stmt.kind not in INVOKE_KINDS:
            raise ValidationError(f"{where}: bad invoke kind {stmt.kind!r}")
        if stmt.kind == "static":
            if stmt.receiver is not None:
                raise ValidationError(f"{where}: static invoke must not have a receiver")
        elif stmt.receiver is None:
            raise ValidationError(f"{where}: {stmt.kind} invoke requires a receiver")
        parse_method_sig(stmt.method)
    elif isinstance(stmt, (LoadStatic, StoreStatic)):
        parse_field_id(stmt.field)


def stmt_to_dict(stmt) -> dict:
    d = {"op": stmt.op}
    for name in stmt.__dataclass_fields__:
        value = getattr(stmt, name)
        if name == "args":
            if value:
                d["args"] = list(value)
        elif value is not None:
            d[name] = value
    return d


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class FieldDecl:
    name: str
    type: str
    static: bool = False
    constValue: Optional[str] = None
    doc: Optional[str] = None


@dataclass(frozen=True)
class MethodDecl:
    name: str
    params: tuple = ()
    returnType: str = "void"
    static: bool = False
    abstract: bool = False
    doc: Optional[str] = None
    body: Optional[tuple] = None  # None = stub

    def sig(self, cls: str) -> str:
        return method_sig(cls, self.name, self.params)

    @property
    def key(self):
        return (self.name, self.params)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    kind: str = "class"  # class | interface
    origin: str = "app"  # app | library | framework
    super: Optional[str] = None
    interfaces: tuple = ()
    doc: Optional[str] = None
    model: bool = False
    fields: tuple = ()
    methods: tuple = ()

    @property
    def parents(self) -> tuple:
        """Direct supertypes: the interfaces, then the superclass."""
        return self.interfaces if self.super is None else (*self.interfaces, self.super)

    def field_by_name(self, name: str) -> Optional[FieldDecl]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def method_by_key(self, name: str, params) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name and m.params == tuple(params):
                return m
        return None


@dataclass(frozen=True)
class Manifest:
    targetApi: int = 23
    permissions: frozenset = frozenset()


@dataclass(frozen=True)
class AppModel:
    name: str
    manifest: Manifest
    classes: tuple = ()


# ---------------------------------------------------------------------------
# loading / serialization


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ParseError(f"missing required key {key!r}", where)
    return d[key]


def _field_from_dict(d: dict, where: str) -> FieldDecl:
    decl = FieldDecl(
        name=_require(d, "name", where),
        type=_require(d, "type", where),
        static=bool(d.get("static", False)),
        constValue=d.get("constValue"),
        doc=d.get("doc"),
    )
    if decl.constValue is not None and not decl.static:
        raise ValidationError(f"{where}.{decl.name}: constValue only allowed on static fields")
    return decl


def _method_from_dict(d: dict, cls_name: str, where: str) -> MethodDecl:
    name = _require(d, "name", where)
    where = f"{where}.{name}"
    body = d.get("body")
    stmts = None
    if body is not None:
        stmts = tuple(
            stmt_from_dict(s, f"{where}[{i}]") for i, s in enumerate(body)
        )
    decl = MethodDecl(
        name=name,
        params=tuple(d.get("params", ())),
        returnType=d.get("returnType", "void"),
        static=bool(d.get("static", False)),
        abstract=bool(d.get("abstract", False)),
        doc=d.get("doc"),
        body=stmts,
    )
    if decl.abstract and decl.body is not None:
        raise ValidationError(f"{where}: abstract method must not have a body")
    return decl


def _class_from_dict(d: dict, where: str) -> ClassDecl:
    name = _require(d, "name", where)
    where = f"{where}.{name}"
    kind = d.get("kind", "class")
    if kind not in ("class", "interface"):
        raise ValidationError(f"{where}: bad class kind {kind!r}")
    origin = d.get("origin", "app")
    if origin not in ("app", "library", "framework"):
        raise ValidationError(f"{where}: bad origin {origin!r}")
    sup = d.get("super")
    if sup is not None and not isinstance(sup, str):
        raise ValidationError(f"{where}: super must be a class name, not {sup!r}")
    interfaces = d.get("interfaces", [])
    if not isinstance(interfaces, list) or not all(isinstance(i, str) for i in interfaces):
        raise ValidationError(f"{where}: interfaces must be a list of names, not {interfaces!r}")
    fields = tuple(_field_from_dict(f, where) for f in d.get("fields", ()))
    methods = tuple(_method_from_dict(m, name, where) for m in d.get("methods", ()))
    seen = set()
    for f in fields:
        if f.name in seen:
            raise ValidationError(f"{where}: duplicate field {f.name}")
        seen.add(f.name)
    seen = set()
    for m in methods:
        if m.key in seen:
            raise ValidationError(f"{where}: duplicate method {m.sig(name)}")
        seen.add(m.key)
    return ClassDecl(
        name=name,
        kind=kind,
        origin=origin,
        super=sup,
        interfaces=tuple(interfaces),
        doc=d.get("doc"),
        model=bool(d.get("model", False)),
        fields=fields,
        methods=methods,
    )


def app_from_dict(d: dict, where: str = "<app>") -> AppModel:
    if not isinstance(d, dict):
        raise ParseError("app model must be a JSON object", where)
    name = _require(d, "name", where)
    mraw = _require(d, "manifest", where)
    perms = frozenset(p for p in mraw.get("permissions", ()))
    for p in perms:
        if not p:
            raise ValidationError(f"{where}.manifest: empty permission name")
    manifest = Manifest(targetApi=int(mraw.get("targetApi", 23)), permissions=perms)
    classes = tuple(_class_from_dict(c, f"{where}.classes") for c in d.get("classes", ()))
    names = set()
    for c in classes:
        if c.name in names:
            raise ValidationError(f"{where}: duplicate class {c.name}")
        names.add(c.name)
    return AppModel(name=name, manifest=manifest, classes=classes)


def load_app(path) -> AppModel:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", str(path))
    return app_from_dict(data, str(path))


def app_to_dict(model: AppModel) -> dict:
    return {
        "name": model.name,
        "manifest": {
            "targetApi": model.manifest.targetApi,
            "permissions": sorted(model.manifest.permissions),
        },
        "classes": [_class_to_dict(c) for c in model.classes],
    }


def _class_to_dict(c: ClassDecl) -> dict:
    d = {"name": c.name, "kind": c.kind, "origin": c.origin}
    if c.super is not None:
        d["super"] = c.super
    if c.interfaces:
        d["interfaces"] = list(c.interfaces)
    if c.doc is not None:
        d["doc"] = c.doc
    if c.model:
        d["model"] = True
    if c.fields:
        d["fields"] = [_member_dict(f) for f in c.fields]
    d["methods"] = [_method_to_dict(m) for m in c.methods]
    return d


def _member_dict(f: FieldDecl) -> dict:
    d = {"name": f.name, "type": f.type}
    if f.static:
        d["static"] = True
    if f.constValue is not None:
        d["constValue"] = f.constValue
    if f.doc is not None:
        d["doc"] = f.doc
    return d


def _method_to_dict(m: MethodDecl) -> dict:
    d = {"name": m.name, "params": list(m.params), "returnType": m.returnType}
    if m.static:
        d["static"] = True
    if m.abstract:
        d["abstract"] = True
    if m.doc is not None:
        d["doc"] = m.doc
    d["body"] = None if m.body is None else [stmt_to_dict(s) for s in m.body]
    return d


def serialize(model: AppModel) -> str:
    return json.dumps(app_to_dict(model), indent=2, sort_keys=False) + "\n"


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


@dataclass(frozen=True)
class LinkConfig:
    framework_prefixes: tuple = DEFAULT_FRAMEWORK_PREFIXES
    async_excludes: tuple = DEFAULT_ASYNC_EXCLUDES
    permission_constant_class: str = DEFAULT_PERMISSION_CONSTANT_CLASS

    @classmethod
    def from_dict(cls, d: dict) -> "LinkConfig":
        return cls(
            framework_prefixes=tuple(d.get("framework_prefixes", DEFAULT_FRAMEWORK_PREFIXES)),
            async_excludes=tuple(d.get("async_excludes", DEFAULT_ASYNC_EXCLUDES)),
            permission_constant_class=d.get(
                "permission_constant_class", DEFAULT_PERMISSION_CONSTANT_CLASS
            ),
        )


@dataclass(frozen=True)
class LinkedProgram:
    """One merged class table plus analysis configuration.

    Immutable apart from the :meth:`defs_index` cache; the entry class /
    callback roots are filled in by the entrypoints module via
    :func:`with_entry`, which starts a fresh cache.
    """

    name: str
    manifest: Manifest
    classes: dict  # name -> ClassDecl
    config: LinkConfig = LinkConfig()
    entry_class: Optional[str] = None
    entry_sites: tuple = ()  # SiteIds of callback invocations in the dummy main
    callbacks: tuple = ()  # CallbackRefs, parallel to nothing (sorted)
    _defs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- lookups ------------------------------------------------------------

    def get_class(self, name: str) -> Optional[ClassDecl]:
        return self.classes.get(name)

    def lookup_method(self, sig: str):
        """Exact declaration lookup; returns (ClassDecl, MethodDecl) or None."""
        cls, name, params = parse_method_sig(sig)
        decl = self.classes.get(cls)
        if decl is None:
            return None
        m = decl.method_by_key(name, params)
        if m is None:
            return None
        return decl, m

    def lookup_field(self, fid: str):
        cls, name = parse_field_id(fid)
        decl = self.classes.get(cls)
        if decl is None:
            return None
        f = decl.field_by_name(name)
        if f is None:
            return None
        return decl, f

    def body_of(self, sig: str):
        found = self.lookup_method(sig)
        if found is None:
            return None
        return found[1].body

    def stmt_at(self, site: SiteId):
        body = self.body_of(site.method)
        if body is None or not 0 <= site.stmt < len(body):
            raise KeyError(f"no statement at {site}")
        return body[site.stmt]

    def is_framework(self, decl: ClassDecl) -> bool:
        if decl.origin == "framework":
            return True
        return any(decl.name.startswith(p) for p in self.config.framework_prefixes)

    def iter_methods(self, origins=None):
        """Yield (ClassDecl, MethodDecl, sig) sorted by class then signature."""
        for cname in sorted(self.classes):
            decl = self.classes[cname]
            if origins is not None and decl.origin not in origins:
                continue
            for m in sorted(decl.methods, key=lambda m: (m.name, m.params)):
                yield decl, m, m.sig(cname)

    def defs_index(self, sig: str) -> Optional[dict]:
        """Local name -> [(stmt index, stmt), ...] in body order, for every
        statement that assigns a local; None for a missing or stub method.
        Built once per method and cached on this program."""
        if sig not in self._defs:
            body = self.body_of(sig)
            index = None if body is None else {}
            for i, stmt in enumerate(body or ()):
                target = getattr(stmt, "target", None)
                if target is not None:
                    index.setdefault(target, []).append((i, stmt))
            self._defs[sig] = index
        return self._defs[sig]

    def iter_app_bodies(self):
        """Bodied methods of app/library classes (the analyzed code)."""
        for decl, m, sig in self.iter_methods(origins=("app", "library")):
            if decl.name != self.entry_class and m.body is not None:
                yield decl, m, sig

    @property
    def entry_main_sig(self) -> Optional[str]:
        if self.entry_class is None:
            return None
        return method_sig(self.entry_class, "main", ())

    def with_entry(self, entry_decl: ClassDecl, entry_sites, callbacks) -> "LinkedProgram":
        classes = dict(self.classes)
        classes[entry_decl.name] = entry_decl
        return replace(
            self,
            classes=classes,
            entry_class=entry_decl.name,
            entry_sites=tuple(entry_sites),
            callbacks=tuple(callbacks),
        )


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
    return replace(
        base,
        super=next(iter(supers)) if supers else None,
        interfaces=tuple(interfaces),
        fields=tuple(fields.values()),
        methods=tuple(methods.values()),
        doc=doc,
    )


def link_program(app: AppModel, overlays=(), config: Optional[LinkConfig] = None) -> LinkedProgram:
    """Merge app + library + framework overlays into one class table."""
    config = config or LinkConfig()
    by_name = {}
    for model in (app, *overlays):
        for c in model.classes:
            by_name.setdefault(c.name, []).append(c)
    classes = {}
    for name in sorted(by_name):
        decls = by_name[name]
        classes[name] = decls[0] if len(decls) == 1 else _merge_class(name, decls)
    unresolved = []
    for name, decl in classes.items():
        for ref in decl.parents:
            if ref not in classes:
                unresolved.append(f"{name} -> {ref}")
        if decl.super is not None and decl.super in classes:
            sup = classes[decl.super]
            if decl.kind == "interface" and sup.kind == "class":
                raise LinkError(f"interface {name} extends class {decl.super}")
        for iname in decl.interfaces:
            if iname in classes and classes[iname].kind != "interface":
                raise LinkError(f"{name} implements non-interface {iname}")
    if unresolved:
        raise LinkError("unresolved type references: " + ", ".join(sorted(unresolved)))
    return LinkedProgram(name=app.name, manifest=app.manifest, classes=classes, config=config)
