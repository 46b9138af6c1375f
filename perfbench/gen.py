"""Seeded, well-typed app generators for the three benchmark workloads.

Every generator is a pure function of its parameters and a seed string, so
one instance id always yields the same JSON. Apps reference only the
framework classes in ``tests/fixtures/framework.json`` and are meant to be
analyzed with ``tests/fixtures/fixture.spec.json``.

* ``deep_dispatch_app``: layered class families, call depth ``levels`` with
  fan-out 2-3, receivers allocated at subtypes of the declared type, and a
  share of calls routed through static helpers that dispatch on their
  parameter (0-CFA merges receivers there; 1-CFA prunes them again).
* ``heap_dense_app``: call depth at most 3; allocations funnelled through
  assign chains closed into copy cycles, one shared instance field and one
  hot static field, so points-to sets hold hundreds of objects.
* ``corpus_shard``: many small-to-medium apps with large bodies holding
  parametric sinks fed through assign chains, permission-constant
  references and manifest-only permissions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ACTIVITY = "android.app.Activity"
ACTIVITY_CALLBACKS = ("onCreate", "callback1", "callback2")
LISTENER = "android.location.LocationListener"
LOCATION = "android.location.Location"
LOCATION_MANAGER = "android.location.LocationManager"
REQUEST_UPDATES = f"{LOCATION_MANAGER}#requestLocationUpdates({LISTENER})"
INTENT_INIT = "android.content.Intent#<init>(java.lang.String)"
STRING = "java.lang.String"
PERM_CLASS = "android.Manifest$permission"
PERMS = (
    "android.permission.ACCESS_FINE_LOCATION",
    "android.permission.ACCESS_COARSE_LOCATION",
    "android.permission.CAMERA",
    "android.permission.READ_CONTACTS",
    "android.permission.RECORD_AUDIO",
)
INTERNET = "android.permission.INTERNET"


# ---------------------------------------------------------------------------
# IR builders (the on-disk JSON shape read by ``permplace.model.load_app``)


def new(target, type_):
    return {"op": "new", "target": target, "type": type_}


def assign(target, source):
    return {"op": "assign", "target": target, "source": source}


def const_str(target, value):
    return {"op": "const_str", "target": target, "value": value}


def load_static(target, field):
    return {"op": "load_static", "target": target, "field": field}


def store_static(field, source):
    return {"op": "store_static", "field": field, "source": source}


def load_field(target, base, field):
    return {"op": "load_field", "target": target, "base": base, "field": field}


def store_field(base, field, source):
    return {"op": "store_field", "base": base, "field": field, "source": source}


def invoke(kind, method, receiver=None, target=None, args=()):
    stmt = {"op": "invoke", "kind": kind, "method": method}
    if receiver is not None:
        stmt["receiver"] = receiver
    if target is not None:
        stmt["target"] = target
    if args:
        stmt["args"] = list(args)
    return stmt


def ret(value):
    return {"op": "return", "value": value}


def method(name, body, params=(), return_type="void", static=False):
    m = {"name": name, "params": list(params), "returnType": return_type, "body": body}
    if static:
        m["static"] = True
    return m


def klass(name, methods, super_=None, interfaces=(), fields=()):
    c = {"name": name, "kind": "class", "origin": "app", "methods": methods}
    if super_ is not None:
        c["super"] = super_
    if interfaces:
        c["interfaces"] = list(interfaces)
    if fields:
        c["fields"] = list(fields)
    return c


def app(name, permissions, classes):
    return {
        "name": name,
        "manifest": {"targetApi": 23, "permissions": sorted(permissions)},
        "classes": classes,
    }


def count_stmts(app_dict) -> int:
    return sum(
        len(m["body"] or ()) for c in app_dict["classes"] for m in c["methods"]
    )


def _sensitive_call(rng, var):
    """Statements for one permission-consuming call; ``var`` prefixes locals."""
    kind = rng.randrange(5)
    if kind == 0:
        return [invoke("static", "android.hardware.Camera#open()", target=f"{var}c")]
    if kind == 1:
        return [
            new(f"{var}r", "android.media.AudioRecord"),
            invoke("virtual", "android.media.AudioRecord#startRecording()", receiver=f"{var}r"),
        ]
    if kind == 2:
        name = rng.choice(("getLastKnownLocation", "requestSingleUpdate"))
        return [
            new(f"{var}m", LOCATION_MANAGER),
            const_str(f"{var}s", "gps"),
            invoke("virtual", f"{LOCATION_MANAGER}#{name}({STRING})",
                   receiver=f"{var}m", args=[f"{var}s"]),
        ]
    if kind == 3:
        return [invoke("static", "android.test.Api#SENSITIVE()")]
    return [
        new(f"{var}i", "android.content.Intent"),
        load_static(f"{var}f", "android.provider.Contacts#SENSITIVE_FIELD"),
        invoke("special", INTENT_INIT, receiver=f"{var}i", args=[f"{var}f"]),
    ]


def _pick(rng, n, share):
    """A random set of exactly ``round(n * share)`` of ``range(n)``."""
    return set(rng.sample(range(n), round(n * share)))


# ---------------------------------------------------------------------------
# deep-dispatch


@dataclass(frozen=True)
class DeepDispatch:
    levels: int = 7  # class levels below each callback (call depth 8 counting it)
    families: int = 3  # class families per level
    subclasses: int = 3  # overriding subclasses per family base
    methods: int = 3  # instance methods per class
    fanout: tuple = (2, 3)  # calls per non-leaf body, dealt in equal numbers
    merge_share: float = 0.5  # share of calls routed through a static helper
    override_share: float = 0.8  # share of base methods a subclass overrides
    activities: int = 1
    listeners: int = 1  # LocationListener callbacks anchored by registration
    sensitive_share: float = 0.5  # share of leaf bodies with a sensitive call
    filler: int = 3  # extra local statements per body


def _dd_base(level, fam):
    return f"dd.l{level}.F{fam}"


def _dd_class(level, fam, sub):
    base = _dd_base(level, fam)
    return base if sub == 0 else f"{base}S{sub}"


def _dd_hub(level, fam):
    return f"dd.l{level}.Hub{fam}"


def _deck(rng, items):
    """Endless draws from ``items`` in shuffled rounds: every item comes up
    equally often, in random order."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def _dd_calls(level, count, targets, prefix):
    """``count`` calls into ``level``, each drawn from ``targets``, a deck
    of (family, subclass, method, through helper)."""
    body = []
    for c in range(count):
        fam, sub, j, merged = next(targets)
        recv = f"{prefix}{c}"
        body.append(new(recv, _dd_class(level, fam, sub)))
        if merged:
            body.append(invoke("static", f"{_dd_hub(level, fam)}#run{j}({_dd_base(level, fam)})",
                               args=[recv]))
        else:
            body.append(invoke("virtual", f"{_dd_base(level, fam)}#op{j}()", receiver=recv))
    return body


def _filler(rng, count, prefix):
    body = []
    for k in range(count):
        if k % 2 == 0:
            body.append(const_str(f"{prefix}t{k}", f"tag{rng.randrange(1000)}"))
        else:
            body.append(assign(f"{prefix}t{k}", f"{prefix}t{k - 1}"))
    return body


def deep_dispatch_app(seed: str, p: DeepDispatch = DeepDispatch()):
    # Shares are exact and callees are dealt from balanced decks, so that
    # instances differ in wiring more than in path count and report size.
    rng = random.Random(seed)
    sub_slots = [
        (level, fam, sub, j)
        for level in range(p.levels)
        for fam in range(p.families)
        for sub in range(1, p.subclasses + 1)
        for j in range(p.methods)
    ]
    overrides = set(rng.sample(sub_slots, round(len(sub_slots) * p.override_share)))
    leaf_bodies = p.families * p.methods + sum(1 for s in overrides if s[0] == p.levels - 1)
    sensitive = _pick(rng, leaf_bodies, p.sensitive_share)
    combos = [
        (fam, sub, j) for fam in range(p.families)
        for sub in range(p.subclasses + 1) for j in range(p.methods)
    ]
    n_merged = round(len(combos) * p.merge_share)
    flags = [k < n_merged for k in range(len(combos))]
    rng.shuffle(flags)
    targets = [_deck(rng, [c + (m,) for c, m in zip(combos, flags)]) for _ in range(p.levels)]
    fanout = _deck(rng, p.fanout)
    leaf_index = 0
    classes = []
    for level in range(p.levels):
        leaf = level == p.levels - 1
        for fam in range(p.families):
            for sub in range(p.subclasses + 1):
                methods = []
                for j in range(p.methods):
                    if sub and (level, fam, sub, j) not in overrides:
                        continue
                    body = _filler(rng, p.filler, "x")
                    if leaf:
                        if leaf_index in sensitive:
                            body += _sensitive_call(rng, "s")
                        leaf_index += 1
                    else:
                        body += _dd_calls(level + 1, next(fanout), targets[level + 1], "r")
                    methods.append(method(f"op{j}", body))
                classes.append(klass(
                    _dd_class(level, fam, sub), methods,
                    super_=_dd_base(level, fam) if sub else None,
                ))
            hub_methods = [
                method(
                    f"run{j}",
                    [invoke("virtual", f"{_dd_base(level, fam)}#op{j}()", receiver="p0")],
                    params=[_dd_base(level, fam)],
                    static=True,
                )
                for j in range(p.methods)
            ]
            classes.append(klass(_dd_hub(level, fam), hub_methods))
    listeners = [f"dd.Loc{b}" for b in range(p.listeners)]
    for b, name in enumerate(listeners):
        body = _dd_calls(0, next(fanout), targets[0], "r")
        classes.append(klass(
            name, [method("onLocationChanged", body, params=[LOCATION])], interfaces=[LISTENER]
        ))
    for a in range(p.activities):
        methods = []
        for cb in ACTIVITY_CALLBACKS:
            body = _dd_calls(0, next(fanout), targets[0], "r")
            if cb == "onCreate":
                for b, name in enumerate(listeners):
                    if b % p.activities == a:
                        body += [
                            new(f"lm{b}", LOCATION_MANAGER),
                            new(f"l{b}", name),
                            invoke("virtual", REQUEST_UPDATES, receiver=f"lm{b}", args=[f"l{b}"]),
                        ]
            methods.append(method(cb, body))
        classes.append(klass(f"dd.Act{a}", methods, super_=ACTIVITY))
    return app(f"dd-{seed}", PERMS, classes)


# ---------------------------------------------------------------------------
# heap-dense

HD_NODE = "hd.Node"
HD_POOL = "hd.Hub#POOL"  # the hot static field
HD_BOX = "hd.Hub#BOX"  # holds the one shared hd.Box
HD_KEEP = f"hd.Util#keep({HD_NODE})"


@dataclass(frozen=True)
class HeapDense:
    workers: int = 40  # static worker methods, each called from a callback
    allocs: int = 6  # allocations per worker
    chain: int = 12  # assign-chain length; the chain's end is copied back to its head
    types: int = 8  # hd.Node subclasses
    hot_share: float = 0.5  # share of workers that store to and load from the hot static
    field_share: float = 0.5  # share of workers that use the shared instance field
    activities: int = 2
    sensitive_share: float = 0.25


def heap_dense_app(seed: str, p: HeapDense = HeapDense()):
    rng = random.Random(seed)
    classes = [
        klass("hd.Hub", [], fields=[
            {"name": "POOL", "type": HD_NODE, "static": True},
            {"name": "BOX", "type": "hd.Box", "static": True},
        ]),
        klass("hd.Box", [], fields=[{"name": "slot", "type": HD_NODE}]),
        klass("hd.Util", [method(
            "keep",
            [store_static(HD_POOL, "p0"), load_static("q", HD_POOL), ret("q")],
            params=[HD_NODE], return_type=HD_NODE, static=True,
        )]),
        klass(HD_NODE, [method("visit", [store_static(HD_POOL, "this")])],
              fields=[{"name": "next", "type": HD_NODE}]),
    ]
    for t in range(p.types):
        body = [load_field("n", "this", "next"), assign("m", "n")]
        if t % 2 == 0:
            body += [load_static("h", HD_POOL), store_field("this", "next", "h")]
        else:
            body += [invoke("static", HD_KEEP, target="k", args=["this"]),
                     store_field("this", "next", "k")]
        classes.append(klass(f"hd.N{t}", [method("visit", body)], super_=HD_NODE))
    # exact shares, placed at random: instances of one size differ in their
    # wiring, not in how much of the heap they merge
    hot = _pick(rng, p.workers, p.hot_share)
    boxed = _pick(rng, p.workers, p.field_share)
    sensitive = _pick(rng, p.workers, p.sensitive_share)
    alloc_types = [t % p.types for t in range(p.workers * p.allocs)]
    rng.shuffle(alloc_types)
    for w in range(p.workers):
        body = [new(f"a{i}", f"hd.N{alloc_types[w * p.allocs + i]}") for i in range(p.allocs)]
        body += [assign("c0", f"a{i}") for i in range(p.allocs)]
        body += [assign(f"c{k}", f"c{k - 1}") for k in range(1, p.chain)]
        body.append(assign("c0", f"c{p.chain - 1}"))
        last = f"c{p.chain - 1}"
        if w in hot:
            body += [
                store_static(HD_POOL, last),
                load_static("g", HD_POOL),
                invoke("static", HD_KEEP, target="r", args=["g"]),
                assign("c0", "r"),
            ]
        else:
            body.append(assign("g", last))
        if w in boxed:
            body += [
                load_static("b", HD_BOX),
                store_field("b", "slot", "g"),
                load_field("y", "b", "slot"),
                assign("c0", "y"),
            ]
        body.append(invoke("virtual", f"{HD_NODE}#visit()", receiver="g"))
        if w in sensitive:
            body += _sensitive_call(rng, "s")
        classes.append(klass(f"hd.W{w}", [method("work", body, static=True)]))
    for a in range(p.activities):
        methods = []
        for ci, cb in enumerate(ACTIVITY_CALLBACKS):
            body = []
            if a == 0 and cb == "onCreate":
                body += [new("box", "hd.Box"), store_static(HD_BOX, "box")]
            slot = a * len(ACTIVITY_CALLBACKS) + ci
            stride = p.activities * len(ACTIVITY_CALLBACKS)
            body += [invoke("static", f"hd.W{w}#work()") for w in range(slot, p.workers, stride)]
            methods.append(method(cb, body))
        classes.append(klass(f"hd.Act{a}", methods, super_=ACTIVITY))
    return app(f"hd-{seed}", PERMS, classes)


# ---------------------------------------------------------------------------
# corpus-audit

CONTACTS_SENSITIVE = "android.provider.Contacts#SENSITIVE_FIELD"
CONTACTS_SAFE = "android.provider.Contacts#SAFE_FIELD"


@dataclass(frozen=True)
class CorpusShard:
    apps: int = 24  # apps per shard (one collect op)
    classes: tuple = (2, 4)  # classes per app, drawn uniformly
    methods: tuple = (1, 3)  # methods per class
    sinks: tuple = (6, 16)  # parametric sinks per body
    chain: tuple = (2, 10)  # assign steps between a sink's source and its argument
    perm_refs: int = 3  # permission-constant references per body
    sensitive_calls: int = 1  # method-level sensitive calls per body
    filler: int = 12  # extra local statements per body
    manifest_only: float = 0.3  # chance of each extra manifest-only permission


def _sink_source(rng, var):
    kind = rng.randrange(4)
    if kind == 0:
        return const_str(var, "content://sensitive")
    if kind == 1:
        return const_str(var, rng.choice(("content://safe", "http://example.org")))
    if kind == 2:
        return load_static(var, CONTACTS_SENSITIVE)
    return load_static(var, CONTACTS_SAFE)


def _corpus_body(rng, p: CorpusShard):
    body = _filler(rng, p.filler, "x")
    for s in range(rng.randint(*p.sinks)):
        steps = rng.randint(*p.chain)
        body.append(_sink_source(rng, f"v{s}_0"))
        body += [assign(f"v{s}_{k}", f"v{s}_{k - 1}") for k in range(1, steps + 1)]
        body += [
            new(f"i{s}", "android.content.Intent"),
            invoke("special", INTENT_INIT, receiver=f"i{s}", args=[f"v{s}_{steps}"]),
        ]
    for r in range(p.perm_refs):
        perm = rng.choice(PERMS)
        if rng.random() < 0.5:
            body.append(load_static(f"pc{r}", f"{PERM_CLASS}#{perm.rsplit('.', 1)[1]}"))
        else:
            body.append(const_str(f"pc{r}", perm))
    for k in range(p.sensitive_calls):
        body += _sensitive_call(rng, f"s{k}")
    rng.shuffle(body)  # flow-insensitive IR: order only changes site ids
    return body


def _corpus_app(rng, name, p: CorpusShard):
    classes = []
    for c in range(rng.randint(*p.classes)):
        methods = [method(ACTIVITY_CALLBACKS[m], _corpus_body(rng, p))
                   for m in range(rng.randint(*p.methods))]
        classes.append(klass(f"{name}.C{c}", methods, super_=ACTIVITY))
    perms = {rng.choice(PERMS)}
    perms |= {q for q in PERMS + (INTERNET,) if rng.random() < p.manifest_only}
    return app(name, perms, classes)


def corpus_shard(seed: str, p: CorpusShard = CorpusShard()):
    """List of app dicts making one corpus directory."""
    rng = random.Random(seed)
    return [_corpus_app(rng, f"ca{k}", p) for k in range(p.apps)]
