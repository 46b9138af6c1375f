"""Seeded random program generator for differential testing.

Programs are small (a handful of classes, a few dozen statements), always
valid IR, and always anchored by an Activity subclass so the entry
synthesizer has callbacks to hang the analysis on. The shapes are chosen to
exercise every constraint kind: allocations, copies, virtual dispatch over
subclass overrides, instance and static fields, call returns, and the two
static framework probes (one sensitive, one benign). ``diamond=True`` adds
a static callee shared by two callers, so traversals meet its callees
twice under one context. ``split=True`` adds a second Activity whose
callbacks each pass an object of another subtype to one shared static
helper, which calls a virtual method on it, so 1-CFA prunes the helper's
call edges under each entering site; one override passes the helper a
subtype no callback passes, whose override only cfa0 then reaches.

``gen_heap_app`` makes the other shape: many allocations merged through
copy cycles, a hot static and one shared field, so points-to sets hold
dozens to hundreds of objects. ``ladder_app`` has as many call paths as a
program of its size can have: their number doubles with each level.
``app_json`` writes a model back as the JSON the loader reads.
"""

import json
import random

from permplace.model import app_from_dict

SENSITIVE_CALL = "android.test.Api#SENSITIVE()"
SAFE_CALL = "android.test.Api#safe()"
LOCALS = ["v0", "v1", "v2", "v3"]


def to_dict(record) -> dict:
    """The JSON object of a model record: ``op`` first, fields at their
    default left out, tuples as lists and sets as sorted lists."""
    d = {"op": record.op} if hasattr(record, "op") else {}
    missing = object()
    for name, v in zip(record._fields, record):
        if v != record._field_defaults.get(name, missing):
            d[name] = _json_value(v)
    return d


def _json_value(v):
    if hasattr(v, "_fields"):
        return to_dict(v)
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


def app_json(app) -> str:
    return json.dumps(to_dict(app))


def gen_app(
    seed: int,
    max_classes: int = 10,
    max_statements: int = 40,
    diamond: bool = False,
    split: bool = False,
):
    rng = random.Random(seed)
    n_plain = rng.randint(2, max(2, max_classes - 1))
    names = [f"rnd.C{i}" for i in range(n_plain)]
    budget = [max_statements]

    # single-inheritance forest over the plain classes
    supers = {}
    for i, name in enumerate(names):
        if i > 0 and rng.random() < 0.5:
            supers[name] = names[rng.randrange(i)]

    def gen_body(defines_return):
        k = rng.randint(1, 6)
        body = []
        for _ in range(k):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            v = rng.choice(LOCALS)
            w = rng.choice(LOCALS)
            roll = rng.random()
            if roll < 0.25:
                body.append({"op": "new", "target": v, "type": rng.choice(names)})
            elif roll < 0.35:
                body.append({"op": "assign", "target": v, "source": w})
            elif roll < 0.45:
                body.append({"op": "store_field", "base": v, "field": "f", "source": w})
            elif roll < 0.55:
                body.append({"op": "load_field", "target": v, "base": w, "field": "f"})
            elif roll < 0.62:
                body.append({"op": "store_static", "field": f"{names[0]}#G", "source": v})
            elif roll < 0.69:
                body.append({"op": "load_static", "target": v, "field": f"{names[0]}#G"})
            elif roll < 0.87:
                stmt = {
                    "op": "invoke",
                    "kind": "virtual",
                    "method": f"{rng.choice(names)}#go()",
                    "receiver": v,
                }
                if rng.random() < 0.5:
                    stmt["target"] = w
                body.append(stmt)
            else:
                call = SENSITIVE_CALL if rng.random() < 0.5 else SAFE_CALL
                body.append({"op": "invoke", "kind": "static", "method": call})
        if defines_return and body and rng.random() < 0.5:
            body.append({"op": "return", "value": rng.choice(LOCALS)})
        return body

    classes = []
    for name in names:
        decl = {"name": name, "kind": "class", "origin": "app", "methods": []}
        if name in supers:
            decl["super"] = supers[name]
        if name == names[0]:
            decl["fields"] = [
                {"name": "f", "type": names[0]},
                {"name": "G", "type": names[0], "static": True},
            ]
        else:
            decl["fields"] = [{"name": "f", "type": names[0]}]
        # roughly half the classes (plus the root) define go(), giving the
        # dispatcher both override and inherited-resolution cases
        if name == names[0] or rng.random() < 0.6:
            decl["methods"].append(
                {"name": "go", "params": [], "returnType": names[0], "body": gen_body(True)}
            )
        classes.append(decl)

    callbacks = rng.sample(["callback1", "callback2", "onCreate"], rng.randint(1, 3))
    host = {
        "name": "rnd.Host",
        "kind": "class",
        "origin": "app",
        "super": "android.app.Activity",
        "methods": [
            {"name": cb, "params": [], "returnType": "void", "body": gen_body(False)}
            for cb in sorted(callbacks)
        ],
    }
    classes.append(host)
    if diamond:
        # drawn after everything above, so the plain programs stay as they were
        roots = {names[0]}
        for name in names:  # supers precede their subclasses
            if supers.get(name) in roots:
                roots.add(name)
        shared = [
            {"op": "new", "target": "x", "type": rng.choice(sorted(roots))},
            {"op": "invoke", "kind": "virtual", "method": f"{names[0]}#go()", "receiver": "x"},
            {"op": "load_static", "target": "y", "field": f"{names[0]}#G"},
            {"op": "invoke", "kind": "virtual", "method": f"{names[0]}#go()", "receiver": "y"},
        ]
        calls_shared = [{"op": "invoke", "kind": "static", "method": "rnd.D#shared()"}]
        classes.append({"name": "rnd.D", "kind": "class", "origin": "app", "methods": [
            {"name": name, "params": [], "returnType": "void", "static": True, "body": body}
            for name, body in [("left", calls_shared), ("right", calls_shared), ("shared", shared)]
        ]})
        host["methods"][rng.randrange(len(host["methods"]))]["body"] += [
            {"op": "invoke", "kind": "static", "method": f"rnd.D#{side}()"}
            for side in ("left", "right")
        ]
    if split:
        # drawn after everything above, so the other programs stay as they were
        callbacks = sorted(rng.sample(["callback1", "callback2", "onCreate"], rng.randint(2, 3)))
        kinds = [f"rnd.K{k}" for k in range(len(callbacks) + rng.randint(1, 2))]
        passed = rng.sample(kinds, len(callbacks))
        relay = "rnd.S#relay(rnd.K)"

        def relay_with(kind):
            return [{"op": "new", "target": "k", "type": kind},
                    {"op": "invoke", "kind": "static", "method": relay, "args": ["k"]}]

        runs = {}
        for kind in kinds:  # only some overrides are sensitive
            call = SENSITIVE_CALL if rng.random() < 0.5 else SAFE_CALL
            runs[kind] = [{"op": "invoke", "kind": "static", "method": call}]
        # One passed override re-enters the helper with a kind no callback
        # passes. The traversal never re-enters a method on its path, so
        # only the 0-CFA edge from the helper reaches that kind's run().
        runs[rng.choice(passed)] += relay_with(rng.choice(sorted(set(kinds) - set(passed))))
        classes.append({"name": "rnd.K", "methods": [{"name": "run", "body": []}]})
        classes += [{"name": kind, "super": "rnd.K", "methods": [{"name": "run", "body": runs[kind]}]}
                    for kind in kinds]
        classes.append({"name": "rnd.S", "methods": [{
            "name": "relay", "params": ["rnd.K"], "static": True,
            "body": [{"op": "invoke", "kind": "virtual", "method": "rnd.K#run()", "receiver": "p0"}],
        }]})
        classes.append({
            "name": "rnd.SplitHost", "super": "android.app.Activity",
            "methods": [{"name": cb, "body": relay_with(kind)} for cb, kind in zip(callbacks, passed)],
        })
    suffix = "-diamond" * diamond + "-split" * split
    return app_from_dict(
        {
            "name": f"rnd-{seed}{suffix}",
            "manifest": {"targetApi": 23, "permissions": []},
            "classes": classes,
        }
    )


def gen_heap_app(seed: int, workers: int = 12, allocs: int = 6):
    """``workers`` static methods, each allocating ``allocs`` objects of
    random subtypes of rnd.Node and merging them through an assign cycle.
    About half also pass the merged set through the static rnd.Hub#HOT and
    the static getter rnd.Util#keep, which returns what it stored there (a
    cycle across methods); about half store it into and load it back from
    the field of the one box held by rnd.Hub#BOX. Every worker then calls
    rnd.Node#visit() on the merged set, and the visit() overrides load,
    store and keep their own ``next`` field."""
    rng = random.Random(seed)
    node, hot, box = "rnd.Node", "rnd.Hub#HOT", "rnd.Hub#BOX"
    keep = f"rnd.Util#keep({node})"

    def method(name, body, params=(), static=False, returns="void"):
        return {"name": name, "params": list(params), "returnType": returns,
                "static": static, "body": body}

    def klass(name, methods, super_=None, fields=()):
        decl = {"name": name, "kind": "class", "origin": "app", "methods": methods,
                "fields": list(fields)}
        if super_ is not None:
            decl["super"] = super_
        return decl

    classes = [
        klass("rnd.Hub", [], fields=[{"name": "HOT", "type": node, "static": True},
                                     {"name": "BOX", "type": "rnd.Box", "static": True}]),
        klass("rnd.Box", [], fields=[{"name": "slot", "type": node}]),
        klass("rnd.Util", [method("keep", [
            {"op": "store_static", "field": hot, "source": "p0"},
            {"op": "load_static", "target": "q", "field": hot},
            {"op": "return", "value": "q"},
        ], params=[node], static=True, returns=node)]),
        klass(node, [method("visit", [{"op": "store_static", "field": hot, "source": "this"}])],
              fields=[{"name": "next", "type": node}]),
    ]
    subtypes = [f"rnd.N{t}" for t in range(6)]
    for t, name in enumerate(subtypes):
        super_ = rng.choice([node, *subtypes[:t]])
        methods = []
        if rng.random() < 0.7:  # the rest inherit visit()
            body = [
                {"op": "load_field", "target": "n", "base": "this", "field": "next"},
                {"op": "assign", "target": "m", "source": "n"},
            ]
            if rng.random() < 0.5:
                body.append({"op": "invoke", "kind": "static", "method": keep,
                             "target": "m", "args": ["this"]})
            body.append({"op": "store_field", "base": "this", "field": "next", "source": "m"})
            if rng.random() < 0.3:
                body.append({"op": "invoke", "kind": "static", "method": SENSITIVE_CALL})
            methods.append(method("visit", body))
        classes.append(klass(name, methods, super_=super_))
    for w in range(workers):
        chain = rng.randint(2, 6)
        body = [{"op": "new", "target": f"a{i}", "type": rng.choice(subtypes)}
                for i in range(allocs)]
        body += [{"op": "assign", "target": "c0", "source": f"a{i}"} for i in range(allocs)]
        body += [{"op": "assign", "target": f"c{k}", "source": f"c{k - 1}"}
                 for k in range(1, chain)]
        body.append({"op": "assign", "target": "c0", "source": f"c{chain - 1}"})
        body.append({"op": "assign", "target": "g", "source": f"c{chain - 1}"})
        if rng.random() < 0.5:
            body += [
                {"op": "store_static", "field": hot, "source": "g"},
                {"op": "load_static", "target": "h", "field": hot},
                {"op": "invoke", "kind": "static", "method": keep, "target": "g", "args": ["h"]},
                {"op": "assign", "target": "c0", "source": "g"},
            ]
        if rng.random() < 0.5:
            body += [
                {"op": "load_static", "target": "b", "field": box},
                {"op": "store_field", "base": "b", "field": "slot", "source": "g"},
                {"op": "load_field", "target": "g", "base": "b", "field": "slot"},
            ]
        body.append({"op": "invoke", "kind": "virtual", "method": f"{node}#visit()",
                     "receiver": "g"})
        classes.append(klass(f"rnd.W{w}", [method("work", body, static=True)]))
    callbacks = ["onCreate", "callback1", "callback2"]
    bodies = {cb: [] for cb in callbacks}
    bodies["onCreate"] = [{"op": "new", "target": "box", "type": "rnd.Box"},
                          {"op": "store_static", "field": box, "source": "box"}]
    for w in range(workers):
        bodies[rng.choice(callbacks)].append(
            {"op": "invoke", "kind": "static", "method": f"rnd.W{w}#work()"})
    classes.append(klass("rnd.Host", [method(cb, bodies[cb]) for cb in callbacks],
                         super_="android.app.Activity"))
    return app_from_dict({
        "name": f"heap-{seed}-{workers}x{allocs}",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": classes,
    })


def ladder_app(levels: int):
    """``levels`` levels of two static methods, rnd.Ladder#L{i} and R{i},
    each calling both methods of the next level; both methods of the last
    level open the camera, and one Activity's onCreate calls L0. Each of
    the two sensitives has 2**(levels - 1) call paths of ``levels + 1``
    nodes."""

    def calls(*targets):
        return [{"op": "invoke", "kind": "static", "method": t} for t in targets]

    methods = []
    for i in range(levels):
        below = (f"rnd.Ladder#L{i + 1}()", f"rnd.Ladder#R{i + 1}()")
        body = calls(*below) if i + 1 < levels else calls("android.hardware.Camera#open()")
        methods += [{"name": f"{side}{i}", "static": True, "body": body} for side in "LR"]
    return app_from_dict({
        "name": f"ladder-{levels}",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "rnd.Host", "super": "android.app.Activity",
             "methods": [{"name": "onCreate", "body": calls("rnd.Ladder#L0()")}]},
            {"name": "rnd.Ladder", "methods": methods},
        ],
    })
