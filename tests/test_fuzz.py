"""Seeded mutations of valid inputs never end in a traceback: ``cli.run``
returns 0, or 1 with a message, for every mutated app, spec and config."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from permplace.cli import run
from randprog import gen_app, to_dict

# values a mutation writes over a key: each JSON type, empty and negative
# values, and a well-formed signature that names nothing
VALUES = (None, 7, -1, True, "", "x", "no.Such#sig()", ["x"], [7], {})
MUTATIONS = ("delete", "set", "unknown-key", "self-super", "stray-interface")
TARGETS = ("threads", "viewstub", "parametric", "randprog", "spec", "config")
CONFIG = {
    "framework_prefixes": ["android.", "com.google.android."],
    "async_excludes": ["java.lang.Thread", "java.lang.Runnable"],
    "permission_constant_class": "android.Manifest$permission",
}


@pytest.fixture(scope="module")
def inputs(fixtures_dir, tmp_path_factory):
    def load(name):
        return json.loads((fixtures_dir / name).read_text(encoding="utf-8"))

    docs = {name: load(f"{name}.app.json") for name in TARGETS[:3]}
    docs["randprog"] = to_dict(gen_app(7))
    docs["spec"] = load("fixture.spec.json")
    docs["config"] = CONFIG
    return docs, tmp_path_factory.mktemp("fuzz"), str(fixtures_dir / "framework.json")


def objects(doc):
    """Every JSON object inside ``doc``, ``doc`` included."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.append(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


def mutate(data, doc):
    doc = copy.deepcopy(doc)
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    classes = [o for o in objects(doc) if "methods" in o and type(o.get("name")) is str]
    if kind in ("self-super", "stray-interface") and classes:
        cls = data.draw(st.sampled_from(classes), label="class")
        if kind == "self-super":
            cls["super"] = cls["name"]
        else:
            other = data.draw(st.sampled_from(classes), label="interface")
            cls["interfaces"] = [*cls.get("interfaces", []), other["name"]]
        return doc
    node = data.draw(st.sampled_from(objects(doc)), label="object")
    if kind == "unknown-key" or not node:
        node["interface"] = ["x"]
        return doc
    key = data.draw(st.sampled_from(sorted(node)), label="key")
    if kind == "delete":
        del node[key]
    else:
        node[key] = data.draw(st.sampled_from(VALUES), label="value")
    return doc


@settings(max_examples=150)
@given(st.data())
def test_mutated_inputs_exit_0_or_1(inputs, data):
    docs, tmp, framework = inputs
    target = data.draw(st.sampled_from(TARGETS), label="target")
    files = {}
    for name in ("app", "spec", "config"):
        source = target if name == "app" and target in TARGETS[:4] else name
        doc = docs.get(source, docs["threads"])
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(mutate(data, doc) if source == target else doc))
    argv = [
        "analyze", str(files["app"]), "--spec", str(files["spec"]),
        "--framework", framework, "--config", str(files["config"]), "--max-paths", "2",
    ]
    assert run(argv) in (0, 1)
