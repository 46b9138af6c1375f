"""Valid but extreme inputs: long assign chains, deep static call chains and
deep class hierarchies. Each must run to completion through the CLI at the
interpreter's default recursion limit, so no analysis may recurse once per
statement, call level or superclass, and the class hierarchy may not store
what grows with the square of its depth."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from permplace.cli import run
from randprog import app_json, ladder_app

ACTIVITY = "android.app.Activity"
LOCATION = "android.location.LocationManager#getLastKnownLocation(java.lang.String)"
INTENT_INIT = "android.content.Intent#<init>(java.lang.String)"
CAMERA_OPEN = "android.hardware.Camera#open()"


def _app(name, classes):
    return {"name": name, "manifest": {"targetApi": 23, "permissions": []}, "classes": classes}


def _method(name, body, static=False):
    return {"name": name, "params": [], "returnType": "void", "static": static, "body": body}


def _activity(name, body):
    return {"name": name, "kind": "class", "super": ACTIVITY, "methods": [_method("onCreate", body)]}


def assign_chain_app(n, cycle=False):
    """onCreate copies a LocationManager and a protected field value through
    ``n`` assigns each, then calls getLastKnownLocation on the one and
    passes the other to ``Intent#<init>(String)``. With ``cycle``, two last
    assigns close each chain into a cycle of ``n + 1`` locals."""
    body = [
        {"op": "new", "target": "l0", "type": "android.location.LocationManager"},
        {"op": "load_static", "target": "c0", "field": "android.provider.Contacts#SENSITIVE_FIELD"},
    ]
    for i in range(1, n + 1):
        body.append({"op": "assign", "target": f"l{i}", "source": f"l{i - 1}"})
        body.append({"op": "assign", "target": f"c{i}", "source": f"c{i - 1}"})
    body += [
        {"op": "const_str", "target": "gps", "value": "gps"},
        {"op": "invoke", "kind": "virtual", "method": LOCATION, "receiver": f"l{n}", "args": ["gps"]},
        {"op": "new", "target": "intent", "type": "android.content.Intent"},
        {"op": "invoke", "kind": "special", "method": INTENT_INIT, "receiver": "intent",
         "args": [f"c{n}"]},
    ]
    if cycle:
        body += [{"op": "assign", "target": f"{v}0", "source": f"{v}{n}"} for v in "lc"]
    return _app("assignchain", [_activity("app.Chain", body)])


def call_chain_app(n):
    """onCreate calls static m0, each m{i} calls m{i+1}, and the last one
    opens the camera."""
    methods = [
        _method(f"m{i}", [{"op": "invoke", "kind": "static", "method": f"app.Calls#m{i + 1}()"}],
                static=True)
        for i in range(n - 1)
    ]
    methods.append(_method(f"m{n - 1}", [{"op": "invoke", "kind": "static", "method": CAMERA_OPEN}],
                           static=True))
    host = _activity("app.Host", [{"op": "invoke", "kind": "static", "method": "app.Calls#m0()"}])
    return _app("callchain", [host, {"name": "app.Calls", "kind": "class", "methods": methods}])


def class_chain_app(n):
    """app.C0000 extends app.C0001 ... extends app.C{n-1} extends Activity.
    Names sort deepest class first, so closing the first name visits the
    whole chain; only the deepest class declares a method."""
    classes = [
        {"name": f"app.C{i:04d}", "kind": "class", "methods": [],
         "super": f"app.C{i + 1:04d}" if i + 1 < n else ACTIVITY}
        for i in range(n)
    ]
    classes[0]["methods"] = [_method("onCreate", [
        {"op": "invoke", "kind": "static", "method": CAMERA_OPEN},
    ])]
    return _app("classchain", classes)


@pytest.fixture
def write_app(tmp_path):
    """Writes an app model into a directory of its own, usable as a corpus."""

    def write(app):
        path = tmp_path / "apps" / f"{app['name']}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(app), encoding="utf-8")
        return path

    return write


@pytest.fixture(scope="module")
def common(fixtures_dir):
    return [
        "--spec", str(fixtures_dir / "fixture.spec.json"),
        "--framework", str(fixtures_dir / "framework.json"),
    ]


def _detected(report_path):
    report = json.loads(report_path.read_text())
    return {
        s["site"]
        for cb in report["callbacks"]
        for ip in cb["insertionPoints"]
        for s in ip["sensitives"]
    }


@pytest.mark.parametrize("extra", [[], ["--cfa", "0"]], ids=["cfa1", "cfa0"])
def test_assign_chain_analyze(write_app, common, tmp_path, extra):
    n = 3000
    app = write_app(assign_chain_app(n))
    out = tmp_path / "report.json"
    assert run(["analyze", str(app), *common, *extra, "-o", str(out)]) == 0
    on_create = "app.Chain#onCreate()"
    location_site = 2 + 2 * n + 1
    assert _detected(out) == {f"{on_create}/{location_site}", f"{on_create}/{location_site + 2}"}


@pytest.mark.parametrize("extra", [[], ["--cfa", "0"]], ids=["cfa1", "cfa0"])
def test_assign_cycle_analyze(write_app, common, tmp_path, extra):
    # the solver finds the copy cycles of each method it reaches; one of
    # 3,001 locals must not exhaust the recursion limit
    n = 3000
    app = write_app(assign_chain_app(n, cycle=True))
    out = tmp_path / "report.json"
    assert run(["analyze", str(app), *common, *extra, "-o", str(out)]) == 0
    on_create = "app.Chain#onCreate()"
    location_site = 2 + 2 * n + 1
    assert _detected(out) == {f"{on_create}/{location_site}", f"{on_create}/{location_site + 2}"}


def test_ladder_analyze_within_seconds(tmp_path, common):
    # 2**39 call paths reach each sensitive of a 40-level ladder: once both
    # have 100 paths, no walk below can add a path or a truncation, so the
    # traversal must leave them unwalked
    app = tmp_path / "ladder.json"
    app.write_text(app_json(ladder_app(40)), encoding="utf-8")
    out = tmp_path / "report.json"
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    proc = subprocess.run(
        [sys.executable, "-m", "permplace.cli", "analyze", str(app), *common, "-o", str(out)],
        capture_output=True, text=True, timeout=5,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    sensitives = [s for cb in report["callbacks"] for ip in cb["insertionPoints"]
                  for s in ip["sensitives"]]
    assert report["summary"]["paths"] == 200
    assert len(sensitives) == 2 and all(s["truncated"] for s in sensitives)


def test_assign_chain_collect(write_app, common, tmp_path, fixtures_dir):
    corpus = write_app(assign_chain_app(3000)).parent
    out = tmp_path / "usage.csv"
    groups = str(fixtures_dir / "groups.json")
    assert run(["collect", str(corpus), *common, "--groups", groups, "-o", str(out)]) == 0
    labels = {row["permission"]: row["label"] for row in csv.DictReader(io.StringIO(out.read_text()))}
    assert labels == {
        "android.permission.ACCESS_FINE_LOCATION": "S",
        "android.permission.READ_CONTACTS": "S",
    }


def test_static_call_chain(write_app, common, tmp_path):
    n = 1500
    app = write_app(call_chain_app(n))
    assert run(["analyze", str(app), *common, "-o", str(tmp_path / "report.json")]) == 0
    out = tmp_path / "reach.json"
    assert run(["cha-reach", str(app), *common, "-o", str(out)]) == 0
    partition = json.loads(out.read_text())
    # --max-depth (default 50) stops the traversal long before the camera
    assert [s["site"] for s in partition["cha_reachable_undetected"]] == [
        f"app.Calls#m{n - 1}()/0"
    ]
    assert partition["detected"] == []
    deep = tmp_path / "deep.json"
    assert run(["analyze", str(app), *common, "--max-depth", "2000", "-o", str(deep)]) == 0
    assert _detected(deep) == {f"app.Calls#m{n - 1}()/0"}


def test_deep_class_chain(write_app, common, tmp_path):
    app = write_app(class_chain_app(1500))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert run(["analyze", str(app), *common, "-o", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _detected(out) == {"app.C0000#onCreate()/0"}
    # stored supertype/subtype closures of this chain take about 270 MB
    assert peak < 16 * 2**20, f"analyze peaked at {peak / 2**20:.1f} MB"
