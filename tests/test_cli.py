import contextlib
import gc
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from permplace import cli
from permplace.cli import _load_config, build_parser, run
from permplace.model import LinkConfig
from test_model import MALFORMED_SIGS

FIXED_ARGS = None  # populated per-test via helpers


@pytest.fixture(scope="module")
def paths(fixtures_dir):
    return {
        "threads": str(fixtures_dir / "threads.app.json"),
        "viewstub": str(fixtures_dir / "viewstub.app.json"),
        "framework": str(fixtures_dir / "framework.json"),
        "spec": str(fixtures_dir / "fixture.spec.json"),
        "groups": str(fixtures_dir / "groups.json"),
        "corpus": str(fixtures_dir / "corpus"),
        "ident": str(fixtures_dir / "ident_table.json"),
    }


def analyze_args(paths, app="threads", extra=()):
    return [
        "analyze",
        paths[app],
        "--spec",
        paths["spec"],
        "--framework",
        paths["framework"],
        *extra,
    ]


def test_analyze_exit_zero(paths, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(analyze_args(paths, extra=["-o", str(out)])) == 0
    payload = json.loads(out.read_text())
    assert payload["app"] == "threads"
    assert payload["mode"] == "cfa1"
    assert [cb["method"] for cb in payload["callbacks"]] == ["app.Host#callback1()"]


def test_analyze_stdout_default(paths, capsys):
    assert run(analyze_args(paths)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["sensitivesDetected"] == 1


def test_analyze_cfa0(paths, tmp_path):
    out = tmp_path / "r.json"
    assert run(analyze_args(paths, extra=["--cfa", "0", "-o", str(out)])) == 0
    payload = json.loads(out.read_text())
    assert len(payload["callbacks"]) == 2


def test_analyze_text_format(paths, capsys):
    assert run(analyze_args(paths, extra=["--format", "text"])) == 0
    text = capsys.readouterr().out
    assert "insert request at stmt 3" in text


def test_analyze_deterministic(paths, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(analyze_args(paths, extra=["-o", str(a)])) == 0
    assert run(analyze_args(paths, extra=["-o", str(b)])) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_no_augment_changes_viewstub(paths, tmp_path):
    with_aug = tmp_path / "aug.json"
    without = tmp_path / "noaug.json"
    assert run(analyze_args(paths, app="viewstub", extra=["-o", str(with_aug)])) == 0
    assert (
        run(analyze_args(paths, app="viewstub", extra=["--no-augment", "-o", str(without)])) == 0
    )
    assert json.loads(with_aug.read_text())["summary"]["sensitivesDetected"] == 1
    assert json.loads(without.read_text())["summary"]["sensitivesDetected"] == 0


def test_analyze_dump_callgraph(paths, tmp_path):
    out = tmp_path / "r.json"
    cg = tmp_path / "cg.json"
    assert run(analyze_args(paths, extra=["-o", str(out), "--dump-callgraph", str(cg)])) == 0
    edges = json.loads(cg.read_text())
    assert any(e["provenance"] == "entry" for e in edges)
    assert all(set(e) == {"site", "target", "provenance"} for e in edges)


def stdlib_json(data: bytes) -> bytes:
    return (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("app", ["threads", "viewstub"])
def test_json_outputs_match_stdlib(paths, tmp_path, app):
    report, cg, part = tmp_path / "r.json", tmp_path / "cg.json", tmp_path / "part.json"
    assert run(analyze_args(paths, app, extra=["-o", str(report), "--dump-callgraph", str(cg)])) == 0
    argv = ["cha-reach", paths[app], "--spec", paths["spec"], "--framework", paths["framework"]]
    assert run([*argv, "-o", str(part)]) == 0
    for out in (report, cg, part):
        assert out.read_bytes() == stdlib_json(out.read_bytes()), out.name


def test_bad_cfa_value_is_usage_error(paths, capsys):
    assert run(analyze_args(paths, extra=["--cfa", "2"])) == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", "--max-depth"),
        ("analyze", "--max-paths"),
        ("analyze", "--augment-passes"),
        ("cha-reach", "--augment-passes"),
    ],
)
def test_negative_cap_is_usage_error(paths, capsys, command, flag):
    argv = [command, *analyze_args(paths)[1:]]
    assert run([*argv, flag, "-1"]) == 2
    assert f"argument {flag}: must be a non-negative integer" in capsys.readouterr().err
    assert run([*argv, flag, "0"]) == 0


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_app_file_is_input_error(paths, capsys):
    assert run(analyze_args({**paths, "threads": "/no/such/file.json"})) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_app_is_input_error(tmp_path, paths, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", str(bad), "--spec", paths["spec"]]) == 1


@pytest.mark.parametrize("sig", MALFORMED_SIGS)
def test_malformed_signature_is_input_error(tmp_path, paths, capsys, sig):
    app = tmp_path / "app.json"
    invoke = {"op": "invoke", "kind": "static", "method": sig}
    app.write_text(json.dumps({
        "name": "t",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [{"name": "A", "methods": [{"name": "f", "body": [invoke]}]}],
    }))
    assert run(analyze_args({**paths, "threads": str(app)})) == 1
    err = capsys.readouterr().err
    assert f"{app}.classes.A.f[0]: malformed method signature" in err
    assert "Traceback" not in err
    spec = tmp_path / "bad.spec.json"
    spec.write_text(json.dumps([{"kind": "method", "key": sig, "permissions": ["p"]}]))
    assert run(["spec", "validate", str(spec)]) == 1
    err = capsys.readouterr().err
    assert f"{spec}[0]: malformed method signature" in err
    assert "Traceback" not in err


def test_deeply_nested_json_is_input_error(tmp_path, paths, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["analyze", str(bad), "--spec", paths["spec"]]) == 1
    assert f"error: {bad}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, locus",
    [
        ({"super": ["B"]}, "classes.A: super"),
        ({"interfaces": [["I"]]}, "classes.A: interfaces"),
        ({"interfaces": None}, "classes.A: interfaces"),
        ({"interfaces": "IJ"}, "classes.A: interfaces"),
        ({"methods": [{"name": "f", "body": [{"op": "assign", "target": "a", "source": 7}]}]},
         "classes.A.f[0]: source"),
        ({"methods": [{"name": "f", "params": None}]}, "classes.A.f: params"),
        ({"methods": [{"name": "f", "static": 1}]}, "classes.A.f: static"),
        ({"fields": [{"name": "F", "type": ["T"]}]}, "classes.A.F: type"),
        ({"manifest": {"permissions": "android.permission.CAMERA"}}, "manifest: permissions"),
        ({"manifest": {"targetApi": "23"}}, "manifest: targetApi"),
    ],
    ids=[
        "super-list", "interface-list", "interfaces-null", "interfaces-string", "stmt-source",
        "method-params", "method-static", "field-type", "manifest-permissions", "manifest-api",
    ],
)
def test_bad_supertype_fields_are_input_errors(tmp_path, paths, capsys, bad, locus):
    app = tmp_path / "bad.json"
    cls = {"name": "A", "methods": [], **bad}
    doc = {"name": "t", "manifest": cls.pop("manifest", {}), "classes": [cls]}
    app.write_text(json.dumps(doc))
    assert run(analyze_args({**paths, "threads": str(app)})) == 1
    assert f"{app}.{locus} must be" in capsys.readouterr().err


def test_unknown_key_is_input_error(tmp_path, paths, capsys):
    app = tmp_path / "bad.json"
    classes = [{"name": "A", "interface": ["I"], "methods": []}]
    app.write_text(json.dumps({"name": "t", "manifest": {}, "classes": classes}))
    assert run(analyze_args({**paths, "threads": str(app)})) == 1
    assert f"{app}.classes.A: unknown key 'interface'" in capsys.readouterr().err


def test_config_file_sets_link_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"framework_prefixes": ["org.fw."]}))
    args = build_parser().parse_args(["analyze", "app.json", "--config", str(config)])
    loaded = _load_config(args)
    assert loaded.framework_prefixes == ("org.fw.",)
    assert loaded.async_excludes == LinkConfig().async_excludes
    args = build_parser().parse_args(
        ["analyze", "app.json", "--config", str(config), "--framework-prefixes", "a.,b."]
    )
    assert _load_config(args).framework_prefixes == ("a.", "b.")


@pytest.mark.parametrize(
    "text",
    ["[]", '{"framework_prefixes": "android."}', '{"framework_prefix": ["android."]}', "{nope"],
    ids=["list", "string-prefixes", "unknown-key", "not-json"],
)
def test_bad_config_is_input_error(tmp_path, paths, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run(analyze_args(paths, extra=["--config", str(path)])) == 1
    assert f"error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, rows",
    [
        ("groups", [7]),
        ("groups", [{"permission": "p", "group": "g", "dangerous": "yes"}]),
        (
            "groups",
            [
                {"permission": "CAMERA", "group": "camera", "dangerous": True},
                {"permission": "CAMERA", "group": "location", "dangerous": False},
            ],
        ),
        ("ident", {"CAMERA": {"unique": True}}),
        ("ident", [{"permission": "p"}]),
    ],
    ids=[
        "group-row-int",
        "group-dangerous-string",
        "group-duplicate-permission",
        "ident-no-permission",
        "ident-list",
    ],
)
def test_bad_side_table_is_input_error(tmp_path, paths, capsys, table, rows):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(rows))
    if table == "groups":
        argv = analyze_args(paths, extra=["--dangerous-only", "--groups", str(path)])
    else:
        argv = ["mine-doc", paths["framework"], "--ident-table", str(path)]
    assert run(argv) == 1
    assert f"error: {path}" in capsys.readouterr().err


def test_dangerous_only_requires_groups(paths, capsys):
    assert run(analyze_args(paths, extra=["--dangerous-only"])) == 1


def test_collect(paths, tmp_path):
    out = tmp_path / "usage.csv"
    summary = tmp_path / "summary.json"
    code = run(
        [
            "collect",
            paths["corpus"],
            "--spec",
            paths["spec"],
            "--groups",
            paths["groups"],
            "--framework",
            paths["framework"],
            "-o",
            str(out),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "app,permission,label,group,sites"
    assert len(lines) == 7  # five apps, six (app, permission) rows
    data = json.loads(summary.read_text())
    assert summary.read_bytes() == stdlib_json(summary.read_bytes())
    assert data["apps"] == 5
    assert data["coverage"]["percent"] == 67


def test_collect_empty_dir_is_input_error(tmp_path, paths):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(["collect", str(empty), "--spec", paths["spec"]]) == 1


def test_cha_reach(paths, tmp_path):
    out = tmp_path / "part.json"
    code = run(
        [
            "cha-reach",
            paths["viewstub"],
            "--spec",
            paths["spec"],
            "--framework",
            paths["framework"],
            "--no-augment",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    part = json.loads(out.read_text())
    assert [s["site"] for s in part["cha_reachable_undetected"]] == [
        "app.MyView#callSensitive()/4"
    ]
    assert part["detected"] == []


# an app interface that extends a framework listener and declares a bodied
# listener method making a sensitive call
LISTENER_INTERFACE_APP = {"name": "iface", "manifest": {}, "classes": [
    {"name": "app.L", "kind": "interface", "super": "android.location.LocationListener",
     "methods": [{"name": "onLocationChanged", "params": ["android.location.Location"], "body": [
         {"op": "new", "target": "m", "type": "android.location.LocationManager"},
         {"op": "const_str", "target": "s", "value": "gps"},
         {"op": "invoke", "kind": "virtual", "receiver": "m", "args": ["s"], "target": "r",
          "method": "android.location.LocationManager#getLastKnownLocation(java.lang.String)"}]}]},
]}


def test_interface_is_never_a_callback_host(paths, tmp_path):
    """The dummy main allocates each host, which an interface cannot be: its
    sensitive is unreachable, not detected, and cha-reach agrees."""
    app = tmp_path / "iface.app.json"
    app.write_text(json.dumps(LISTENER_INTERFACE_APP))
    out = tmp_path / "out.json"
    argv = [str(app), "--spec", paths["spec"], "--framework", paths["framework"], "-o", str(out)]
    assert run(["analyze", *argv]) == 0
    assert json.loads(out.read_text())["callbacks"] == []
    assert run(["cha-reach", *argv]) == 0
    assert json.loads(out.read_text()) == {
        "unreachable": [{
            "site": "app.L#onLocationChanged(android.location.Location)/2",
            "kind": "method",
            "permissions": ["android.permission.ACCESS_FINE_LOCATION"],
        }],
        "cha_reachable_undetected": [],
        "detected": [],
    }


# an app interface with a bodied method making a sensitive call, allocated
# by a ``new`` and called through an interface invoke
NEW_INTERFACE_APP = {"name": "inew", "manifest": {}, "classes": [
    {"name": "app.L", "kind": "interface", "methods": [{"name": "m", "body": [
        {"op": "new", "target": "lm", "type": "android.location.LocationManager"},
        {"op": "const_str", "target": "s", "value": "gps"},
        {"op": "invoke", "kind": "virtual", "receiver": "lm", "args": ["s"], "target": "r",
         "method": "android.location.LocationManager#getLastKnownLocation(java.lang.String)"}]}]},
    {"name": "app.A", "super": "android.app.Activity", "methods": [{"name": "onCreate", "body": [
        {"op": "new", "target": "l", "type": "app.L"},
        {"op": "invoke", "kind": "interface", "receiver": "l", "method": "app.L#m()"}]}]},
]}


def test_allocated_interface_dispatches_nowhere(paths, tmp_path):
    """An object whose runtime type is an interface runs none of its
    methods, as CHA has it: the sensitive is unreachable, not detected."""
    app = tmp_path / "inew.app.json"
    app.write_text(json.dumps(NEW_INTERFACE_APP))
    out = tmp_path / "out.json"
    argv = [str(app), "--spec", paths["spec"], "--framework", paths["framework"], "-o", str(out)]
    for cfa in ("0", "1"):
        assert run(["analyze", *argv, "--cfa", cfa]) == 0
        report = json.loads(out.read_text())
        assert report["callbacks"] == [] and report["summary"]["sensitivesDetected"] == 0
        assert run(["cha-reach", *argv, "--cfa", cfa]) == 0
        assert json.loads(out.read_text()) == {
            "unreachable": [{
                "site": "app.L#m()/2",
                "kind": "method",
                "permissions": ["android.permission.ACCESS_FINE_LOCATION"],
            }],
            "cha_reachable_undetected": [],
            "detected": [],
        }


def test_outputs_never_hold_a_record(monkeypatch, capsys, tmp_path):
    """The JSON writer renders any tuple as a list, so a record (a
    NamedTuple) reaching a report or output would be written silently as
    the list of its fields. No command of the table hands it one."""
    from permplace import analysis
    from permplace.model import SiteId
    from test_no_cycles import COMMANDS, resolve, write_inputs

    pieces = analysis._indented_pieces
    written = []

    def checked(value, depth=0):
        seen, work = set(), [value]
        while work:
            v = work.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            assert not hasattr(type(v), "_fields"), f"a record is written: {v!r}"
            if isinstance(v, dict):
                work += v.values()
            elif isinstance(v, (list, tuple)):
                work += v
        written.append(value)
        return pieces(value, depth)

    monkeypatch.setattr(analysis, "_indented_pieces", checked)
    with pytest.raises(AssertionError, match="a record is written"):
        analysis.write_json({"sites": [SiteId("A#f()", 0)]})
    written.clear()
    files = write_inputs(tmp_path)
    for argv in COMMANDS.values():
        assert run(resolve(files, argv)) == 0, argv
    capsys.readouterr()
    assert len(written) > len(COMMANDS)


@pytest.mark.parametrize("command, flag", [
    ("mine-doc", "--spec"), ("mine-doc", "--groups"), ("compare-specs", "--spec"),
    ("cha-reach", "--groups"),
])
def test_flag_the_command_does_not_read_is_usage_error(paths, capsys, command, flag):
    argv = {
        "mine-doc": [paths["framework"], "--ident-table", paths["ident"]],
        "compare-specs": [paths["corpus"], "--spec-a", paths["spec"], "--spec-b", paths["spec"]],
        "cha-reach": [paths["viewstub"], "--spec", paths["spec"]],
    }[command]
    assert run([command, *argv, flag, "/no/such.json"]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("permplace") and "error: " in last and flag in last


def test_compare_specs(paths, tmp_path):
    out = tmp_path / "cmp.json"
    code = run(
        [
            "compare-specs",
            paths["corpus"],
            "--spec-a",
            paths["spec"],
            "--spec-b",
            paths["spec"],
            "--framework",
            paths["framework"],
            "--groups",
            paths["groups"],
            "-o",
            str(out),
        ]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert out.read_bytes() == stdlib_json(out.read_bytes())
    assert result["a"] == result["b"]
    assert result["diff"]["unique_to_a"] == []


def test_mine_doc(paths, tmp_path):
    out = tmp_path / "cands.csv"
    code = run(
        [
            "mine-doc",
            paths["framework"],
            "--ident-table",
            paths["ident"],
            "-o",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("element,permission,unique,needs_expansion,snippet")
    assert "android.location.LocationManager#getLastKnownLocation" in text


def test_spec_validate_ok(paths, capsys):
    assert run(["spec", "validate", paths["spec"]]) == 0
    assert "7 entries, OK" in capsys.readouterr().err


def test_spec_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.spec.json"
    bad.write_text(json.dumps([{"kind": "method", "key": "A#f()", "permissions": []}]))
    assert run(["spec", "validate", str(bad)]) == 1


@pytest.mark.parametrize(
    "entry",
    [
        {"kind": "method", "key": "A#f()", "permissions": "android.permission.CAMERA"},
        {"kind": "parametric", "key": "A#f(T)", "argIndex": "x", "permissions": ["p"]},
        {"kind": "parametric", "key": "A#f(T)", "argIndex": -1, "permissions": ["p"]},
        {"kind": "method", "key": "A#f(T,U)", "argIndex": [0, 1], "permissions": ["p"]},
    ],
    ids=["permissions-string", "arg-index-string", "arg-index-negative", "method-arg-indices"],
)
def test_spec_validate_rejects_mistyped_entry(tmp_path, capsys, entry):
    bad = tmp_path / "bad.spec.json"
    bad.write_text(json.dumps([entry]))
    assert run(["spec", "validate", str(bad)]) == 1
    assert f"{bad}[0]: " in capsys.readouterr().err


def test_spec_merge(paths, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "merged.json"
    a.write_text(
        json.dumps([{"kind": "method", "key": "A#f()", "permissions": ["android.permission.CAMERA"]}])
    )
    b.write_text(
        json.dumps([{"kind": "method", "key": "A#g()", "permissions": ["android.permission.CAMERA"]}])
    )
    assert run(["spec", "merge", str(a), str(b), "-o", str(out)]) == 0
    merged = json.loads(out.read_text())
    assert {e["key"] for e in merged} == {"A#f()", "A#g()"}
    assert out.read_bytes() == stdlib_json(out.read_bytes())


def test_spec_merge_counts_shared_and_own_keys(tmp_path, capsys):
    def entry(key):
        return {"kind": "method", "key": key, "permissions": ["android.permission.CAMERA"]}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([entry(k) for k in ("A#f()", "A#g()", "A#h()")]))
    b.write_text(json.dumps([entry(k) for k in ("A#g()", "A#h()", "A#i()", "A#j()")]))
    assert run(["spec", "merge", str(a), str(b), "-o", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().err == "merged: 5 entries (common 2, a-only 1, b-only 2)\n"


def test_spec_merge_conflict_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(
        json.dumps([{"kind": "method", "key": "A#f()", "permissions": ["android.permission.CAMERA"]}])
    )
    b.write_text(
        json.dumps(
            [{"kind": "method", "key": "A#f()", "permissions": ["android.permission.RECORD_AUDIO"]}]
        )
    )
    assert run(["spec", "merge", str(a), str(b)]) == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_append_defaults_are_not_shared_across_runs(paths, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "analyze", lambda args: seen.append(args) or 0)
    assert run(analyze_args(paths)) == 0
    assert run(["analyze", paths["threads"]]) == 0
    assert seen[0].spec == [paths["spec"]]
    assert seen[0].framework == [paths["framework"]]
    assert seen[1].spec == [] and seen[1].framework == []


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Runs the test with the collector on or off, and restores it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "argv, code",
    [(None, 0), (["analyze", "/no/such/file.json"], 1), (["analyze", "--cfa", "2"], 2)],
    ids=["ok", "input-error", "usage-error"],
)
def test_run_leaves_collector_as_found(paths, capsys, collector, argv, code):
    assert run(argv or analyze_args(paths)) == code
    assert gc.isenabled() is collector


def test_run_leaves_collector_as_found_when_command_raises(paths, monkeypatch, collector):
    during = []

    def command(args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "analyze", command)
    with pytest.raises(RuntimeError, match="boom"):
        run(analyze_args(paths))
    assert during == [False]  # paused while the command runs
    assert gc.isenabled() is collector


def test_console_script_installed(tmp_path):
    """The declared ``permplace`` console script runs and lists its commands.

    Builds the launcher that pip writes into ``bin/`` for the entry point
    declared in ``pyproject.toml``, so no install is needed.
    """
    import os
    import subprocess
    import sys
    from importlib.metadata import EntryPoint
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["permplace"]
    ep = EntryPoint(name="permplace", value=value, group="console_scripts")
    launcher = tmp_path / "permplace"
    launcher.write_text(
        "import re\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({ep.attr}())\n"
    )
    pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, str(launcher), "--help"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: permplace")
    assert "analyze" in proc.stdout


def non_ascii_command(paths, tmp_path, command) -> tuple:
    """The argv of ``command`` on an app whose output has non-ASCII text,
    and that text."""
    if command == "collect":
        app = json.loads(Path(paths["corpus"], "alpha.json").read_text(encoding="utf-8"))
        app["name"] = "café"
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "cafe.json").write_text(json.dumps(app), encoding="utf-8")
        return ["collect", str(corpus), "--spec", paths["spec"], "--groups", paths["groups"],
                "--framework", paths["framework"]], "café"
    text = Path(paths["threads"]).read_text(encoding="utf-8").replace("app.Host", "app.Ünï")
    app_path = tmp_path / "app.json"
    app_path.write_text(text, encoding="utf-8")
    return ["analyze", str(app_path), "--spec", paths["spec"], "--framework", paths["framework"],
            "--format", "text"], "app.Ünï"


@pytest.mark.parametrize("command", ["collect", "analyze"])
def test_stdout_gets_output_bytes_it_cannot_encode(paths, tmp_path, command):
    """Stdout gets the bytes ``-o`` writes, even where its text layer is
    ASCII-only."""
    argv, text = non_ascii_command(paths, tmp_path, command)
    root = Path(__file__).resolve().parents[1]
    pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": os.pathsep.join(pythonpath)}

    def permplace(*args):
        return subprocess.run([sys.executable, "-m", "permplace.cli", *args],
                              capture_output=True, env=env, cwd=tmp_path)

    to_stdout = permplace(*argv)
    assert to_stdout.returncode == 0, to_stdout.stderr.decode()
    out = tmp_path / "out"
    to_file = permplace(*argv, "-o", str(out))
    assert to_file.returncode == 0, to_file.stderr.decode()
    assert to_stdout.stdout == out.read_bytes()
    assert text.encode("utf-8") in to_stdout.stdout


# ---------------------------------------------------------------------------
# corpus commands split across CPUs


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_corpus(root, name, apps) -> str:
    """A corpus directory ``root/name`` of file name -> app: a file to copy,
    a dict to write as JSON or the text itself."""
    corpus = root / name
    corpus.mkdir()
    for file_name, app in apps.items():
        text = (app.read_text() if isinstance(app, Path)
                else json.dumps(app) if isinstance(app, dict) else app)
        (corpus / file_name).write_text(text, encoding="utf-8")
    return str(corpus)


@pytest.fixture(scope="module")
def corpora(fixtures_dir, workloads, tmp_path_factory):
    """Name -> corpus directory; "camera-spec" is a second spec for
    compare-specs."""
    root = tmp_path_factory.mktemp("corpora")
    fixtures = {p.name: p for p in sorted((fixtures_dir / "corpus").glob("*.json"))}
    charlie = json.loads(fixtures["charlie.json"].read_text())

    def missing_super(name):
        return {"name": "t", "manifest": {},
                "classes": [{"name": "A", "super": name, "methods": []}]}

    # malformed apps that sort first, fourth and last among the fixtures
    first = {"aa.json": missing_super("missing.First")}
    middle = {"corrupt.json": "{"}
    last = {"zz.json": missing_super("missing.Last")}
    camera = root / "camera.spec.json"
    camera.write_text(json.dumps([{"kind": "method", "key": "android.hardware.Camera#open()",
                                   "permissions": ["android.permission.CAMERA"]}]))
    return {
        "camera-spec": str(camera),
        "fixtures": str(fixtures_dir / "corpus"),
        "corpus-audit-0": write_corpus(root, "corpus-audit-0", {
            f"{a['name']}.json": a for a in workloads.instance("corpus-audit/0").apps}),
        # files 1 and 2 carry one app name: outputs sort by name, ties in file order
        "same-name": write_corpus(root, "same-name", {
            **fixtures, "bravo2.json": {**charlie, "name": "bravo"}}),
        "bad-first": write_corpus(root, "bad-first", {**fixtures, **first}),
        "bad-middle": write_corpus(root, "bad-middle", {**fixtures, **middle}),
        "bad-last": write_corpus(root, "bad-last", {**fixtures, **last}),
        "bad-middle-and-last": write_corpus(root, "bad-middle-and-last",
                                            {**fixtures, **middle, **last}),
    }


def corpus_run(paths, tmp_path, capsys, command, corpus, spec_b=None) -> tuple:
    """(exit code, stderr, output bytes) of one corpus command; a missing
    output file reads as None."""
    outputs = [tmp_path / "out", tmp_path / "summary.json"]
    for path in outputs:
        path.unlink(missing_ok=True)
    argv = [command, corpus, "--framework", paths["framework"], "--groups", paths["groups"],
            "-o", str(outputs[0])]
    if command == "collect":
        argv += ["--spec", paths["spec"], "--summary", str(outputs[1])]
    else:
        argv += ["--spec-a", paths["spec"], "--spec-b", spec_b]
    capsys.readouterr()
    with deadline(60):
        code = run(argv)
    err = capsys.readouterr().err
    return code, err, [p.read_bytes() if p.exists() else None for p in outputs]


@pytest.mark.parametrize("command", ["collect", "compare-specs"])
@pytest.mark.parametrize("name, error", [
    ("fixtures", None), ("corpus-audit-0", None), ("same-name", None),
    ("bad-first", "missing.First"), ("bad-middle", "corrupt.json"), ("bad-last", "missing.Last"),
    ("bad-middle-and-last", "corrupt.json"),
])
def test_corpus_output_does_not_depend_on_share_count(
    paths, corpora, tmp_path, capsys, monkeypatch, command, name, error
):
    runs = {}
    for cpus in (1, 2, 5):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        runs[cpus] = corpus_run(paths, tmp_path, capsys, command, corpora[name],
                                corpora["camera-spec"])
        assert_no_children()
    assert runs[2] == runs[1] and runs[5] == runs[1]
    code, err, outputs = runs[1]
    if error:
        assert (code, outputs) == (1, [None, None])
        assert err.startswith("permplace: error: ") and error in err
    else:
        assert (code, err) == (0, "") and outputs[0]


@pytest.mark.parametrize("bad", ["alpha", "bravo"], ids=["parent-share", "child-share"])
def test_crashing_share_fails_the_run_and_leaves_no_child(
    paths, tmp_path, capsys, monkeypatch, bad
):
    """One app's collect_usage raises; every other app's result is too
    large for a pipe's buffer, so a parent that reaped before it read or
    closed would hang."""
    collect_usage = cli.collector.collect_usage

    def crash_on_bad(program, spec, hierarchy, groups=None):
        if program.name == bad:
            raise RuntimeError(f"boom in {bad}")
        usage = collect_usage(program, spec, hierarchy, groups)
        return usage._replace(sites={**usage.sites, "padding": "x" * 200_000})

    monkeypatch.setattr(cli.collector, "collect_usage", crash_on_bad)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match=f"boom in {bad}"):
        corpus_run(paths, tmp_path, capsys, "collect", paths["corpus"])
    assert_no_children()
    assert not (tmp_path / "out").exists() and not (tmp_path / "summary.json").exists()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("machine", ["no-fork", "one-cpu"])
def test_one_share_forks_nothing(paths, tmp_path, capsys, monkeypatch, machine):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    want = corpus_run(paths, tmp_path, capsys, "collect", paths["corpus"])
    monkeypatch.undo()
    if machine == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)
    assert cli._cpu_count() == 1
    assert corpus_run(paths, tmp_path, capsys, "collect", paths["corpus"]) == want
