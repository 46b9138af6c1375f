import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import detected_oracle
from permplace import pipeline
from permplace.analysis import (
    AnalysisReport,
    Limits,
    ReportPaths,
    cha_reach_partition,
    cha_reachable_methods,
    detected_sensitives,
    find_sensitive_sites,
    report_to_dict,
    traverse,
    write_json,
    write_report,
)
from permplace.errors import InconsistentInput
from permplace.model import app_from_dict
from randprog import gen_app

CB1 = "app.Host#callback1()"
CB2 = "app.Host#callback2()"


def calls(*targets):
    """A body of static invokes of ``targets``."""
    return [{"op": "invoke", "kind": "static", "method": t} for t in targets]


def run(prepared, mode, limits=Limits(), augment=True):
    return traverse(
        prepared.program,
        prepared.cg if augment else prepared.cg_raw,
        prepared.sol,
        prepared.hierarchy,
        prepared.sensitives,
        mode=mode,
        limits=limits,
        augment=augment,
    )


# -- sensitive detection ----------------------------------------------------


def test_threads_sensitive_sites(threads):
    assert [str(s.site) for s in threads.sensitives] == ["app.Host$Run1#run()/0"]
    s = threads.sensitives[0]
    assert s.kind == "method"
    assert s.permissions == frozenset({"android.permission.CAMERA"})


def test_viewstub_sensitive_resolves_stub_declaration(viewstub):
    assert [str(s.site) for s in viewstub.sensitives] == ["app.MyView#callSensitive()/4"]
    s = viewstub.sensitives[0]
    assert s.matchedKeys == (
        "android.location.LocationManager#getLastKnownLocation(java.lang.String)",
    )


def test_parametric_sensitive(parametric):
    assert [str(s.site) for s in parametric.sensitives] == ["app.Para#onCreate()/2"]
    s = parametric.sensitives[0]
    assert s.kind == "field"
    assert s.permissions == frozenset({"android.permission.READ_CONTACTS"})


def test_empty_spec_no_sensitives(threads):
    from permplace.permspec import PermissionSpec

    assert find_sensitive_sites(threads.program, threads.hierarchy, PermissionSpec(entries={})) == []


# -- traversal: precision story --------------------------------------------


def test_threads_cfa1_flags_only_callback1(threads):
    report = run(threads, "cfa1")
    assert [cb["method"] for cb in report.callbacks] == [CB1]
    (cb,) = report.callbacks
    (ip,) = cb["insertionPoints"]
    assert ip["stmt"] == 3  # the Thread#start() invocation in callback1
    assert ip["permissions"] == ["android.permission.CAMERA"]
    (s,) = ip["sensitives"]
    assert not any(p["ambiguous"] for p in s["paths"])


def test_threads_cfa0_flags_both_callbacks(threads):
    report = run(threads, "cfa0")
    assert sorted(cb["method"] for cb in report.callbacks) == [CB1, CB2]
    for cb in report.callbacks:
        for ip in cb["insertionPoints"]:
            for s in ip["sensitives"]:
                assert all(p["ambiguous"] for p in s["paths"])


def test_cfa1_detections_subset_of_cfa0(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        d1 = detected_sensitives(run(prepared, "cfa1"))
        d0 = detected_sensitives(run(prepared, "cfa0"))
        assert d1 <= d0


def test_viewstub_requires_augmentation(viewstub, viewstub_noaug):
    with_aug = run(viewstub, "cfa1")
    assert detected_sensitives(with_aug) == {"app.MyView#callSensitive()/4"}
    (cb,) = with_aug.callbacks
    assert cb["insertionPoints"][0]["stmt"] == 2  # first call toward the sensitive

    without = run(viewstub_noaug, "cfa1", augment=False)
    assert detected_sensitives(without) == set()


def test_report_says_whether_prepare_augmented(viewstub, viewstub_noaug):
    assert pipeline.analyze(viewstub, "cfa1").augment is True
    assert pipeline.analyze(viewstub_noaug, "cfa1").augment is False


def test_parametric_insertion_at_sensitive_stmt(parametric):
    report = run(parametric, "cfa1")
    (cb,) = report.callbacks
    (ip,) = cb["insertionPoints"]
    assert ip["stmt"] == 2  # sensitive sits directly in the callback body
    assert ip["permissions"] == ["android.permission.READ_CONTACTS"]


def test_summary_counts_consistent(threads):
    report = run(threads, "cfa0")
    n_sens = {
        s["site"]
        for cb in report.callbacks
        for ip in cb["insertionPoints"]
        for s in ip["sensitives"]
    }
    n_paths = sum(
        len(s["paths"])
        for cb in report.callbacks
        for ip in cb["insertionPoints"]
        for s in ip["sensitives"]
    )
    assert report.summary["sensitivesDetected"] == len(n_sens)
    assert report.summary["paths"] == n_paths
    assert report.summary["callbacksFlagged"] == len(report.callbacks)


# -- limits ----------------------------------------------------------------


def test_depth_cap_truncates_in_band(threads):
    report = run(threads, "cfa1", limits=Limits(maxDepth=1, maxPathsPerSensitive=100))
    # depth 1 never leaves the callback, so nothing is detected but no error
    assert report.callbacks == []


def test_path_cap_marks_truncated(threads):
    report = run(threads, "cfa0", limits=Limits(maxDepth=50, maxPathsPerSensitive=1))
    for cb in report.callbacks:
        for ip in cb["insertionPoints"]:
            for s in ip["sensitives"]:
                assert len(s["paths"]) <= 1


def test_every_simple_path_reaches_a_shared_callee(framework, spec):
    """onCreate calls a and b, which both call c; c opens the camera. A
    method leaves the path stack when its visit ends, so c is reached, and
    its sensitive recorded, once through each of a and b."""

    app = app_from_dict({
        "name": "diamond",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "app.Host", "super": "android.app.Activity",
             "methods": [{"name": "onCreate", "body": calls("app.U#a()", "app.U#b()")}]},
            {"name": "app.U", "methods": [
                {"name": "a", "static": True, "body": calls("app.U#c()")},
                {"name": "b", "static": True, "body": calls("app.U#c()")},
                {"name": "c", "static": True, "body": calls("android.hardware.Camera#open()")},
            ]},
        ],
    })
    prepared = pipeline.prepare(app, [framework], spec=spec)
    for mode in ("cfa0", "cfa1"):
        [cb] = run(prepared, mode).callbacks
        paths = [
            (ip["stmt"], [n["method"] for n in p["nodes"]])
            for ip in cb["insertionPoints"]
            for s in ip["sensitives"]
            for p in s["paths"]
        ]
        assert paths == [
            (0, ["app.Host#onCreate()", "app.U#a()", "app.U#c()"]),
            (1, ["app.Host#onCreate()", "app.U#b()", "app.U#c()"]),
        ]


def test_generous_limits_equal_defaults(threads):
    a = write_report(run(threads, "cfa1", limits=Limits(50, 100)))
    b = write_report(run(threads, "cfa1", limits=Limits(500, 1000)))
    assert a == b


# -- oracle cross-check -----------------------------------------------------


def test_detected_matches_enumeration_oracle(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        for mode in ("cfa0", "cfa1"):
            got = detected_sensitives(run(prepared, mode))
            want = detected_oracle(
                prepared.program,
                prepared.cg,
                prepared.sol,
                prepared.sensitives,
                mode,
            )
            assert got == want


# -- CHA partition ----------------------------------------------------------


def test_cha_reachable_superset_of_detected(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        reachable = cha_reachable_methods(prepared.program, prepared.hierarchy)
        detected = detected_sensitives(run(prepared, "cfa1"))
        for sid in detected:
            method = sid.rsplit("/", 1)[0]
            assert method in reachable


def test_viewstub_partition_shifts_with_augmentation(viewstub, viewstub_noaug):
    detected = detected_sensitives(run(viewstub, "cfa1"))
    part = cha_reach_partition(viewstub.program, viewstub.hierarchy, viewstub.sensitives, detected)
    assert [str(s.site) for s in part["detected"]] == ["app.MyView#callSensitive()/4"]
    assert part["cha_reachable_undetected"] == [] and part["unreachable"] == []

    undetected = detected_sensitives(run(viewstub_noaug, "cfa1", augment=False))
    part2 = cha_reach_partition(
        viewstub_noaug.program, viewstub_noaug.hierarchy, viewstub_noaug.sensitives, undetected
    )
    assert [str(s.site) for s in part2["cha_reachable_undetected"]] == [
        "app.MyView#callSensitive()/4"
    ]
    assert part2["detected"] == []


def test_partition_rejects_inconsistent_detected(viewstub):
    bogus = {"app.NoSuch#ghost()/0"}
    from permplace.analysis import SensitiveSite
    from permplace.model import SiteId

    ghost = SensitiveSite(
        site=SiteId("app.NoSuch#ghost()", 0),
        kind="method",
        matchedKeys=("x",),
        permissions=frozenset({"p"}),
    )
    with pytest.raises(InconsistentInput):
        cha_reach_partition(viewstub.program, viewstub.hierarchy, [ghost], bogus)


# -- report output ----------------------------------------------------------


def test_report_json_deterministic(threads):
    a = write_report(run(threads, "cfa1"), "json")
    b = write_report(run(threads, "cfa1"), "json")
    assert a == b
    payload = json.loads(a)
    assert payload["mode"] == "cfa1" and payload["app"] == "threads"


def test_report_text_format(threads):
    text = write_report(run(threads, "cfa1"), "text").decode("utf-8")
    assert "callback app.Host#callback1()" in text
    assert "insert request at stmt 3" in text
    assert "android.permission.CAMERA" in text


def test_report_unknown_format(threads):
    with pytest.raises(ValueError):
        write_report(run(threads, "cfa1"), "xml")


def test_pipeline_analyze_matches_direct_traverse(threads):
    via_pipeline = write_report(pipeline.analyze(threads, mode="cfa1"))
    direct = write_report(run(threads, "cfa1"))
    assert via_pipeline == direct


# values as json.loads returns them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
)


STRING_DICTS = st.dictionaries(st.text(), st.text(), min_size=1)


@st.composite
def aliased_json_values(draw):
    """JSON values in which the same dict and list objects recur at several
    depths, as shared path nodes do in a report."""
    nodes = draw(st.lists(STRING_DICTS, min_size=1, max_size=4))
    leaves = st.sampled_from(nodes) | st.none() | st.booleans() | st.integers() | st.text()
    containers = draw(st.lists(st.lists(leaves) | st.dictionaries(st.text(), leaves), max_size=3))
    return draw(
        st.recursive(
            leaves | st.sampled_from(nodes + containers),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        )
    )


NODE = {"method": "app.A#m()", "entry": "app.B#n()/0"}


# the sibling dicts compare equal (1 == True == 1.0, 0 == False) but print
# differently, so a writer that reused text keyed on values alone would fail
# it; NODE recurs at depths 1 and 3 and in mixed lists
@given(JSON_VALUES | aliased_json_values())
@example([{"a": 1}, {"a": True}, {"a": 1.0}, {"k": 0}, {"k": False}, {"k": "0"}])
@example([NODE, {"nodes": [NODE]}])
@example(["s", NODE, {}, 3, [NODE, "t", [NODE]], NODE, True])
def test_report_writer_matches_stdlib_json(value):
    assert write_json(value) == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


def stdlib_report(report) -> bytes:
    return (json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n").encode("utf-8")


def path_lists(report) -> list:
    return [s["paths"] for cb in report.callbacks for ip in cb["insertionPoints"]
            for s in ip["sensitives"]]


def with_plain_path_lists(report) -> AnalysisReport:
    """A copy of ``report`` whose path lists are plain lists, which the
    writer renders as any other list instead of with ``_path_pieces``."""
    return AnalysisReport(report.app, report.mode, report.augment, callbacks=[
        {**cb, "insertionPoints": [
            {**ip, "sensitives": [{**s, "paths": list(s["paths"])} for s in ip["sensitives"]]}
            for ip in cb["insertionPoints"]
        ]}
        for cb in report.callbacks
    ], summary=report.summary)


def test_write_report_matches_stdlib_on_fixtures(threads, viewstub, parametric):
    for prepared in (threads, viewstub, parametric):
        for mode in ("cfa0", "cfa1"):
            report = run(prepared, mode)
            plain = with_plain_path_lists(report)
            assert path_lists(report) and {type(p) for p in path_lists(report)} == {ReportPaths}
            assert {type(p) for p in path_lists(plain)} == {list}
            # each writer branch against the stdlib, so against each other
            assert write_report(report) == stdlib_report(report)
            assert write_report(plain) == stdlib_report(report)


@pytest.mark.parametrize("kind", ["plain", "diamond", "split"])
def test_write_report_matches_stdlib_on_random_programs(framework, spec, kind):
    for seed in range(20):
        app = gen_app(seed, diamond=kind == "diamond", split=kind == "split")
        prepared = pipeline.prepare(app, [framework], spec=spec)
        for mode in ("cfa0", "cfa1"):
            report = run(prepared, mode)
            assert write_report(report) == stdlib_report(report), (seed, mode)


def test_write_report_with_no_paths_kept(threads):
    report = run(threads, "cfa0", limits=Limits(maxDepth=50, maxPathsPerSensitive=0))
    # the callbacks that reach a sensitive are listed, with no paths to show
    assert report.callbacks and report.summary["paths"] == 0
    assert write_report(report) == stdlib_report(report)


def test_write_report_renders_empty_path_lists():
    sensitive = {"site": "a.B#f()/0", "kind": "method", "keys": [], "permissions": ["p"],
                 "viaParametric": False, "truncated": True, "paths": []}
    callback = {"class": "a.B", "method": "a.B#f()", "entrySite": "m.M#main()/0",
                "truncated": False,
                "insertionPoints": [{"stmt": 0, "permissions": ["p"], "sensitives": [sensitive]}]}
    report = AnalysisReport(app="a", mode="cfa1", augment=True, callbacks=[callback])
    assert write_report(report) == stdlib_report(report)


def test_write_report_shared_nodes_and_non_ascii_names(framework, spec):
    """Two callbacks reach ``ç``, whose state has one node dict, and ``ç``
    holds two sensitives: every path of both callbacks ends in that dict."""

    app = app_from_dict({
        "name": "ünïcode",
        "manifest": {"targetApi": 23, "permissions": []},
        "classes": [
            {"name": "app.Höst", "super": "android.app.Activity", "methods": [
                {"name": "onCreate", "body": calls("app.Ü#à()")},
                {"name": "callback1", "body": calls("app.Ü#à()", "app.Ü#ß()")},
            ]},
            {"name": "app.Ü", "methods": [
                {"name": "à", "static": True, "body": calls("app.Ü#ç()")},
                {"name": "ß", "static": True, "body": calls("app.Ü#à()")},
                {"name": "ç", "static": True, "body": calls(
                    "android.hardware.Camera#open()", "android.test.Api#SENSITIVE()")},
            ]},
        ],
    })
    prepared = pipeline.prepare(app, [framework], spec=spec)
    for mode in ("cfa0", "cfa1"):
        report = run(prepared, mode)
        last = {
            (cb["method"], s["site"]): id(p["nodes"][-1])
            for cb in report.callbacks
            for ip in cb["insertionPoints"]
            for s in ip["sensitives"]
            for p in s["paths"]
        }
        assert len(last) == 4 and len(set(last.values())) == 1
        text = write_report(report)
        assert text == stdlib_report(report)
        assert b"\\u00e7" in text and text.isascii()


def test_reports_hold_no_tuples(threads, viewstub, viewstub_noaug, parametric):
    # the writer prints a tuple as a list, so a SiteId must reach a report
    # as its string
    for prepared in (threads, viewstub, viewstub_noaug, parametric):
        for mode in ("cfa0", "cfa1"):
            todo = [report_to_dict(run(prepared, mode))]
            while todo:
                v = todo.pop()
                assert not isinstance(v, tuple), v
                if isinstance(v, dict):
                    todo.extend(v.values())
                elif isinstance(v, list):
                    todo.extend(v)
