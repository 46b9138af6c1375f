import json
import random
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from permplace import permspec
from permplace.errors import ConflictError, ValidationError
from permplace.analysis import write_json
from permplace.model import link_program, load_app
from permplace.permspec import (
    filter_dangerous,
    merge_specs,
    mine_doc_candidates,
    spec_from_list,
)
from test_model import MALFORMED_SIGS

LM_KEY = "android.location.LocationManager#getLastKnownLocation(java.lang.String)"
FINE = "android.permission.ACCESS_FINE_LOCATION"
CAMERA = "android.permission.CAMERA"


def test_minimal_entry():
    spec = spec_from_list([{"kind": "method", "key": LM_KEY, "permissions": [FINE]}])
    assert len(spec) == 1
    assert spec.method_entry(LM_KEY).permissions == frozenset({FINE})


def test_parametric_requires_arg_index():
    with pytest.raises(ValidationError):
        spec_from_list([{"kind": "parametric", "key": "A#f(x.Y)", "permissions": [FINE]}])


@pytest.mark.parametrize("sig", MALFORMED_SIGS)
@pytest.mark.parametrize("kind", ["method", "parametric"])
def test_malformed_signature_entry_fails_load_at_its_entry(tmp_path, sig, kind):
    path = tmp_path / "bad.spec.json"
    entry = {"kind": kind, "key": sig, "permissions": [FINE]}
    if kind == "parametric":
        entry["argIndex"] = 0
    path.write_text(json.dumps([{"kind": "method", "key": LM_KEY, "permissions": [FINE]}, entry]))
    with pytest.raises(ValidationError) as exc:
        permspec.load_spec(path)
    assert f"{path}[1]: malformed method signature" in str(exc.value)


def test_empty_spec():
    assert len(spec_from_list([])) == 0


def test_empty_permissions_rejected():
    with pytest.raises(ValidationError):
        spec_from_list([{"kind": "method", "key": "A#f()", "permissions": []}])


def test_two_parameter_parametric_skipped_with_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="permplace.permspec"):
        spec = spec_from_list(
            [{"kind": "parametric", "key": "A#f(x.Y,x.Z)", "argIndex": [0, 1], "permissions": [FINE]}]
        )
    assert len(spec) == 0
    assert any("argument indices" in r.message for r in caplog.records)


def test_merge_with_empty_is_identity(spec):
    merged = merge_specs(spec, permspec.PermissionSpec(entries={}))
    assert merged.entries == spec.entries


def test_merge_counts():
    shared = {"kind": "method", "key": "A#f()", "permissions": [FINE]}
    a = spec_from_list([shared, {"kind": "method", "key": "A#g()", "permissions": [FINE]}])
    b = spec_from_list([shared, {"kind": "method", "key": "A#h()", "permissions": [CAMERA]}])
    merged = merge_specs(a, b)
    assert len(merged) == 3


def test_merge_conflict():
    a = spec_from_list([{"kind": "method", "key": "A#f()", "permissions": [FINE]}])
    b = spec_from_list([{"kind": "method", "key": "A#f()", "permissions": [CAMERA]}])
    with pytest.raises(ConflictError):
        merge_specs(a, b)


def test_merge_commutative_without_conflicts():
    a = spec_from_list([{"kind": "method", "key": "A#f()", "permissions": [FINE]}])
    b = spec_from_list([{"kind": "method", "key": "A#g()", "permissions": [CAMERA]}])
    ab = merge_specs(a, b)
    ba = merge_specs(b, a)
    assert ab.entries == ba.entries


def lm_entry(**extra):
    return {"kind": "method", "key": LM_KEY, "permissions": [FINE], **extra}


def merged_bytes(a, b) -> bytes:
    return write_json(permspec.spec_to_list(merge_specs(a, b)))


def test_merge_anyof_difference_conflicts_in_both_orders():
    a = spec_from_list([lm_entry(anyOf=True, source="annotation")])
    b = spec_from_list([lm_entry(source="javadoc")])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ConflictError, match=re.escape(LM_KEY)):
            merge_specs(x, y)


@pytest.mark.parametrize("plain, other", [
    (lm_entry(), lm_entry(anyOf=True)),
    (lm_entry(), lm_entry(permissions=[FINE, CAMERA])),
    ({"kind": "field", "key": "a.C#F", "permissions": [FINE]},
     {"kind": "field", "key": "a.C#F", "permissions": [FINE], "constValue": "v"}),
])
def test_duplicate_in_one_spec_conflicts_in_both_orders(plain, other):
    for items in ([plain, other], [other, plain]):
        with pytest.raises(ValidationError, match=re.escape(f"[1]: duplicate key {plain['key']}")):
            spec_from_list(items)


def test_agreeing_entries_merge_whatever_the_order():
    deprecated = lm_entry(source="javadoc", deprecated=True)
    annotated = lm_entry(source="annotation")
    a, b = spec_from_list([deprecated]), spec_from_list([annotated])
    assert merged_bytes(a, b) == merged_bytes(b, a)
    entry = merge_specs(a, b).method_entry(LM_KEY)
    assert (entry.source, entry.deprecated) == ("annotation", True)
    # duplicates inside one spec merge by the same rule
    for items in ([deprecated, annotated], [annotated, deprecated]):
        assert spec_from_list(items).method_entry(LM_KEY) == entry


# entries over two keys, so that the specs of a pair share some
_ENTRIES = st.builds(
    lambda kind, key, perms, const, any_of, deprecated, source: {
        "kind": kind, "key": f"a.C#{key}" if kind == "field" else f"a.C#{key}()",
        "permissions": sorted(perms), "anyOf": any_of, "deprecated": deprecated,
        "source": source, **({"constValue": const} if kind == "field" and const else {}),
    },
    st.sampled_from(["method", "field"]), st.sampled_from(["f", "g"]),
    st.sets(st.sampled_from([FINE, CAMERA]), min_size=1), st.sampled_from([None, "u", "v"]),
    st.booleans(), st.booleans(), st.sampled_from(permspec.ENTRY_SOURCES),
)


def _spec_or_none(items):
    try:
        return spec_from_list(items)
    except ValidationError:
        return None


@given(st.lists(_ENTRIES, max_size=4), st.lists(_ENTRIES, max_size=4))
def test_merge_does_not_depend_on_order(items_a, items_b):
    a, b = _spec_or_none(items_a), _spec_or_none(items_b)
    # one spec's duplicates merge by the same rule, in any order
    backwards = _spec_or_none(items_a[::-1])
    assert (a is None) == (backwards is None)
    assert a is None or a.entries == backwards.entries
    assume(a is not None and b is not None)
    outcomes = []
    for x, y in ((a, b), (b, a)):
        try:
            outcomes.append(merged_bytes(x, y))
        except ConflictError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_filter_dangerous_drops_normal_entry(groups):
    spec = spec_from_list(
        [
            {"kind": "method", "key": "A#f()", "permissions": [FINE]},
            {"kind": "method", "key": "A#g()", "permissions": ["android.permission.INTERNET"]},
        ]
    )
    out = filter_dangerous(spec, groups)
    assert len(out) == 1
    assert out.method_entry("A#f()") is not None


def test_filter_dangerous_mixed_entry_keeps_dangerous_only(groups):
    spec = spec_from_list(
        [{"kind": "method", "key": "A#f()", "permissions": [FINE, "android.permission.INTERNET"]}]
    )
    out = filter_dangerous(spec, groups)
    # hand check against the group table: INTERNET is the only non-dangerous one
    assert out.method_entry("A#f()").permissions == frozenset({FINE})


def test_filter_dangerous_idempotent(spec, groups):
    once = filter_dangerous(spec, groups)
    twice = filter_dangerous(once, groups)
    assert once.entries == twice.entries


def test_filter_all_dangerous_is_identity(groups):
    spec = spec_from_list([{"kind": "method", "key": "A#f()", "permissions": [FINE]}])
    assert filter_dangerous(spec, groups).entries == spec.entries


# -- doc mining -------------------------------------------------------------


@pytest.fixture(scope="module")
def fw_program(framework):
    return link_program(framework, [])


def test_mine_unique_method_doc(fw_program):
    table = {"ACCESS_FINE_LOCATION": ("android.permission.ACCESS_FINE_LOCATION", True)}
    cands = mine_doc_candidates(fw_program, table)
    assert len(cands) == 1
    c = cands[0]
    assert c.element == "android.location.LocationManager#getLastKnownLocation(java.lang.String)"
    assert c.uniqueIdentifier and not c.needsMemberExpansion
    assert "ACCESS_FINE_LOCATION" in c.snippet


def test_mine_class_level_non_unique(fw_program):
    table = {"CAMERA": ("android.permission.CAMERA", False)}
    cands = mine_doc_candidates(fw_program, table)
    assert len(cands) == 1
    c = cands[0]
    assert c.element == "android.hardware.Camera"
    assert not c.uniqueIdentifier and c.needsMemberExpansion


def test_mine_no_docs_empty():
    from permplace.model import app_from_dict

    prog = link_program(
        app_from_dict(
            {
                "name": "n",
                "manifest": {"targetApi": 23, "permissions": []},
                "classes": [{"name": "android.X", "origin": "framework", "methods": []}],
            }
        ),
        [],
    )
    assert mine_doc_candidates(prog, {"CAMERA": ("android.permission.CAMERA", True)}) == []


def test_candidate_elements_resolve(fw_program, fixtures_dir):
    table = permspec.load_ident_table(fixtures_dir / "ident_table.json")
    for c in mine_doc_candidates(fw_program, table):
        if "(" in c.element:
            assert fw_program.lookup_method(c.element) is not None
        elif "#" in c.element:
            assert fw_program.lookup_field(c.element) is not None
        else:
            assert fw_program.classes.get(c.element) is not None
        assert c.permission in {p for p, _ in table.values()}


def test_per_value_lookups_match_sorted_scan():
    # several parametric entries per signature and several field entries per
    # constValue, listed out of key order
    rng = random.Random(7)
    sigs = [f"a.C{i}#f(java.lang.String,int)" for i in range(12)]
    values = [f"content://v{i}" for i in range(8)]
    items = [{"kind": "parametric", "key": sig, "argIndex": i, "permissions": [f"p.P{i}"]}
             for sig in sigs for i in range(rng.randint(1, 4))]
    items += [{"kind": "field", "key": f"a.F{i}#K", "constValue": rng.choice(values),
               "permissions": [FINE]} for i in range(200)]
    items += [{"kind": "method", "key": sig, "permissions": [CAMERA]} for sig in sigs[::3]]
    rng.shuffle(items)
    spec = spec_from_list(items)
    assert len(spec) > 200
    ordered = [e for _, e in sorted(spec.entries.items())]
    for sig in [*sigs, "a.Missing#f()"]:
        want = [e for e in ordered if e.kind == "parametric" and e.key == sig]
        assert list(spec.parametric_entries(sig)) == want
    for value in [*values, "content://missing"]:
        want = next((e for e in ordered if e.kind == "field" and e.constValue == value), None)
        assert spec.field_entry_by_value(value) is want
