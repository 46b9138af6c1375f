"""The two views of the intraprocedural def-chase, one local per kind of
definition: possible runtime types and the evidence sensitive matching
reads."""

import pytest

from permplace.intraflow import intraproc_values, possible_types
from permplace.model import app_from_dict, link_program, param_index, param_local

SIG = "app.C#m(app.P)"
APP = {"name": "defs", "manifest": {}, "classes": [
    {"name": "app.C",
     "fields": [{"name": "F", "type": "app.S", "static": True}],
     "methods": [
         {"name": "m", "params": ["app.P"], "body": [
             {"op": "assign", "target": "a", "source": "this"},
             {"op": "assign", "target": "b", "source": "p0"},
             {"op": "const_str", "target": "c", "value": "x"},
             {"op": "invoke", "kind": "static", "method": "app.C#make()", "target": "d"},
             {"op": "load_static", "target": "e", "field": "app.C#F"},
             {"op": "load_field", "target": "f", "base": "this", "field": "g"},
             {"op": "new", "target": "n", "type": "app.N"},
             {"op": "assign", "target": "q", "source": "p3"}]},
         {"name": "make", "static": True, "returnType": "app.R", "body": [
             {"op": "new", "target": "r", "type": "app.R"},
             {"op": "return", "value": "r"}]},
         {"name": "stub"}]},
    *({"name": name, "methods": []} for name in ("app.P", "app.R", "app.S", "app.N")),
]}

# local -> (possible_types, intraproc_values)
CASES = {
    "a": ({("app.C", False)}, set()),  # this
    "b": ({("app.P", False)}, set()),  # a parameter
    "c": ({("java.lang.String", True)}, {("literal", "x")}),
    "d": ({("app.R", False)}, set()),  # a call's return
    "e": ({("app.S", False)}, {("sfield", "app.C#F")}),
    "f": (set(), set()),  # an instance-field load
    "n": ({("app.N", True)}, set()),
    "q": (set(), set()),  # a parameter the method does not have
    "undefined": (set(), set()),
}


@pytest.fixture(scope="module")
def program():
    return link_program(app_from_dict(APP), [])


@pytest.mark.parametrize("var", CASES)
def test_definition_kinds(program, var):
    types, values = CASES[var]
    assert possible_types(program, SIG, var) == types
    assert intraproc_values(program, SIG, var) == values


@pytest.mark.parametrize(
    "var, index",
    [
        ("p0", 0),
        ("p3", 3),
        ("p10", 10),
        ("p123456789", 123456789),
        ("p01", None),  # a leading zero
        ("p00", None),
        ("p\u00b2", None),  # a superscript two: a digit, but not a decimal one
        ("p\u0663", None),  # an Arabic-Indic three: decimal, but not ASCII
        ("p", None),
        ("p-1", None),
        ("p 1", None),
        ("P1", None),
        ("x1", None),
        ("p1234567890", None),  # past any parameter count
        ("p1" + "0" * 5000, None),  # past int()'s digit limit
    ],
)
def test_param_index_reads_only_param_local_names(var, index):
    assert param_index(var) == index
    if index is not None:
        assert param_local(index) == var


def test_stub_method_has_no_types(program):
    assert possible_types(program, "app.C#stub()", "x") == set()
