"""No function in the package calls itself: Python's recursion limit must
not cap the size of program the analyses accept, so deep inputs are walked
with explicit stacks instead."""

import ast
from pathlib import Path

import permplace

PACKAGE = Path(permplace.__file__).parent


def self_calls(tree):
    """(function name, line) for each call of a function, nested ones
    included, to itself by name, or of a method to itself through self."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name or (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append((fn.name, node.lineno))
    return found


def test_no_function_calls_itself():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.stem}.{name} (line {line})"
        for path in modules
        for name, line in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_detects_direct_and_nested_self_calls():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def outer():\n    def g():\n        g()\n"
        "class K:\n    def m(self):\n        self.m()\n"
        "def h(xs):\n    return [len(x) for x in xs]\n"
    )
    assert [name for name, _ in self_calls(tree)] == ["f", "g", "m"]
