"""Tests that the package marks arrays read-only in one place: every
`.setflags(` call in src/coopnav sits inside `model.frozen`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coopnav"


def scoped(source: str, match) -> list:
    """(line, scope) of every node of the module that `match` accepts, its
    scope the dotted names of the classes and functions that hold it ('' at
    module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif match(child):
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def setflags_calls(source: str) -> list:
    """(line, scope) of every `.setflags(` call in the module."""
    return scoped(source, lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags")


def test_finds_setflags_calls():
    source = ("A.setflags(write=False)\n"
              "class C:\n"
              "    def f(self, b):\n"
              "        g(b.setflags(write=False))\n")
    assert setflags_calls(source) == [(1, ""), (4, "C.f")]


def test_setflags_only_in_model_frozen():
    calls = [(path.name, line, scope) for path in sorted(PACKAGE.glob("*.py"))
             for line, scope in setflags_calls(path.read_text())]
    outside = [f"{name}:{line}: {scope or '<module>'}" for name, line, scope in calls
               if (name, scope) != ("model.py", "frozen")]
    assert not outside, "setflags outside model.frozen:\n" + "\n".join(outside)
    assert [(name, scope) for name, _, scope in calls].count(("model.py", "frozen")) == 1
