"""Tests that the package checks numbers in one place: `math.isfinite` and
the `numbers` ABCs appear in src/coopnav only inside `model.finite_number`
and `model.finite_array`."""

import ast

from test_frozen import PACKAGE, scoped

ALLOWED = {("model.py", "finite_number"), ("model.py", "finite_array")}


def is_number_check(node) -> bool:
    """A read of `math.isfinite` or of a `numbers.` name, or an import of either."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "numbers" or (
            node.module == "math" and any(a.name == "isfinite" for a in node.names))
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and (node.value.id == "numbers"
                 or (node.value.id, node.attr) == ("math", "isfinite")))


def test_finds_number_checks():
    source = ("import math, numbers\n"
              "from math import isfinite, sqrt\n"
              "def f(x):\n"
              "    return math.isfinite(x) and isinstance(x, numbers.Real)\n"
              "ok = all(map(math.isfinite, [math.sqrt(2)]))\n")
    assert scoped(source, is_number_check) == [(2, ""), (4, "f"), (4, "f"), (5, "")]


def test_number_checks_only_in_model():
    found = [(path.name, line, scope) for path in sorted(PACKAGE.glob("*.py"))
             for line, scope in scoped(path.read_text(), is_number_check)]
    outside = [f"{name}:{line}: {scope or '<module>'}" for name, line, scope in found
               if (name, scope) not in ALLOWED]
    assert not outside, "number checks outside model.finite_number:\n" + "\n".join(outside)
    assert {(name, scope) for name, _, scope in found} == ALLOWED
