"""Tests that the package stores no attribute that nothing reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "coopnav").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _named(node: ast.AST, funcs: tuple) -> str | None:
    """The attribute name that a call such as `setattr(obj, "name", ...)`
    passes, if node is a call of one of `funcs` with a literal name."""
    if (isinstance(node, ast.Call) and ast.unparse(node.func) in funcs
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
        return node.args[1].value
    return None


def stored_attributes(source: str) -> dict:
    """Attribute name -> first line that stores it: `x.name = ...` (also in a
    tuple target) or `setattr` / `object.__setattr__` with a literal name."""
    stored = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.setdefault(node.attr, node.lineno)
        elif (name := _named(node, ("setattr", "object.__setattr__"))) is not None:
            stored.setdefault(name, node.lineno)
    return stored


def read_attributes(source: str) -> set:
    """Attribute names the source reads: `x.name` loaded, the target of
    `x.name += ...`, or `getattr` / `hasattr` with a literal name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            read.add(node.target.attr)
        elif (name := _named(node, ("getattr", "hasattr"))) is not None:
            read.add(name)
    return read


def test_finds_unread_attribute():
    source = ("self.a = 1\nself.b, self.c = 2, 3\nself.d = 0\nself.d += 1\n"
              "object.__setattr__(self, 'e', 4)\nsetattr(self, 'f', 5)\n"
              "print(self.b, getattr(self, 'f'))\n")
    unread = {k: v for k, v in stored_attributes(source).items()
              if k not in read_attributes(source)}
    assert unread == {"a": 1, "c": 2, "e": 5}


def test_no_unread_attributes():
    assert ROOT / "src" / "coopnav" / "simkernel.py" in PACKAGE
    assert ROOT / "perfbench" / "child.py" in READERS
    read = set().union(*(read_attributes(path.read_text()) for path in READERS))
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in PACKAGE
             for name, line in stored_attributes(path.read_text()).items() if name not in read]
    assert not found, "attributes stored and never read:\n" + "\n".join(found)
