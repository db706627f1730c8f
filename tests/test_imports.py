"""Tests that no module of the package or its tests imports a name it never
uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "coopnav").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing in the
    module reads. A name listed in `__all__` is read, and `__future__`
    imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        (1, "os"), (2, "d")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


def test_no_unused_imports():
    assert ROOT / "src" / "coopnav" / "simkernel.py" in SOURCES
    assert ROOT / "tests" / "oracles.py" in SOURCES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in SOURCES
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
