"""Tests that the README's shortcut list names only code that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import coopnav

README = Path(__file__).resolve().parents[1] / "README.md"


def cached_or_shared_names():
    """Every backticked `module.name` in README's "What is cached or shared"
    list whose module is a coopnav module."""
    text = README.read_text()
    start = text.index("What is cached or shared")
    section = text[start:text.index("\n## ", start)]
    modules = {m.name for m in pkgutil.iter_modules(coopnav.__path__)}
    return [(mod, name) for mod, name in re.findall(r"`(\w+)\.([\w.]+)`", section)
            if mod in modules]


def test_cached_or_shared_names_resolve():
    names = cached_or_shared_names()
    assert ("model", "motion_matrices") in names
    for mod, name in names:
        obj = importlib.import_module(f"coopnav.{mod}")
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {mod}.{name}, which is gone"
            obj = getattr(obj, part)
