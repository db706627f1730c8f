"""Tests that the README names only code that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import coopnav

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_code_names():
    """Every backticked `module.name` in README.md whose module is a coopnav
    module (written bare or as `coopnav.module.name`), leaving out file names
    such as `protocol.py`."""
    modules = {m.name for m in pkgutil.iter_modules(coopnav.__path__)}
    found = re.findall(r"`(?:coopnav\.)?(\w+)\.([\w.]+)`", README.read_text())
    return [(mod, name) for mod, name in found if mod in modules and name != "py"]


def test_readme_code_names_resolve():
    names = readme_code_names()
    assert ("model", "motion_matrices") in names
    assert ("config", "ACRONYMS") in names
    for mod, name in names:
        obj = importlib.import_module(f"coopnav.{mod}")
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {mod}.{name}, which is gone"
            obj = getattr(obj, part)
