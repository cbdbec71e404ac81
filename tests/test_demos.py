"""The demos import only names the package exports.

No test runs the demos, so each one is parsed, not executed: a name that
leaves ``mpslink.__all__`` (or a submodule) shows here instead of on the
next manual run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import mpslink

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _imports_from_mpslink(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from mpslink[.sub] import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "mpslink" or node.module.startswith("mpslink."))
        for alias in node.names
    ]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_exported(path):
    imports = _imports_from_mpslink(path)
    assert imports, f"{path.name} imports nothing from mpslink"
    for module, name in imports:
        if module == "mpslink":
            assert name in mpslink.__all__, f"{path.name}: {name} is not in mpslink.__all__"
        else:
            assert hasattr(importlib.import_module(module), name), f"{path.name}: no {module}.{name}"
