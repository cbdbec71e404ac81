"""The demos import only names the package exports, README's quick start runs,
and README's command lines parse.

No test runs the demos, so each one is parsed, not executed: a name that
leaves ``mpslink.__all__`` (or a submodule) shows here instead of on the
next manual run.
"""

import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mpslink
from mpslink.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_readme_quick_start_runs():
    """The python block under README's "Library quick start" heading runs as written."""
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr


def test_readme_command_lines_parse():
    """Every ``mpslink`` line of the sh block under README's "Command line"
    heading parses with the CLI's parser; nothing runs."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["mpslink"]]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: mpslink {shlex.join(argv)}")
