"""Every public name has a user outside the tests.

A name in ``mpslink.__all__`` must be read in ``src/mpslink`` outside its
own definition and the package's re-export, in a demo, or in
``benchmarks/``.  Type annotations count, so a type that a public function
takes or returns is used.  A name that only tests read belongs in the tests.
"""

import ast
from pathlib import Path

import mpslink

ROOT = Path(__file__).resolve().parent.parent

# Public names without a user yet, each with what keeps it public.  Shrink this.
EXEMPT = {
    "min_timeout_cycles": "the paper's timeout rule, waiting for a clock sweep to report it",
    "false_coincidence_prob": "the dark-count acceptance that the fidelity routes are to share",
}


def _sources() -> list[Path]:
    package = [p for p in (ROOT / "src" / "mpslink").glob("*.py") if p.name != "__init__.py"]
    return package + [p for d in ("demos", "benchmarks") for p in sorted((ROOT / d).glob("*.py"))]


def _reads(tree: ast.AST, name: str) -> bool:
    """Whether ``tree`` loads ``name``, as a name or an attribute, outside the
    function or class that defines it; an assignment to it is no read."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(getattr(node, "ctx", None), ast.Load) and name in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
        ):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_name_has_a_user_outside_the_tests():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in _sources()]
    unused = [name for name in mpslink.__all__ if not any(_reads(tree, name) for tree in trees)]
    assert sorted(unused) == sorted(EXEMPT), (
        f"public names only tests use: {sorted(set(unused) - set(EXEMPT))}; "
        f"exempt names that now have a user: {sorted(set(EXEMPT) - set(unused))}"
    )
