"""The benchmark finds every package name it patches or reads.

``benchmarks/tracing.py`` patches its leaves by module attribute name, and
``benchmarks/workloads.py`` reads ``cli.<name>`` and ``markov.<name>``, so a
package change that deletes or renames one would otherwise fail only in a
benchmark run.  ``tracing.py`` is loaded from its path, not run;
``workloads.py`` is only parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"
WORKLOADS = BENCHMARKS / "workloads.py"


def test_traced_leaves_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LEAVES
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.LEAVES
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, f"leaves the traced benchmark cannot patch: {missing}"


def test_workload_reads_resolve():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    modules = {
        alias.asname: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name in ("mpslink.cli", "mpslink.markov")
    }
    assert sorted(modules) == ["cli", "markov"]
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert reads
    missing = [f"{mod}.{attr}" for mod, attr in sorted(reads) if not hasattr(modules[mod], attr)]
    assert not missing, f"names the benchmark workloads read that the package lacks: {missing}"
