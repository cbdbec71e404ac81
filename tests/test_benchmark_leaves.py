"""The benchmark's traced run finds every package function it patches.

``benchmarks/tracing.py`` patches its leaves by module attribute name, so a
package change that deletes or renames one would otherwise fail only in a
traced benchmark run (``benchmarks/run.py --trace``).  The file is loaded
from its path, not run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
