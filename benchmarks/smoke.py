"""Smoke check of the benchmark itself; takes about a minute.

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and
traced, and checks that the last output line is the result object with
every declared metric under its declared unit and that the output checks
passed.  Then copies only BENCHMARK.json and this directory into an empty
temporary directory and checks that the benchmark exits non-zero there
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(root: Path, workload: str, trace: int, size: str = "tiny") -> subprocess.CompletedProcess:
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7"]
    command += ["--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        seen = f"correct={result.get('correct')} attempted={result.get('attempted')}"
        problems.append(f"{where}: {seen}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {got} != {expected}")
    for name, entry in result.get("metrics", {}).items():
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    print(f"{where}: attempted {result['attempted']}, failed {result['failed']}", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    """Without src/, the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        ignore = shutil.ignore_patterns("traces", "__pycache__")
        shutil.copytree(BENCH_DIR, bare / "benchmarks", ignore=ignore)
        done = run(bare, "sweep-omniscient", 0, size="full")
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout!r}"]
    print(f"bare directory: exit code {done.returncode}", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke: FAIL" if problems else "smoke: PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
