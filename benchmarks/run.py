"""mpslink benchmark: one workload per process, metrics as JSON on the last line.

    python3 benchmarks/run.py --workload sweep-omniscient --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run fails before printing a result.  Each
run measures set-up in fresh interpreters, then repeats the workload until
``--seconds`` have passed and reports medians over the repetitions.  With
``--trace 0`` it prints the end-to-end metrics, with set-up and the
sweeps' times scaled to reference speed (see reference.py); with
``--trace 1`` it alternates untraced and traced repetitions, prints the
per-layer metrics in plain seconds and writes the spans to
``benchmarks/traces/``.  See README.md next to this file for what each
workload stresses and the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: each workload is a single process with no extra threads.
# A second OpenBLAS thread gave no gain on the dense solve at n=1333.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"  # metric names and units
TRACE_DIR = BENCH_DIR / "traces"

SETUP_PROBES = 7

PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r}, {tiny!r})
print(time.perf_counter() - start)
"""


def _import_package():
    """Import mpslink from this checkout's ``src/``; exit non-zero if it is not there."""
    if not (SRC_DIR / "mpslink" / "__init__.py").is_file():
        sys.exit(f"error: no mpslink package at {SRC_DIR}; run from a full checkout")
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import mpslink

    if Path(mpslink.__file__).resolve().parent != SRC_DIR / "mpslink":
        sys.exit(f"error: imported mpslink from {mpslink.__file__}, not from {SRC_DIR}")


def _child_seconds(code: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints the seconds it measured."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def measure_setup(name: str, seed: int, tiny: bool) -> float:
    """Median time a fresh interpreter takes to import mpslink and build the inputs.

    Each probe is followed by a reference import, and the probe's time is
    scaled to reference import speed.
    """
    from reference import IMPORT_PROBE, REFERENCE_IMPORT_S

    code = PROBE.format(paths=[str(SRC_DIR), str(BENCH_DIR)], name=name, seed=seed, tiny=tiny)
    scaled = []
    for _ in range(SETUP_PROBES):
        probe_s = _child_seconds(code)
        scaled.append(probe_s * REFERENCE_IMPORT_S / _child_seconds(IMPORT_PROBE))
    return statistics.median(scaled)


def layer_metrics(spans, rep, ladder_n) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    from tracing import leaf_totals, self_time

    def total(name, **attrs):
        return sum(
            s.duration
            for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        )

    def self_total(name):
        return sum(self_time(s, spans) for s in spans if s.name == name)

    u01_calls, u01_s = leaf_totals(spans, "rng.u01")
    step_calls, step_s = leaf_totals(spans, "protocol.receiver_step")
    heralds = rep.counts.get("heralds", 0)
    pairs = rep.counts.get("pairs", 0)
    return {
        "rng.u01_calls": u01_calls,
        "rng.u01_s": u01_s,
        "protocol.des_run_calls": sum(1 for s in spans if s.name == "protocol.des_run"),
        "protocol.des_run_self_s": self_total("protocol.des_run"),
        "protocol.receiver_step_calls": step_calls,
        "protocol.receiver_step_s": step_s,
        "protocol.heralds": heralds,
        "protocol.pairs": pairs,
        "protocol.pairs_per_herald": pairs / heralds if heralds else 0.0,
        "protocol.one_sided_confirms": rep.counts.get("one_sided_confirms", 0),
        "markov.full_chain_s": total("markov.full_chain"),
        "markov.stationary_s": total("markov.stationary"),
        **{f"markov.stationary_s.n{n}": total("markov.stationary", n=n) for n in ladder_n},
        "markov.states": rep.counts.get("states", 0),
        "markov.stationary_failures": rep.counts.get("stationary_failures", 0),
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.sweep_rates_self_s": self_total("cli.sweep_rates"),
        "cli.emit_s": total("cli.emit"),
        "optics.s": leaf_totals(spans, "optics")[1],
        "rates.s": leaf_totals(spans, "rates")[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: seconds-long smoke size"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    from reference import slice_seconds, to_reference
    from tracing import NullTracer, Tracer
    from workloads import LADDER_N, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tiny = args.size == "tiny"

    inputs = workload.build(args.seed, tiny)
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed, tiny)

    tracer = Tracer() if args.trace else None
    untraced = NullTracer()
    reps, traced_ids = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.trace = len(reps)
            traced_ids.append(len(reps))
            with tracer.span("rep", workload=args.workload, seed=args.seed):
                rep = workload.run(inputs, tracer)
        else:
            rep = workload.run(inputs, untraced, slice_seconds)
        reps.append(rep)
        speed = ""
        if rep.slices_s:
            speed = f", at reference speed {to_reference(rep.wall_s, rep.slices_s):.4f} s"
        print(
            f"rep {len(reps) - 1}{' traced' if traced else ''}: wall {rep.wall_s:.4f} s{speed}, "
            f"{rep.attempted} ops, {rep.failed} failed",
            flush=True,
        )
        for message in rep.errors + rep.wrong:
            print(f"  {message}", file=sys.stderr)
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced_ids):
            break

    correct = all(not rep.wrong for rep in reps) and len({rep.fingerprint for rep in reps}) == 1
    if tracer is None:
        values = {
            "wall_s": statistics.median(to_reference(r.wall_s, r.slices_s) for r in reps),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput_per_s": statistics.median(
                r.work / to_reference(r.work_s, r.slices_s) if r.work_s > 0 else 0.0 for r in reps
            ),
        }
        kind = "end_to_end"
    else:
        per_rep = [
            layer_metrics([s for s in tracer.spans if s.trace == i], reps[i], LADDER_N)
            for i in traced_ids
        ]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        traced_wall = statistics.median(reps[i].wall_s for i in traced_ids)
        plain_wall = statistics.median(
            rep.wall_s for i, rep in enumerate(reps) if i not in traced_ids
        )
        values["trace_overhead_share"] = traced_wall / plain_wall - 1.0
        kind = "per_layer"
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")

    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text(encoding="utf-8"))[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from {kind} in {SPEC.name}")
    result = {
        "correct": correct,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
