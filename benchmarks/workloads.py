"""Workloads of the mpslink benchmark and the checks on their outputs.

Each workload turns the benchmark seed into inputs (``build``) and runs one
timed repetition over them (``run``).  A repetition drives the package only
through its public functions and checks every output it produces.  An
operation is one sweep point or one chain solve; one that raises a
numerical error, or whose output fails a check, is counted as failed
instead of ending the run.

* ``sweep-omniscient``: ``mpslink rates --simulate`` over 10:100:5 km with
  10M cycles per point.  Time goes to the epoch engine and its keyed
  ``rng.u01`` draws; ``markov`` does no work.
* ``sweep-literal``: the same sweep and seed with the literal message
  protocol and 1M cycles per point.  Time goes to the per-event loop and
  ``receiver_step``; ``u01`` is a small share.  It is the workload a change
  to the shared engine shows on, with ``sweep-omniscient`` as the control.
* ``markov-ladder``: ``full_chain`` then ``stationary`` for n in
  {500, 1333, 3000} x p in {0.01, 0.1, 0.3}.  Both branches of today's solve
  run (dense up to 4000 states, sparse above); ``rng`` and ``protocol`` do
  no work.  The dense branch fails at n=1333, p=0.3 (negative
  probabilities); that solve stays in the ladder as a recorded failure.
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass, field

import mpslink.cli as cli
import mpslink.markov as markov

# A simulated rate further than this many standard errors from the analytic
# rate fails its check.  The standard error is the Poisson one of the
# analytic pair count; pair arrivals are a thinned renewal process, whose
# count varies less than a Poisson count, so the bound errs on the loose side.
SIGMA_BOUND = 4.0

# |pi[0] - closed form| above this fails a chain solve.
PI00_TOLERANCE = 1e-12

# Errors a numerical operation may raise on a valid input; anything else is
# a defect of the benchmark or an API change and ends the run.
NUMERIC_ERRORS = (ArithmeticError, MemoryError, RuntimeError, ValueError)

SWEEP = "10:100:5"
LADDER_N = (500, 1333, 3000)
LADDER_P = (0.01, 0.1, 0.3)


@dataclass
class Rep:
    """Outcome of one timed repetition."""

    wall_s: float
    attempted: int
    failed: int
    wrong: list[str]  # outputs that failed a check
    errors: list[str]  # operations that raised instead of returning
    fingerprint: str  # equal across repetitions of one seed
    work: float  # simulated heralds, or chain states solved
    work_s: float  # seconds inside des_run, or inside full_chain + stationary
    counts: dict[str, float] = field(default_factory=dict)
    slices_s: list[float] = field(default_factory=list)  # reference slices taken between operations


@dataclass(frozen=True)
class SweepInputs:
    config_text: str


@dataclass(frozen=True)
class LadderInputs:
    pairs: tuple[tuple[int, float], ...]


def _csv_number(value) -> str:
    """A number as ``cli.emit`` writes it: shortest round trip, empty for None."""
    return "" if value is None else repr(float(value))


class _DesRecorder:
    """Stands in for ``cli.des_run``: keeps each run's stats and time.

    Before each run it takes one reference slice, if asked to, outside the
    run's own time.
    """

    def __init__(self, des_run, sample):
        self._des_run = des_run
        self._sample = sample
        self.runs: list[tuple[object, float]] = []
        self.slices_s: list[float] = []

    def __call__(self, config):
        if self._sample is not None:
            self.slices_s.append(self._sample())
        start = time.perf_counter()
        stats = self._des_run(config)
        self.runs.append((stats, time.perf_counter() - start))
        return stats


class Sweep:
    def __init__(self, mode: str, cycles: int, tiny_cycles: int):
        self.mode = mode
        self.cycles = cycles
        self.tiny_cycles = tiny_cycles

    def build(self, seed: int, tiny: bool) -> SweepInputs:
        # Today's default loss profile, pinned so the workload does not move
        # if a default does.  cli derives each point's seed from ``seed``
        # with rng.derive_seed, as ``mpslink rates`` does.
        lines = {
            "alpha_qd_db": 10.0,
            "alpha_bsm_db": 5.0,
            "sweep": "10:100:45" if tiny else SWEEP,
            "mode": self.mode,
            "cycles": self.tiny_cycles if tiny else self.cycles,
            "seed": seed,
            "format": "csv",
        }
        return SweepInputs("".join(f"{key}={value}\n" for key, value in lines.items()))

    def run(self, inputs: SweepInputs, tracer, sample=None) -> Rep:
        """One repetition; ``sample`` takes a reference slice between operations."""
        des_run = cli.des_run
        recorder = _DesRecorder(des_run, sample)
        cli.des_run = tracer.wrap_span("protocol.des_run", recorder)
        try:
            with tracer.leaves_patched():
                start = time.perf_counter()
                with tracer.span("cli.parse_config"):
                    config = cli.parse_config(inputs.config_text)
                distances = config.sweep_distances()
                reports, error = None, None
                try:
                    with tracer.span("cli.sweep_rates"):
                        reports = cli.sweep_rates(config, distances, simulate=True)
                except NUMERIC_ERRORS as exc:
                    error = f"sweep: {type(exc).__name__}: {exc}"
                out = io.StringIO()
                if reports is not None:
                    with tracer.span("cli.emit"):
                        cli.emit(reports, config.format, out)
                wall = time.perf_counter() - start - sum(recorder.slices_s)
        finally:
            cli.des_run = des_run

        stats = [s for s, _ in recorder.runs]
        counts = {
            "heralds": sum(s.heralds_left + s.heralds_right for s in stats),
            "pairs": sum(s.true_coincidences + s.false_coincidences for s in stats),
            "one_sided_confirms": sum(s.one_sided_confirms for s in stats),
        }
        rep = Rep(
            wall_s=wall,
            attempted=len(distances),
            failed=0,
            wrong=[],
            errors=[],
            fingerprint=out.getvalue(),
            work=counts["heralds"],
            work_s=sum(t for _, t in recorder.runs),
            counts=counts,
            slices_s=recorder.slices_s,
        )
        if error is not None:
            rep.failed = len(distances)
            rep.errors.append(error)
            return rep
        bad = self._check(reports, stats, out.getvalue())
        rep.failed = len(bad)
        rep.wrong.extend(bad)
        return rep

    def _check(self, reports, stats, csv_text: str) -> list[str]:
        """One message per failed point; empty when every point passes."""
        lines = csv_text.splitlines()
        if len(stats) != len(reports):
            return [f"{len(stats)} des_run calls for {len(reports)} points"] * len(reports)
        if not lines or lines[0] != cli.CSV_SIM_HEADER:
            return ["CSV header differs from CSV_SIM_HEADER"] * len(reports)
        if len(lines) != len(reports) + 1:
            return [f"CSV has {len(lines) - 1} rows for {len(reports)} points"] * len(reports)

        columns = cli.CSV_SIM_HEADER.split(",")
        bad = []
        ses = []
        for report, sim, line in zip(reports, stats, lines[1:]):
            row = dict(zip(columns, line.split(",")))
            if any(row.get(name) != _csv_number(getattr(report, name)) for name in columns):
                bad.append(f"{report.distance_km} km: CSV row does not match its report")
                ses.append(0.0)
                continue
            measured_s = sim.measured_cycles * sim.tau_c_ns * 1e-9
            se = math.sqrt(report.g2_hz / measured_s)
            ses.append(se)
            if not math.isfinite(report.sim_g2_hz) or report.sim_g2_hz < 0:
                bad.append(f"{report.distance_km} km: sim_g2_hz = {report.sim_g2_hz}")
            elif self.mode == "literal" and report.sim_g2_hz - report.g2_hz > SIGMA_BOUND * se:
                bad.append(
                    f"{report.distance_km} km: literal rate {report.sim_g2_hz:.3f} Hz above "
                    f"analytic {report.g2_hz:.3f} Hz by more than {SIGMA_BOUND} SE ({se:.3f} Hz)"
                )
        if self.mode == "omniscient" and not bad:
            sim_sum = sum(r.sim_g2_hz for r in reports)
            g2_sum = sum(r.g2_hz for r in reports)
            se_sum = math.sqrt(sum(se * se for se in ses))
            if abs(sim_sum - g2_sum) > SIGMA_BOUND * se_sum:
                message = (
                    f"summed simulated rate {sim_sum:.3f} Hz is more than {SIGMA_BOUND} SE "
                    f"({se_sum:.3f} Hz) from the analytic {g2_sum:.3f} Hz"
                )
                bad = [message] * len(reports)
        return bad


class Ladder:
    def build(self, seed: int, tiny: bool) -> LadderInputs:
        # The nine pairs are fixed; the seed only shuffles their order.
        pairs = [(n, p) for n in LADDER_N for p in ((0.3,) if tiny else LADDER_P)]
        random.Random(seed).shuffle(pairs)
        return LadderInputs(tuple(pairs))

    def run(self, inputs: LadderInputs, tracer, sample=None) -> Rep:
        """One repetition in plain seconds; ``sample`` is not used.

        BLAS and SuperLU time does not follow the reference loop's speed:
        over five sets of ten runs, scaling by it left the ladder's spread
        no smaller and sometimes larger.
        """
        wrong: list[str] = []
        errors: list[str] = []
        outcomes = []
        states = solved = 0
        work_s = 0.0
        start = time.perf_counter()
        for n, p in inputs.pairs:
            t0 = time.perf_counter()
            with tracer.span("markov.full_chain", n=n, p=p):
                chain = markov.full_chain(n, p)
            states += chain.num_states
            try:
                with tracer.span("markov.stationary", n=n, p=p):
                    pi = markov.stationary(chain)
            except NUMERIC_ERRORS as exc:
                errors.append(f"n={n} p={p}: {type(exc).__name__}: {exc}")
                outcomes.append((n, p, type(exc).__name__))
                continue
            finally:
                work_s += time.perf_counter() - t0
            error = abs(float(pi[0]) - markov.stationary_open_prob(n, p))
            if len(pi) != 3 * n + 1 or not error <= PI00_TOLERANCE:
                wrong.append(f"n={n} p={p}: |pi00 - closed form| = {error:.3e}")
                outcomes.append((n, p, "wrong"))
            else:
                solved += chain.num_states
                outcomes.append((n, p, "ok"))
        wall = time.perf_counter() - start
        return Rep(
            wall_s=wall,
            attempted=len(inputs.pairs),
            failed=len(errors) + len(wrong),
            wrong=wrong,
            errors=errors,
            fingerprint=repr(sorted(outcomes)),
            work=solved,
            work_s=work_s,
            counts={"states": states, "stationary_failures": len(errors)},
        )


WORKLOADS = {
    "sweep-omniscient": Sweep("omniscient", cycles=10_000_000, tiny_cycles=200_000),
    "sweep-literal": Sweep("literal", cycles=1_000_000, tiny_cycles=50_000),
    "markov-ladder": Ladder(),
}
