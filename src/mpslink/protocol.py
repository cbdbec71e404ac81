"""Cycle-accurate simulation of the midpoint-source receiver protocol.

The midpoint emits a photon pair every clock cycle; each receiver attempts
a local Bell-state measurement while "open", closes on a herald, announces
the success over a classical channel that takes ``n`` cycles end to end,
and reopens on a matching announcement (a confirmed pair), a mismatched
announcement, or a timeout ``n`` cycles after its own herald.

Two information models are implemented:

* ``LITERAL`` - receivers act only on local heralds and on messages that
  have physically arrived, so stale announcements can reset a receiver
  that is holding a fresh herald;
* ``OMNISCIENT`` - both sides reset together at the earlier deadline as if
  each instantly knew about the other's heralds, reproducing the Markov
  chain of :mod:`mpslink.markov` exactly.

Both engines are event-driven: while nothing can happen, whole stretches
of idle cycles are skipped.  Attempts are independent per cycle, so a
reopened receiver's wait for its next herald is geometric and is drawn in
one step.  Each side's waits and true/false marks come from Philox
streams keyed by (seed, side, purpose), one value of each per herald, and
equal configs give bit-identical runs.

:func:`receiver_step` states one receiver's transition rule on readable
dataclasses (:class:`Open`, :class:`Closed`, :class:`ClassicalMessage`).
It and its dataclasses, like the per-attempt sampler
:func:`bsm_attempt_sample`, are a test reference and are not exported from
:mod:`mpslink`.  The engines do not call it: they index the two sides as
``0`` (left) and ``1`` (right) and keep per-side state in plain ints, lists
and tuples, and the literal engine applies the same rule inline, so no
object is allocated per event.  The tests drive a loop over
:func:`receiver_step` as the reference the literal engine must match field
for field.  Invariant violations raise :class:`InvariantError`, also under
``python -O``.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .optics import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    mps_side_loss,
)
from .rates import TimingParams
# Unused here; benchmarks/tracing.py patches protocol.u01 by name, so it must exist.
from .rng import u01  # noqa: F401

_NEVER = 2**62  # herald time used when the per-cycle herald probability is zero


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def other(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


class HeraldKind(Enum):
    TRUE_HERALD = "true"  # both photons detected
    FALSE_HERALD = "false"  # double click completed by at least one dark count


@dataclass(frozen=True)
class HeraldRecord:
    cycle: int
    side: Side
    kind: HeraldKind


@dataclass(frozen=True)
class Open:
    """Receiver attempting entanglement swapping every cycle."""


@dataclass(frozen=True)
class Closed:
    """Receiver holding a heralded spin, waiting for the remote announcement.

    ``true_herald`` is simulator-internal truth tracking, not protocol data.
    """

    bin: int
    deadline: int
    true_herald: bool = True


OPEN = Open()
ReceiverState = Open | Closed


@dataclass(frozen=True)
class ClassicalMessage:
    """Success announcement; arrives exactly one full channel delay after its bin."""

    origin: Side
    bin: int
    arrival: int
    true_herald: bool = True

    @classmethod
    def announce(cls, origin: Side, bin: int, n: int, true_herald: bool) -> "ClassicalMessage":
        return cls(origin=origin, bin=bin, arrival=bin + n, true_herald=true_herald)


class InvariantError(AssertionError):
    """A simulator invariant failed: an engine bug, not a runtime condition.

    Raised explicitly rather than by ``assert`` so the checks also run
    under ``python -O``.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


@dataclass(frozen=True)
class StepEvent:
    kind: str  # herald | confirm | mismatch_reset | timeout | stale_ignored
    bin: int | None = None
    pair_true: bool | None = None


def receiver_step(
    state: ReceiverState,
    cycle: int,
    local_herald: HeraldRecord | None,
    inbox: Sequence[ClassicalMessage],
    n: int,
) -> tuple[ReceiverState, list[ClassicalMessage], list[StepEvent]]:
    """One controller transition; returns the state entering ``cycle + 1``.

    A closed receiver first checks arrived messages (a match confirms the
    pair, a mismatch discards the held spin), then its own deadline.  An
    open receiver ignores arrived messages and closes on a local herald,
    announcing the success bin to the other side.
    """
    inbox = list(inbox)
    _require(
        all(msg.arrival == cycle and msg.arrival - msg.bin == n for msg in inbox),
        f"cycle {cycle}: a message arrived off its bin + n schedule",
    )
    _require(len(inbox) <= 1, "one sender can have at most one announcement per cycle")

    events: list[StepEvent] = []
    outgoing: list[ClassicalMessage] = []

    if isinstance(state, Closed):
        _require(local_herald is None, "a closed receiver cannot herald")
        _require(state.deadline - state.bin == n, "a held bin's deadline is not bin + n")
        if inbox:
            msg = inbox[0]
            if msg.bin == state.bin:
                events.append(
                    StepEvent(
                        "confirm",
                        bin=state.bin,
                        pair_true=state.true_herald and msg.true_herald,
                    )
                )
            else:
                events.append(StepEvent("mismatch_reset", bin=state.bin))
            return OPEN, outgoing, events
        if cycle == state.deadline:
            events.append(StepEvent("timeout", bin=state.bin))
            return OPEN, outgoing, events
        return state, outgoing, events

    if inbox:
        # An announcement landing on an open receiver carries no news.
        events.append(StepEvent("stale_ignored", bin=inbox[0].bin))
    if local_herald is not None:
        _require(local_herald.cycle == cycle, "a local herald is not from this cycle")
        truth = local_herald.kind is HeraldKind.TRUE_HERALD
        outgoing.append(ClassicalMessage.announce(local_herald.side, cycle, n, truth))
        events.append(StepEvent("herald", bin=cycle))
        return Closed(bin=cycle, deadline=cycle + n, true_herald=truth), outgoing, events
    return OPEN, outgoing, events


@dataclass(frozen=True)
class HeraldModel:
    """Per-attempt herald probabilities of one receiver."""

    p_true: float
    p_false: float

    @property
    def p_any(self) -> float:
        return self.p_true + self.p_false

    @property
    def true_fraction(self) -> float:
        return self.p_true / self.p_any if self.p_any > 0 else 0.0


def herald_model(
    beta_qd: float, beta_ms: float, p_dc: float, variant: BsmVariant
) -> HeraldModel:
    """Lowest-order herald statistics for one attempt.

    A genuine herald needs both photons; a lost photon can still complete
    the double click through one dark count, and a fully lost pair through
    two.
    """
    one_survivor = beta_qd * (1.0 - beta_ms) + beta_ms * (1.0 - beta_qd)
    none_survive = (1.0 - beta_qd) * (1.0 - beta_ms)
    factor = variant.dark_count_factor
    p_false = one_survivor * (2.0 * factor * p_dc) + none_survive * (factor * p_dc**2)
    return HeraldModel(p_true=beta_qd * beta_ms, p_false=p_false)


def bsm_attempt_sample(
    rng,
    beta_qd: float,
    beta_ms: float,
    p_dc: float,
    variant: BsmVariant = BsmVariant.SINGLET_ONLY,
) -> HeraldKind | None:
    """Sample one open-cycle attempt; ``rng`` needs only a ``random()`` method."""
    qd = rng.random() < beta_qd
    ms = rng.random() < beta_ms
    factor = variant.dark_count_factor
    if qd and ms:
        return HeraldKind.TRUE_HERALD
    if qd or ms:
        return HeraldKind.FALSE_HERALD if rng.random() < 2.0 * factor * p_dc else None
    return HeraldKind.FALSE_HERALD if rng.random() < factor * p_dc**2 else None


class SimMode(Enum):
    LITERAL = "literal"
    OMNISCIENT = "omniscient"

    @classmethod
    def from_key(cls, key: str) -> "SimMode":
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown mode {key!r}")


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run; equal configs give bit-identical stats."""

    beta_qd: float
    beta_ms: float
    n: int
    total_cycles: int
    seed: int = 0
    p_dc: float = 0.0
    bsm_variant: BsmVariant = BsmVariant.SINGLET_PLUS_TRIPLET
    mode: SimMode = SimMode.OMNISCIENT
    tau_c_ns: float = 500.0
    trace_limit: int = 0

    def __post_init__(self) -> None:
        for name in ("beta_qd", "beta_ms", "p_dc"):
            value = getattr(self, name)
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name in ("n", "total_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("seed", "trace_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if not math.isfinite(self.tau_c_ns) or self.tau_c_ns <= 0:
            raise ValueError(f"tau_c_ns must be positive and finite, got {self.tau_c_ns!r}")
        if 2.0 * self.bsm_variant.dark_count_factor * self.p_dc > 1.0:
            raise ValueError("p_dc too large: per-attempt dark acceptance exceeds 1")
        if self.total_cycles < 10 * self.n:
            warnings.warn(
                "total_cycles below 10*n; equilibrium statistics will be unreliable",
                stacklevel=2,
            )

    @classmethod
    def from_hardware(
        cls,
        budget: LossBudget,
        geom: ChannelGeometry,
        *,
        total_cycles: int,
        tau_c_ns: float = 500.0,
        seed: int = 0,
        encoding: EncodingVariant = EncodingVariant.POLARIZATION,
        midpoint: MidpointVariant = MidpointVariant.ENTANGLED_PAIR_SOURCE,
        detector: DetectorModel | None = None,
        bsm_variant: BsmVariant = BsmVariant.SINGLET_PLUS_TRIPLET,
        mode: SimMode = SimMode.OMNISCIENT,
        trace_limit: int = 0,
    ) -> "SimConfig":
        """Derive the per-cycle probabilities and timeout from hardware parameters."""
        side = mps_side_loss(budget, geom, encoding, midpoint)
        timing = TimingParams(tau_c_ns=tau_c_ns, tau_t_us=geom.tau_t_us)
        return cls(
            beta_qd=side.beta_qd,
            beta_ms=side.beta_ms,
            n=timing.n,
            total_cycles=total_cycles,
            seed=seed,
            p_dc=detector.p_dc if detector is not None else 0.0,
            bsm_variant=bsm_variant,
            mode=mode,
            tau_c_ns=tau_c_ns,
            trace_limit=trace_limit,
        )

    @property
    def herald(self) -> HeraldModel:
        return herald_model(self.beta_qd, self.beta_ms, self.p_dc, self.bsm_variant)

    @property
    def warmup_cycles(self) -> int:
        """Cycles excluded from statistics: the transient from the all-open start."""
        return min(2 * self.n, self.total_cycles)


@dataclass(frozen=True)
class SimStats:
    """Aggregated outcome of one run.  Field names are the JSON contract."""

    mode: str
    cycles_run: int
    warmup_cycles: int
    measured_cycles: int
    tau_c_ns: float
    heralds_left: int
    heralds_right: int
    true_coincidences: int
    false_coincidences: int
    one_sided_confirms: int
    open_fraction: float
    rate_hz: float
    infidelity_estimate: float | None
    trace: tuple[tuple[int, str, str], ...] = ()

    def __post_init__(self) -> None:
        pairs = self.true_coincidences + self.false_coincidences
        if pairs > min(self.heralds_left, self.heralds_right):
            raise ValueError("more confirmed pairs than heralds on one side")
        if not 0.0 <= self.open_fraction <= 1.0:
            raise ValueError("open_fraction must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def write_trace_csv(stats: SimStats, destination) -> None:
    """Dump the recorded event trace as ``cycle,side,event`` rows."""
    lines = ["cycle,side,event"]
    lines += [f"{cycle},{side},{event}" for cycle, side, event in stats.trace]
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii") as handle:
            handle.write(text)


# Side indices of the engines; the strings name the sides in the trace.
_SIDE_KEYS = tuple(side.value for side in Side)

# SeedSequence purposes of a side's two streams.
_GAP, _MARK = 0, 1


class _HeraldStream:
    """Per-side herald process: when a reopened receiver heralds, and how.

    A receiver attempts every cycle with probability ``p_any``, and the
    attempts are independent, so the wait from its reopening cycle
    ``open_from`` to its first success is geometric: skipping the failed
    cycles with one inversion draw is exact, and no attempt made while the
    side was closed is ever drawn.  Each herald carries a true/false mark
    with probability ``true_fraction``.  Sides are the engine indices 0
    (left) and 1 (right).

    Each side has two Philox streams (Salmon et al., SC'11) keyed by
    ``(seed, side, purpose)``: one for gaps and one for marks.  Its k-th
    herald takes the k-th uniform of each, so a run does not depend on the
    block size ``_BLOCK`` in which they are drawn ahead.  Uniforms are
    built from the raw 64-bit Philox words, whose stream numpy keeps fixed
    across releases (NEP 19), so equal configs give bit-identical runs.

    Callers keep a pointer contract: a side reopens only after its last
    herald, and ``is_true`` asks only about that last herald (``-1`` before
    the first).
    """

    _BLOCK = 2**11

    def __init__(self, seed: int, model: HeraldModel):
        p = model.p_any
        self._never = p <= 0.0
        self._log_fail = math.log1p(-p) if p < 1.0 else None
        self._true_fraction = model.true_fraction
        self._bits = [
            [
                np.random.Philox(np.random.SeedSequence([seed, side, purpose]))
                for purpose in (_GAP, _MARK)
            ]
            for side in (0, 1)
        ]
        self._gaps: list[list[int]] = [[], []]
        self._marks: list[list[bool]] = [[], []]
        self._ptr = [-1, -1]
        self._last = [-1, -1]

    def _uniforms(self, bits: np.random.Philox) -> np.ndarray:
        return (bits.random_raw(self._BLOCK) >> 11) * 2.0**-53

    def _draw_block(self, side: int) -> None:
        gap_bits, mark_bits = self._bits[side]
        if self._log_fail is None:
            self._gaps[side] = [1] * self._BLOCK  # p = 1: every cycle succeeds
        else:
            gaps = np.ceil(np.log1p(-self._uniforms(gap_bits)) / self._log_fail)
            self._gaps[side] = np.clip(gaps, 1.0, _NEVER).astype(np.int64).tolist()
        self._marks[side] = (self._uniforms(mark_bits) < self._true_fraction).tolist()

    def next_herald(self, side: int, open_from: int) -> int:
        """First success cycle of ``side`` at or after ``open_from``."""
        last = self._last[side]
        if open_from <= last:
            raise InvariantError(
                f"side {side} reopened at {open_from}, not after its last herald {last}"
            )
        if self._never:
            return _NEVER
        ptr = self._ptr[side] + 1
        if ptr == len(self._gaps[side]):
            self._draw_block(side)
            ptr = 0
        self._ptr[side] = ptr
        herald = open_from + self._gaps[side][ptr] - 1
        self._last[side] = herald
        return herald

    def is_true(self, side: int, cycle: int) -> bool:
        """Whether the herald of ``side`` at ``cycle`` is genuine."""
        last = self._last[side]
        if cycle != last or last < 0:
            raise InvariantError(
                f"side {side} asked for the kind at {cycle}, not its last herald {last}"
            )
        return self._marks[side][self._ptr[side]]


def _open_cycles(lo: int, hi: int, warmup: int, total: int) -> int:
    """Measured cycles in the both-open span ``[lo, hi]``."""
    lo = max(lo, warmup)
    hi = min(hi, total - 1)
    return hi - lo + 1 if hi >= lo else 0


def _sim_stats(
    config: SimConfig,
    mode: SimMode,
    heralds: list[int],
    true_pairs: int,
    false_pairs: int,
    one_sided: int,
    both_open: int,
    trace: list[tuple[int, str, str]],
) -> SimStats:
    """Turn one engine's counts into :class:`SimStats`."""
    total, warmup = config.total_cycles, config.warmup_cycles
    measured = total - warmup
    pairs = true_pairs + false_pairs
    tau_c_s = config.tau_c_ns * 1e-9
    rate = pairs / (measured * tau_c_s) if measured > 0 else 0.0
    return SimStats(
        mode=mode.value,
        cycles_run=total,
        warmup_cycles=warmup,
        measured_cycles=measured,
        tau_c_ns=config.tau_c_ns,
        heralds_left=heralds[0],
        heralds_right=heralds[1],
        true_coincidences=true_pairs,
        false_coincidences=false_pairs,
        one_sided_confirms=one_sided,
        open_fraction=both_open / measured if measured > 0 else 0.0,
        rate_hz=rate,
        infidelity_estimate=(false_pairs / pairs) if pairs > 0 else None,
        trace=tuple(trace),
    )


def _run_omniscient(config: SimConfig) -> SimStats:
    """Epoch-driven run where resets follow the omniscient joint rule.

    From a both-open epoch, the first herald closes its side for ``n``
    cycles.  A coincident herald confirms a pair at the window end; a later
    herald on the other side just joins the wait, and in every non-matching
    case both sides reopen together right after the first herald's deadline,
    discarding a herald that lands on the final closed cycle.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    trace_limit = config.trace_limit
    stream = _HeraldStream(config.seed, config.herald)
    heralds = [0, 0]
    true_pairs = false_pairs = both_open = 0
    trace: list[tuple[int, str, str]] = []

    pending = [stream.next_herald(0, 0), stream.next_herald(1, 0)]
    t0 = 0
    while t0 < total:
        t_first = min(pending)
        if t_first >= total:
            both_open += _open_cycles(t0, total - 1, warmup, total)
            break
        both_open += _open_cycles(t0, t_first, warmup, total)
        if pending[0] == pending[1]:
            bin = t_first
            # Both kinds are drawn, as the pair needs both to be genuine.
            true_left = stream.is_true(0, bin)
            true_right = stream.is_true(1, bin)
            for side in (0, 1):
                if bin >= warmup:
                    heralds[side] += 1
                if len(trace) < trace_limit:
                    trace.append((bin, _SIDE_KEYS[side], "herald"))
            confirm = bin + n
            if confirm < total:
                if bin >= warmup:
                    if true_left and true_right:
                        true_pairs += 1
                    else:
                        false_pairs += 1
                if len(trace) < trace_limit:
                    trace.append((confirm, "both", "confirm"))
            t0 = confirm + 1
            if t0 >= total:
                break
            pending = [stream.next_herald(0, t0), stream.next_herald(1, t0)]
        else:
            first = 0 if pending[0] < pending[1] else 1
            second = 1 - first
            bin = pending[first]
            if bin >= warmup:
                heralds[first] += 1
            if len(trace) < trace_limit:
                trace.append((bin, _SIDE_KEYS[first], "herald"))
            late = pending[second]
            second_consumed = late <= bin + n
            if second_consumed and late < total:
                # The open side heralded into the closed window; both reopen
                # together at the first side's deadline.
                if late >= warmup:
                    heralds[second] += 1
                if len(trace) < trace_limit:
                    trace.append((late, _SIDE_KEYS[second], "herald"))
            if len(trace) < trace_limit:
                trace.append((min(bin + n, total - 1), _SIDE_KEYS[first], "timeout"))
            t0 = bin + n + 1
            if t0 >= total:
                break
            pending[first] = stream.next_herald(first, t0)
            if second_consumed:
                pending[second] = stream.next_herald(second, t0)
    return _sim_stats(
        config, SimMode.OMNISCIENT, heralds, true_pairs, false_pairs, 0, both_open, trace
    )


def _run_literal(config: SimConfig) -> SimStats:
    """Event-driven run of the literal message protocol.

    Applies the :func:`receiver_step` rule inline on int-indexed state: per
    side, the held bin (-1 while open), its truth and the next herald
    cycle, plus a queue of in-flight ``(arrival, bin, true)`` announcements
    addressed to that side.  Within a cycle the left side acts first.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    trace_limit = config.trace_limit
    stream = _HeraldStream(config.seed, config.herald)
    heralds = [0, 0]
    true_pairs = false_pairs = one_sided = both_open = 0
    trace: list[tuple[int, str, str]] = []

    held = [-1, -1]
    held_true = [True, True]
    next_herald = [stream.next_herald(0, 0), stream.next_herald(1, 0)]
    inflight: tuple[deque[tuple[int, int, bool]], ...] = (deque(), deque())
    inbox_left, inbox_right = inflight
    open_now, open_since = True, 0

    while True:
        t = held[0] + n if held[0] >= 0 else next_herald[0]
        t_right = held[1] + n if held[1] >= 0 else next_herald[1]
        if t_right < t:
            t = t_right
        if inbox_left and inbox_left[0][0] < t:
            t = inbox_left[0][0]
        if inbox_right and inbox_right[0][0] < t:
            t = inbox_right[0][0]
        if t >= total:
            break

        confirms = 0
        for side in (0, 1):
            inbox = inflight[side]
            msg = inbox.popleft() if inbox and inbox[0][0] == t else None
            bin = held[side]
            if bin >= 0:
                if msg is not None:
                    if msg[1] == bin:
                        event = "confirm"
                        pair = (bin, held_true[side] and msg[2])
                        if confirms and pair != confirmed:
                            raise InvariantError(
                                f"cycle {t}: the two sides confirmed different pairs"
                                f" {confirmed} and {pair}"
                            )
                        confirmed = pair
                        confirms += 1
                    else:
                        event = "mismatch_reset"
                elif t == bin + n:
                    event = "timeout"
                else:
                    continue
                if len(trace) < trace_limit:
                    trace.append((t, _SIDE_KEYS[side], event))
                held[side] = -1
                next_herald[side] = stream.next_herald(side, t + 1)
            else:
                if msg is not None and len(trace) < trace_limit:
                    # An announcement landing on an open receiver carries no news.
                    trace.append((t, _SIDE_KEYS[side], "stale_ignored"))
                if next_herald[side] == t:
                    truth = stream.is_true(side, t)
                    if t >= warmup:
                        heralds[side] += 1
                    if len(trace) < trace_limit:
                        trace.append((t, _SIDE_KEYS[side], "herald"))
                    held[side] = t
                    held_true[side] = truth
                    next_herald[side] = _NEVER
                    inflight[1 - side].append((t + n, t, truth))

        if confirms == 2:
            if confirmed[0] >= warmup:
                if confirmed[1]:
                    true_pairs += 1
                else:
                    false_pairs += 1
        elif confirms == 1:
            # The other side was reset by a stale announcement and its spin
            # is gone; the lone confirmation does not yield a pair.
            one_sided += 1

        if (held[0] < 0 and held[1] < 0) != open_now:
            if open_now:
                both_open += _open_cycles(open_since, t, warmup, total)
            open_now = not open_now
            open_since = t + 1

    if open_now:
        both_open += _open_cycles(open_since, total - 1, warmup, total)
    return _sim_stats(
        config, SimMode.LITERAL, heralds, true_pairs, false_pairs, one_sided, both_open, trace
    )


def des_run(config: SimConfig) -> SimStats:
    """Run the configured simulation; deterministic in the config (incl. seed)."""
    if config.mode is SimMode.OMNISCIENT:
        return _run_omniscient(config)
    return _run_literal(config)
