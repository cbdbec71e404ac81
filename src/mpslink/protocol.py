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
  chain of :mod:`mpslink.markov` exactly; it only counts, and keeps no trace.

Attempts are independent per cycle, so a wait for a herald is geometric
and is drawn in one step, from a keyed Philox stream.
A herald is true with probability ``tf = true_fraction`` independently of
its wait, so a confirmed pair is true with probability ``tf**2``: a literal
run's j-th counted pair takes word j of a stream of its own, an omniscient
epoch draws it with its outcome.  Equal configs give bit-identical runs.

The literal engine takes one step per herald and draws each side's waits
from a stream keyed by (seed, side).  Announcements land in bin
order, so a side that heralds at ``b`` resets at ``r = h + n``, where
``h`` is the other side's earliest herald in ``(b - n, b]``, or at its
deadline ``b + n`` if there is no such herald.  The reset is a confirm if
``h == b``, a mismatch reset if ``h < b`` and a timeout if there is no
``h``.  Heralds are handled in cycle order, both sides together on a tie,
so ``r`` and the side's next herald are known as soon as ``b`` is handled.
Each side keeps a deque of its landings ``h + n``, ending with its pending
herald's, which never pops; so ``r`` is the first landing left after
``b``, capped at ``b + n``.  The warm-up is a first pass over the heralds,
whose counts are dropped, so the measured pass tests no cycle against it.
The omniscient engine is a renewal sampler (Ross, *Stochastic Processes*,
ch. 3).  Its epochs run from both sides open to both sides reopening and
are independent.  An epoch needs only its first herald's wait, of law
``Geom(1 - q**2)`` with ``q = 1 - p``, and its outcome, independent of the
wait: a tie, or one side first with the other heralding within ``n`` cycles
or not.  So a chunk of epochs is drawn whole, as its summed waits and its
outcome counts, from one keyed stream; a chunk that passes the run's end is
split given its summed waits, down to the lone epoch that ends the run.

:func:`receiver_step` states one receiver's transition rule on readable
dataclasses (:class:`Open`, :class:`Closed`, :class:`ClassicalMessage`).
It and its dataclasses, like the per-attempt sampler
:func:`bsm_attempt_sample`, are a test reference and are not exported from
:mod:`mpslink`.  The engines do not call it and allocate no object per
event; the literal one keeps each side's state in plain locals that swap, so
its per-herald rule is written once.  The tests drive a loop over
:func:`receiver_step`, one cycle with an event at a time, as the reference
the literal engine must match field for field.  Invariant violations raise
:class:`InvariantError`, also under ``python -O``.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import sys
import warnings
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .optics import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    SideLoss,
    mps_side_loss,
)
from .rates import TimingParams
# Unused here; benchmarks/tracing.py patches protocol.u01 by name, so it must exist.
from .rng import u01  # noqa: F401

# Longest accepted run (SimConfig caps total_cycles here); no run reaches this cycle.
_NEVER = 2**62
# Longest drawn wait, the first float above _NEVER: a herald with this gap
# lands past every run from any reopening cycle.  Sides with p_any = 0 get it
# for every herald.
_GAP_CAP = int(math.nextafter(float(_NEVER), math.inf))


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


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

    @property
    def pair_true_fraction(self) -> float:
        """Probability that a confirmed pair is true: both of its heralds are."""
        return self.true_fraction * self.true_fraction


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


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run; equal configs give bit-identical stats.

    ``trace_limit`` caps a literal run's event trace.  An omniscient run
    counts only, so it takes ``trace_limit = 0``.
    """

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
        # A plain float or int skips the numbers ABC checks, which cost more
        # than the rest of this method; numpy scalars still take them.
        for name in ("beta_qd", "beta_ms", "p_dc", "tau_c_ns"):
            value = getattr(self, name)
            if type(value) is not float and (
                isinstance(value, bool) or not isinstance(value, numbers.Real)
            ):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))  # numpy floats, as the ints below
        for name in ("beta_qd", "beta_ms", "p_dc"):
            value = getattr(self, name)
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        for name, low in (("n", 1), ("total_cycles", 1), ("seed", 0), ("trace_limit", 0)):
            value = getattr(self, name)
            integral = type(value) is int or (
                not isinstance(value, bool) and isinstance(value, numbers.Integral)
            )
            if not integral or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy ints are not JSON numbers
        if self.trace_limit and self.mode is SimMode.OMNISCIENT:  # it counts only
            raise ValueError(f"trace_limit must be 0 in omniscient mode, got {self.trace_limit!r}")
        if self.total_cycles > _NEVER:
            raise ValueError(f"total_cycles must be <= 2**62, got {self.total_cycles!r}")
        if not math.isfinite(self.tau_c_ns) or self.tau_c_ns <= 0:
            raise ValueError(f"tau_c_ns must be positive and finite, got {self.tau_c_ns!r}")
        if self.tau_c_ns * 1e-9 < sys.float_info.min:  # the rate divides by it
            raise ValueError(f"tau_c_ns * 1e-9 s must be a normal float, got {self.tau_c_ns!r}")
        if 2.0 * self.bsm_variant.dark_count_factor * self.p_dc > 1.0:
            raise ValueError("p_dc too large: per-attempt dark acceptance exceeds 1")
        if self.total_cycles < 10 * self.n:
            level, frame = 1, sys._getframe()  # the caller of __init__, from_*, replace
            while frame.f_back and frame.f_globals.get("__name__") in (__name__, "dataclasses"):
                level, frame = level + 1, frame.f_back
            warnings.warn(
                "total_cycles below 10*n; equilibrium statistics will be unreliable",
                stacklevel=level,
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
        return cls.from_side_loss(
            mps_side_loss(budget, geom, encoding, midpoint),
            TimingParams(tau_c_ns=tau_c_ns, tau_t_us=geom.tau_t_us).n,
            total_cycles=total_cycles,
            seed=seed,
            p_dc=detector.p_dc if detector is not None else 0.0,
            bsm_variant=bsm_variant,
            mode=mode,
            tau_c_ns=tau_c_ns,
            trace_limit=trace_limit,
        )

    @classmethod
    def from_side_loss(cls, side: SideLoss, n: int, **settings) -> "SimConfig":
        """A run of the link whose per-side loss is ``side`` and timeout ``n`` cycles.

        ``settings`` gives the fields past ``n``.  For a caller that has
        worked out ``side`` and ``n`` already, such as a sweep point;
        :meth:`from_hardware` works them out.
        """
        return cls(beta_qd=side.beta_qd, beta_ms=side.beta_ms, n=n, **settings)

    @property
    def herald(self) -> HeraldModel:
        return herald_model(self.beta_qd, self.beta_ms, self.p_dc, self.bsm_variant)

    @property
    def warmup_cycles(self) -> int:
        """Cycles excluded from statistics: the transient from the all-open start."""
        return min(2 * self.n, self.total_cycles)


@dataclass(frozen=True)
class SimStats:
    """Aggregated outcome of one run.  Field names are the JSON contract.

    The herald counts, the pairs (true and false coincidences) and the
    both-open cycles behind ``open_fraction`` exclude the warm-up: they count
    heralds and pair bins from cycle ``warmup_cycles`` on, and open cycles in
    the ``measured_cycles`` after it.  ``one_sided_confirms`` counts from
    cycle 0 in literal runs and is 0 in omniscient ones.  ``trace`` holds a
    literal run's first ``trace_limit`` events; an omniscient run keeps none.
    """

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

# SeedSequence keys: a side's gaps are (seed, side, _GAP), the literal pair
# truths (seed, _BOTH, _TRUTH) and an omniscient run's epochs, its one
# stream, (seed, _BOTH, _GAP).  Only literal runs keep a trace.
_GAP, _TRUTH = 0, 1
_BOTH = 2


# Gaps drawn ahead per literal side, and pair truths per draw.
_BLOCK = 2**11


def _herald_blocks(seed: int, model: HeraldModel, side: int) -> Iterator[np.ndarray]:
    """Per-side herald process in blocks of ``_BLOCK`` gaps (int64); sides 0 (left), 1 (right).

    A receiver attempts every cycle with probability ``p_any``, independently,
    so its wait from reopening at ``open_from`` is geometric: the herald lands
    at ``open_from + gap - 1``, and no attempt made while the side was closed
    is drawn.  Gaps are capped at ``_GAP_CAP``, past every run.  A side's k-th
    herald takes word k of the Philox stream (Salmon et al., SC'11) keyed by
    ``(seed, side, _GAP)``, so a run does not depend on ``_BLOCK``; numpy keeps
    raw Philox words fixed across releases (NEP 19).
    """
    p = model.p_any
    if p <= 0.0:
        while True:
            yield np.full(_BLOCK, _GAP_CAP, np.int64)
    bits = np.random.Philox(np.random.SeedSequence([seed, side, _GAP]))
    log_fail = math.log1p(-p) if p < 1.0 else -math.inf  # p = 1: every gap is 1
    gaps = np.empty(_BLOCK)
    while True:
        # gap = ceil(log1p(-u) / log_fail) in [1, _GAP_CAP], u = (w >> 11) * 2**-53
        words = bits.random_raw(_BLOCK)
        words >>= 11
        np.multiply(words, -(2.0**-53), out=gaps)  # -u, exactly
        np.log1p(gaps, out=gaps)
        # Quotients past 2**64 are capped anyway; clipping the dividend at the
        # exact log_fail * 2**64 keeps them finite for p below about 1e-307.
        np.maximum(gaps, log_fail * 2.0**64, out=gaps)
        np.divide(gaps, log_fail, out=gaps)
        np.ceil(gaps, out=gaps)
        np.maximum(gaps, 1.0, out=gaps)
        np.minimum(gaps, _GAP_CAP, out=gaps)
        yield gaps.astype(np.int64)


def _herald_draws(seed: int, model: HeraldModel, side: int) -> Iterator[int]:
    """:func:`_herald_blocks` one herald at a time, as Python ints.

    ``next()`` on the result runs in C except once per block.
    """
    return itertools.chain.from_iterable(
        map(np.ndarray.tolist, _herald_blocks(seed, model, side))
    )


def _true_pairs(seed: int, model: HeraldModel, pairs: int) -> int:
    """How many of a literal run's ``pairs`` counted pairs are true.

    The j-th counted pair takes word j of the Philox stream keyed by
    ``(seed, _BOTH, _TRUTH)`` and is true iff its uniform ``u`` is below
    ``f = pair_true_fraction``.  For ``f < 1``, ``f * 2**53`` is exact, so
    ``u < f`` iff ``w >> 11 < ceil(f * 2**53)`` iff
    ``w < ceil(f * 2**53) << 11``, which stays below 2**64; the words are
    compared raw, ``_BLOCK`` at a time.  At ``f = 1`` every pair is true and
    nothing is drawn, nor with no pairs.  Only the count of pairs enters, so
    a run does not depend on the trace, on ``_BLOCK`` or on the order in
    which the engine finds its pairs.  Raw words keep literal runs free of
    numpy's algorithms.
    """
    fraction = model.pair_true_fraction
    if fraction >= 1.0 or pairs == 0:
        return pairs
    bits = np.random.Philox(np.random.SeedSequence([seed, _BOTH, _TRUTH]))
    below = np.uint64(math.ceil(fraction * 2.0**53) << 11)
    chunks = (bits.random_raw(min(_BLOCK, pairs - drawn)) for drawn in range(0, pairs, _BLOCK))
    return sum(int(np.count_nonzero(chunk < below)) for chunk in chunks)


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


# The first side to herald in each outcome: a true tie, a false tie, left first
# with the right within n, right first with the left within n, either alone.
_FIRST = (0, 0, 0, 1, 0, 1)
# A chunk of k epochs has k E[L] + _Z sd(M) sqrt(k) within the cycles left.
_Z = 4.0


class _EpochDraws:
    """An omniscient run's epoch draws, from its one Philox stream, keyed ``(seed, _BOTH, _GAP)``.

    The waits ``M ~ Geom(r)``, ``r = 1 - q**2``, of ``k`` epochs sum to
    ``k + NB(k, r)``; their outcome counts, independent of the waits, are
    ``multinomial(k, law)``.  Given its sum, the waits are a uniform
    composition of it into ``k`` parts, so the first ``h`` sum to ``h`` plus a
    beta-binomial of the excess with shapes ``(h, k - h)``.  A counted
    chunk's epochs are never placed.  NEP 19 freezes raw Philox words, not
    ``Generator``'s distributions, so omniscient runs depend on numpy's.
    """

    def __init__(self, config: SimConfig, model: HeraldModel) -> None:
        p, self.n = model.p_any, config.n
        self.log_q = math.log1p(-p) if p < 1.0 else -math.inf  # log q = log(1 - p)
        self.r = -math.expm1(2.0 * self.log_q)  # some side heralds in a cycle
        a, tf2 = p / (2.0 - p), model.pair_true_fraction
        s = (1.0 - a) / 2.0  # (1 - p) / (2 - p); a + 2 s rounds to 1
        sc, alone = s * -math.expm1(self.n * self.log_q), s * math.exp(self.n * self.log_q)
        law = [a * tf2, a * (1.0 - tf2), sc, sc, alone, alone]  # sc = s c with c = 1 - q**n
        self.law = np.array(law)
        # A lone epoch's outcome ends; the last possible outcome takes any rounding.
        self.ends = list(itertools.accumulate(law))[: max(i for i, w in enumerate(law) if w > 0)]
        seeds = np.random.SeedSequence([config.seed, _BOTH, _GAP])
        self.gen = np.random.Generator(np.random.Philox(seeds))

    def span(self, k: int) -> int:
        """The summed first-herald waits of the next ``k`` epochs."""
        if k == 1:
            return int(self.gen.geometric(self.r))
        return k + int(self.gen.negative_binomial(k, self.r))

    def counts(self, k: int) -> list[int]:
        """How many of the next ``k`` epochs have each outcome."""
        return self.gen.multinomial(k, self.law).tolist()

    def split(self, k: int, span: int, head: int) -> int:
        """The summed waits of the first ``head`` of ``k`` epochs whose waits sum to ``span``."""
        return head + int(self.gen.binomial(span - k, self.gen.beta(head, k - head)))

    def single(self) -> tuple[int, int]:
        """The next lone epoch's outcome, from one uniform, and its later herald's
        offset: 0 on a tie, ``n + 1`` if not within ``n``, else the geometric law
        on ``[1, n]`` inverted at a second uniform."""
        outcome = bisect.bisect_right(self.ends, self.gen.random())
        if outcome in (2, 3):
            place = self.gen.random() * math.expm1(self.n * self.log_q)
            return outcome, min(self.n, max(1, math.ceil(math.log1p(place) / self.log_q)))
        return outcome, 0 if outcome < 2 else self.n + 1


def _run_omniscient(config: SimConfig) -> SimStats:
    """Renewal sampler of the omniscient joint rule, a chunk of epochs at a time.

    An epoch starts at ``t0`` with both sides open.  Its first herald closes
    that side for ``n`` cycles and both reopen right after the deadline, so
    it lasts ``L = M + n`` cycles, ``M ~ Geom(1 - q**2)``, ``q = 1 - p``.
    Independently of ``M``, it is a tie with probability ``a = p / (2 - p)``;
    else one side is first, each with ``s = (1 - p) / (2 - p)``, and the
    other, whose wait is memoryless, heralds within ``n`` cycles with
    ``c = 1 - q**n``.  A tie confirms a pair, which is true with ``tf**2``
    independently of all else: a true and a false tie are two outcomes.

    After the warm-up, a chunk takes the largest ``k`` with
    ``k E[L] + _Z sd(M) sqrt(k)`` within the cycles left.  If its summed
    waits end it inside the run, its outcome counts give its heralds and
    pairs.  If not, it is halved, the head's waits drawn given the chunk's,
    until the epoch that ends the run is alone; no chunk is drawn again.
    ``epoch`` plays lone epochs, one uniform each.  The run keeps no trace.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    model = config.herald
    if model.p_any <= 0.0:  # no side ever heralds
        return _sim_stats(config, SimMode.OMNISCIENT, [0, 0], 0, 0, 0, total - warmup, [])
    heralds, ties, both_open = [0, 0], [0, 0], 0  # ties: the true and the false pairs
    draws = _EpochDraws(config, model)

    def epoch(t0: int, gap: int, outcome: int, offset: int) -> int:
        """Play one epoch from ``t0`` on plain ints; return the next epoch's start."""
        nonlocal both_open
        bin = t0 + gap - 1
        both_open += _open_cycles(t0, bin, warmup, total)
        if bin >= total:
            return total
        first, late, end = _FIRST[outcome], bin + offset, bin + n
        if bin >= warmup:
            heralds[first] += 1
        if warmup <= late <= end and late < total:  # the other side heralded into the closed window
            heralds[1 - first] += 1
        if late == bin and warmup <= bin and end < total:  # a tie confirms at the deadline
            ties[outcome] += 1
        return end + 1

    def chunk(t0: int) -> int:
        room, r = total - t0, draws.r
        if t0 < warmup or room * r <= 1.0:
            return 1
        mean, sd = n + 1.0 / r, math.sqrt(1.0 - r) / r  # E[L] and sd(M)
        root = 2.0 * room / (_Z * sd + math.sqrt((_Z * sd) ** 2 + 4.0 * mean * room))
        k = int(root * root)
        # numpy's negative_binomial refuses a Poisson rate whose mean + 10 sd can pass ~9.2e18.
        return k if k > 1 and (1.0 - r) / r * (k + 10.0 * math.sqrt(k)) < 9.2e18 else 1

    def settle(t0: int, k: int, span: int) -> int:
        """Count or play ``k`` epochs from ``t0`` whose waits sum to ``span``; return the
        next epoch's start, at or past ``total`` once the run has ended."""
        nonlocal both_open
        if k == 1:
            return epoch(t0, span, *draws.single())
        end = t0 + span + k * n
        if end > total:
            head = k // 2
            part = draws.split(k, span, head)
            t0 = settle(t0, head, part)
            return settle(t0, k - head, span - part) if t0 < total else t0
        counts = draws.counts(k)
        heralds[0] += k - counts[5]
        heralds[1] += k - counts[4]
        ties[0] += counts[0]
        ties[1] += counts[1]
        both_open += span  # each epoch is open for its M cycles
        return end

    t0 = 0
    while t0 < total:
        k = chunk(t0)
        t0 = settle(t0, k, draws.span(k))
    return _sim_stats(config, SimMode.OMNISCIENT, heralds, *ties, 0, both_open, [])


def _run_literal(config: SimConfig) -> SimStats:
    """Run of the literal message protocol, one step per herald.

    A side that heralds at ``b`` holds its spin and announces ``b``, and the
    announcement lands on the other side at ``b + n``.  The first
    announcement to land while the side holds resets it.  So the side resets
    at ``r = h + n``, where ``h`` is the other side's earliest herald in
    ``(b - n, b]``, or at its deadline ``r = b + n`` if there is no such
    herald.  The reset is a confirm if ``h == b``, a mismatch reset if
    ``h < b`` and a timeout if there is no ``h``.  The side reopens at
    ``r + 1``, so its next herald lands at ``r + gap`` for its next drawn
    ``gap``.  A receiver that ignores some announcements while it holds
    changes only how ``h`` is chosen.

    Heralds are handled in cycle order, both sides together on a tie.  Every
    input to ``r`` is then known when a herald is handled, so the side's next
    draw is taken at once, and each side takes its draws in the order that
    :func:`receiver_step` would.  Side ``me`` heralds next and ``you`` is the
    other: each side's index, next herald, deque of landing cycles, draw
    function and herald count are locals that swap when ``you`` leads, so
    the single-side rule appears once.  A side's deque holds the landings
    ``h + n`` of its heralds that can still reset the other side, then the
    landing of its pending herald.  That last landing lies past the cycle
    being handled, so popping the landings at or before ``b`` never empties
    the deque, and ``r = min(first landing left, b + n)``.  A confirm needs
    the other side to herald in the same cycle, so pairs and one-sided
    confirms come only from ties.  Heralds carry no truth: :func:`_true_pairs`
    splits the counted pairs once the run is over.  Both sides are open
    outside the holds ``(b, r]``.

    The loop runs in two passes, over the heralds before the warm-up's end
    and over the rest.  The first pass's herald, pair and both-open counts
    are dropped and its holds are taken to end at ``warmup - 1`` at the
    earliest, so the second counts from the warm-up's end with no test per
    herald.  One-sided confirms count from cycle 0.

    The trace is rebuilt from the heralds, the resets, and the announcements
    that reset nobody and land on an open side (``stale_ignored``), in the
    order ``(cycle, side, reset before herald)``.  Events are collected until
    ``trace_limit`` heralds lie before the current cycle; every later event
    falls past the trace's end.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    model, trace_limit = config.herald, config.trace_limit
    me, you = 0, 1  # me heralds next; the sides' locals swap when you leads
    draw_me, draw_you = (_herald_draws(config.seed, model, s).__next__ for s in (0, 1))
    next_me, next_you = draw_me() - 1, draw_you() - 1
    sent_me, sent_you = deque([next_me + n]), deque([next_you + n])  # landings, pending last
    one_sided = 0
    closed_to = -1  # last cycle of the holds handled so far

    # Trace notes as (cycle, side, order, event): in one cycle a side's reset
    # or stale announcement (order 0) comes before its herald (order 1).
    notes: list[tuple[int, int, int, str]] = []
    noted: list[tuple[int, int]] = []  # (side, bin) of the heralds noted
    resetting: set[tuple[int, int]] = set()  # (side, bin) of announcements that reset
    tracing = trace_limit > 0

    def note_hold(side: int, b: int, r: int, event: str) -> None:
        noted.append((side, b))
        notes.append((b, side, 1, "herald"))
        if r < total:
            notes.append((r, side, 0, event))
        if event != "timeout":
            resetting.add((1 - side, r - n))

    for stop in (warmup, total):  # the warm-up pass, whose counts are dropped, then the rest
        heralds_me = heralds_you = pairs = both_open = 0
        closed_to = max(closed_to, warmup - 1)  # open cycles count from warmup on
        while True:
            if next_you < next_me:  # one pair per line: cheaper than longer tuple assignments
                me, you = you, me
                next_me, next_you = next_you, next_me
                sent_me, sent_you = sent_you, sent_me
                draw_me, draw_you = draw_you, draw_me
                heralds_me, heralds_you = heralds_you, heralds_me
            b = next_me
            if b >= stop:
                break
            if b > closed_to:  # both sides are open from closed_to + 1 through b
                both_open += b - closed_to
            heralds_me += 1
            deadline = b + n  # also when the announcement of b lands

            if b != next_you:  # me heralds alone
                while sent_you[0] <= b:
                    sent_you.popleft()
                r = sent_you[0]
                if r > deadline:  # only the landing of you's pending herald is left
                    r = deadline
                if r > closed_to:
                    closed_to = r
                if tracing:
                    note_hold(me, b, r, "timeout" if r == deadline else "mismatch_reset")
                    tracing = len(noted) < trace_limit
                next_me = r + draw_me()
                sent_me.append(next_me + n)
                continue

            # Both sides herald at b; each resets on the other's first landing after b.
            for theirs in sent_me, sent_you:
                while theirs[0] <= b:
                    theirs.popleft()
            r_me, r_you = sent_you[0], sent_me[0]
            closed_to = max(closed_to, r_me, r_you)
            heralds_you += 1
            if tracing:
                for side, r in (me, r_me), (you, r_you):
                    note_hold(side, b, r, "confirm" if r == deadline else "mismatch_reset")
                tracing = len(noted) < trace_limit
            next_me, next_you = r_me + draw_me(), r_you + draw_you()
            sent_me.append(next_me + n)
            sent_you.append(next_you + n)
            confirms = (r_me == deadline) + (r_you == deadline)
            if confirms and deadline < total:
                if confirms == 1:
                    # The other side was reset by an earlier announcement and its
                    # spin is gone; the lone confirmation yields no pair.
                    one_sided += 1
                else:
                    pairs += 1

    heralds = [heralds_me, heralds_you] if me == 0 else [heralds_you, heralds_me]
    both_open += _open_cycles(closed_to + 1, total - 1, warmup, total)
    for side, c in noted:
        if (side, c) not in resetting and c + n < total:
            notes.append((c + n, 1 - side, 0, "stale_ignored"))
    notes.sort()
    trace = [(cycle, _SIDE_KEYS[side], event) for cycle, side, _, event in notes[:trace_limit]]
    true_pairs = _true_pairs(config.seed, model, pairs)
    false_pairs = pairs - true_pairs
    return _sim_stats(
        config, SimMode.LITERAL, heralds, true_pairs, false_pairs, one_sided, both_open, trace
    )


def des_run(config: SimConfig) -> SimStats:
    """Run the configured simulation; deterministic in the config (incl. seed)."""
    if config.mode is SimMode.OMNISCIENT:
        return _run_omniscient(config)
    return _run_literal(config)
