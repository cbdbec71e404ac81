"""Receiver state machine, herald sampling and the two simulation engines."""

import collections
import dataclasses
import io
import itertools
import json
import math
import random
import subprocess
import sys
import time
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from mpslink import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    InvariantError,
    LossBudget,
    SimConfig,
    SimMode,
    SimStats,
    des_run,
    herald_model,
    rate_from_stationary,
    stationary_open_prob,
    write_trace_csv,
)
from mpslink.protocol import (
    OPEN,
    ClassicalMessage,
    Closed,
    HeraldKind,
    HeraldRecord,
    Open,
    Side,
    bsm_attempt_sample,
    receiver_step,
)
import mpslink.protocol as protocol
from mpslink.protocol import (
    _NEVER,
    HeraldModel,
    _herald_draws,
    _open_cycles,
    _sim_stats,
    _true_pairs,
)


def _enumerated_side_probs(beta_qd, beta_ms, p_dc, variant):
    """First-order enumeration of photon presence x dark-count completion."""
    both = beta_qd * beta_ms
    one = beta_qd * (1.0 - beta_ms) + beta_ms * (1.0 - beta_qd)
    none = (1.0 - beta_qd) * (1.0 - beta_ms)
    factor = variant.dark_count_factor
    return both, one * (2.0 * factor * p_dc) + none * (factor * p_dc**2)


class TestBsmAttemptSample:
    def test_lossless_always_true_herald(self):
        rng = random.Random(0)
        for _ in range(100):
            assert bsm_attempt_sample(rng, 1.0, 1.0, 0.0) is HeraldKind.TRUE_HERALD

    def test_total_loss_never_true_herald(self):
        rng = random.Random(0)
        kinds = {bsm_attempt_sample(rng, 0.0, 0.0, 0.5) for _ in range(1000)}
        assert HeraldKind.TRUE_HERALD not in kinds

    def test_frequencies_match_enumeration(self):
        beta_qd, beta_ms, p_dc = 0.1, 0.1, 1e-3
        variant = BsmVariant.SINGLET_ONLY
        rng = random.Random(99)
        samples = 300_000
        true_count = false_count = 0
        for _ in range(samples):
            kind = bsm_attempt_sample(rng, beta_qd, beta_ms, p_dc, variant)
            if kind is HeraldKind.TRUE_HERALD:
                true_count += 1
            elif kind is HeraldKind.FALSE_HERALD:
                false_count += 1
        p_true, p_false = _enumerated_side_probs(beta_qd, beta_ms, p_dc, variant)
        for count, prob in ((true_count, p_true), (false_count, p_false)):
            sigma = math.sqrt(samples * prob * (1.0 - prob))
            assert abs(count - samples * prob) <= 3.0 * sigma

    def test_model_matches_enumeration(self):
        for variant in BsmVariant:
            model = herald_model(0.3, 0.07, 1e-4, variant)
            p_true, p_false = _enumerated_side_probs(0.3, 0.07, 1e-4, variant)
            assert model.p_true == pytest.approx(p_true, rel=1e-12)
            assert model.p_false == pytest.approx(p_false, rel=1e-12)


def _herald(cycle, side=Side.LEFT, kind=HeraldKind.TRUE_HERALD):
    return HeraldRecord(cycle=cycle, side=side, kind=kind)


def _message(bin, n, origin=Side.RIGHT, true_herald=True):
    return ClassicalMessage.announce(origin, bin, n, true_herald)


class TestReceiverStep:
    N = 10

    def test_open_herald_closes_and_announces(self):
        state, outgoing, events = receiver_step(OPEN, 7, _herald(7), [], self.N)
        assert state == Closed(bin=7, deadline=17, true_herald=True)
        assert outgoing == [ClassicalMessage(Side.LEFT, 7, 17, True)]
        assert [e.kind for e in events] == ["herald"]

    def test_timeout_at_deadline(self):
        state, outgoing, events = receiver_step(
            Closed(bin=7, deadline=17), 17, None, [], self.N
        )
        assert isinstance(state, Open)
        assert [e.kind for e in events] == ["timeout"]

    def test_matching_announcement_confirms_pair(self):
        state, _, events = receiver_step(
            Closed(bin=7, deadline=17), 17, None, [_message(7, self.N)], self.N
        )
        assert isinstance(state, Open)
        assert events[0].kind == "confirm"
        assert events[0].pair_true is True

    def test_false_herald_taints_pair(self):
        state, _, events = receiver_step(
            Closed(bin=7, deadline=17, true_herald=False),
            17,
            None,
            [_message(7, self.N)],
            self.N,
        )
        assert events[0].pair_true is False

    def test_mismatched_announcement_resets(self):
        state, _, events = receiver_step(
            Closed(bin=7, deadline=17), 13, None, [_message(3, self.N)], self.N
        )
        assert isinstance(state, Open)
        assert [e.kind for e in events] == ["mismatch_reset"]

    def test_open_ignores_announcement(self):
        state, outgoing, events = receiver_step(OPEN, 13, None, [_message(3, self.N)], self.N)
        assert isinstance(state, Open)
        assert outgoing == []
        assert [e.kind for e in events] == ["stale_ignored"]

    def test_closed_holds_between_events(self):
        state, _, events = receiver_step(Closed(bin=7, deadline=17), 12, None, [], self.N)
        assert state == Closed(bin=7, deadline=17)
        assert events == []

    def test_closed_receiver_cannot_herald(self):
        with pytest.raises(InvariantError, match="closed receiver cannot herald"):
            receiver_step(Closed(bin=7, deadline=17), 9, _herald(9), [], self.N)

    def test_misdelivered_message_is_a_bug(self):
        with pytest.raises(InvariantError, match="off its bin \\+ n schedule"):
            receiver_step(OPEN, 12, None, [_message(3, self.N)], self.N)

    def test_invariant_checks_survive_optimized_mode(self):
        code = (
            "from mpslink.protocol import Closed, InvariantError, receiver_step\n"
            "print('debug:', __debug__)\n"
            "try:\n"
            "    receiver_step(Closed(bin=7, deadline=17), 12, None, [], 5)\n"
            "except InvariantError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-O", "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.splitlines() == [
            "debug: False",
            "raised: a held bin's deadline is not bin + n",
        ]


class TestLiteralScenario:
    """Drive receiver_step by hand through the staggered-reset narrative."""

    def test_staggered_heralds_reset_both_then_stale_message_destroys(self):
        n = 4
        # left heralds at 0, right at 2; messages cross with delay n
        left, msgs_l, _ = receiver_step(OPEN, 0, _herald(0, Side.LEFT), [], n)
        right, msgs_r, _ = receiver_step(OPEN, 2, _herald(2, Side.RIGHT), [], n)
        assert left == Closed(0, 4) and right == Closed(2, 6)

        # cycle 4: right gets left's bin-0 announcement (mismatch), left times out
        right, _, ev_r = receiver_step(right, 4, None, msgs_l, n)
        left, _, ev_l = receiver_step(left, 4, None, [], n)
        assert [e.kind for e in ev_r] == ["mismatch_reset"]
        assert [e.kind for e in ev_l] == ["timeout"]

        # left heralds again at 5; right's old bin-2 announcement arrives at 6
        left, _, _ = receiver_step(left, 5, _herald(5, Side.LEFT), [], n)
        left, _, events = receiver_step(left, 6, None, msgs_r, n)
        assert isinstance(left, Open)
        assert [e.kind for e in events] == ["mismatch_reset"]

    def test_coincident_heralds_confirm_on_both_sides(self):
        n = 4
        left, msgs_l, _ = receiver_step(OPEN, 3, _herald(3, Side.LEFT), [], n)
        right, msgs_r, _ = receiver_step(OPEN, 3, _herald(3, Side.RIGHT), [], n)
        left, _, ev_l = receiver_step(left, 7, None, msgs_r, n)
        right, _, ev_r = receiver_step(right, 7, None, msgs_l, n)
        assert ev_l[0].kind == "confirm" and ev_r[0].kind == "confirm"
        assert ev_l[0].bin == ev_r[0].bin == 3


class _ReferenceStream:
    """Herald cycles by call over the engines' per-side draws.

    ``next_herald(side, open_from)`` gives the side's next herald at or
    after its reopening cycle.  A side reopens only after the herald it was
    given last.
    """

    def __init__(self, config):
        self._draws = [_herald_draws(config.seed, config.herald, side) for side in (0, 1)]
        self._last = [-1, -1]

    def next_herald(self, side, open_from):
        assert open_from > self._last[side], (side, open_from, self._last[side])
        self._last[side] = open_from + next(self._draws[side]) - 1
        return self._last[side]


def _pair_truths(config):
    """The truths of a run's counted pairs, in order, one raw word at a time.

    The j-th counted pair takes word j of the Philox stream keyed by
    ``(seed, 2, 1)`` and is true iff its uniform is below ``tf**2``.
    """
    bits = np.random.Philox(np.random.SeedSequence([config.seed, 2, 1]))
    fraction = config.herald.pair_true_fraction
    while True:
        yield (bits.random_raw() >> 11) * 2**-53 < fraction


def _reference_literal(config, log=None):
    """The literal protocol driven through :func:`receiver_step`, one event at a time.

    This is the readable form of the transition rule that ``des_run``
    inlines on ints in literal mode; the two must agree field for field.
    Sides are indexed 0 (left) and 1 (right), as in the engines, and every
    herald is passed as true: a pair's truth comes from :func:`_pair_truths`.
    A ``log`` list receives every ``(cycle, side, event)``, past the trace cap too.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    stream = _ReferenceStream(config)
    truths = _pair_truths(config)
    sides = tuple(Side)  # engine index 0 is Side.LEFT
    names = tuple(side.value for side in sides)
    heralds = [0, 0]
    true_pairs = false_pairs = one_sided = both_open = 0
    trace = []

    def note(cycle, side, event):
        if log is not None:
            log.append((cycle, side, event))
        if len(trace) < config.trace_limit:
            trace.append((cycle, side, event))

    state = [OPEN, OPEN]
    next_herald = [stream.next_herald(i, 0) for i in (0, 1)]
    inflight = [deque(), deque()]  # announcements on their way to each side
    now_open, open_since = True, 0

    while True:
        candidates = []
        for i in (0, 1):
            if isinstance(state[i], Closed):
                candidates.append(state[i].deadline)
            else:
                candidates.append(next_herald[i])
            if inflight[i]:
                candidates.append(inflight[i][0].arrival)
        t = min(candidates)
        if t >= total:
            break

        confirms = []
        for i, side in enumerate(sides):
            inbox = []
            while inflight[i] and inflight[i][0].arrival == t:
                inbox.append(inflight[i].popleft())
            local = None
            if isinstance(state[i], Open) and next_herald[i] == t:
                local = HeraldRecord(cycle=t, side=side, kind=HeraldKind.TRUE_HERALD)
                if t >= warmup:
                    heralds[i] += 1
            due = isinstance(state[i], Closed) and state[i].deadline == t
            if local is None and not inbox and not due:
                continue
            new_state, outgoing, events = receiver_step(state[i], t, local, inbox, n)
            inflight[1 - i].extend(outgoing)
            for event in events:
                note(t, names[i], event.kind)
                if event.kind == "confirm":
                    confirms.append(event)
            if isinstance(new_state, Closed):
                next_herald[i] = _NEVER
            elif isinstance(state[i], Closed):
                next_herald[i] = stream.next_herald(i, t + 1)
            state[i] = new_state

        if len(confirms) == 2:
            left, right = confirms
            assert left.bin == right.bin
            if left.bin >= warmup:
                if next(truths):
                    true_pairs += 1
                else:
                    false_pairs += 1
        elif len(confirms) == 1:
            one_sided += 1

        all_open = isinstance(state[0], Open) and isinstance(state[1], Open)
        if all_open != now_open:
            if now_open:
                both_open += _open_cycles(open_since, t, warmup, total)
            now_open, open_since = all_open, t + 1

    if now_open:
        both_open += _open_cycles(open_since, total - 1, warmup, total)
    return _sim_stats(
        config, SimMode.LITERAL, heralds, true_pairs, false_pairs, one_sided, both_open, trace
    )


def _epoch_draws(config):
    """Each epoch's (first gap, category word), one raw word of each stream at a time.

    The first gap inverts word k of the stream keyed ``(seed, 2, 0)`` by the
    law ``Geom(1 - q**2)``; the category word is word k of ``(seed, 2, 2)``.
    At ``p = 0`` no herald ever comes.
    """
    gap_bits, order_bits = (
        np.random.Philox(np.random.SeedSequence([config.seed, 2, key])) for key in (0, 2)
    )
    p = config.herald.p_any
    while True:
        u = (gap_bits.random_raw() >> 11) * 2**-53
        if p == 0.0:
            gap = math.inf
        elif p == 1.0:
            gap = 1
        else:
            gap = max(1, math.ceil(math.log1p(-u) / (2.0 * math.log1p(-p))))
        yield gap, order_bits.random_raw()


def _category_ends(p, tf2, n):
    """The ends ``a tf**2, a, a + s c, a + 2 s c, a + s + s c`` of the first
    five category intervals, and ``c``, as written in the ``_run_omniscient``
    docstring."""
    c = 1.0 if p == 1.0 else -math.expm1(n * math.log1p(-p))
    a = p / (2.0 - p)
    s = (1.0 - a) / 2.0
    return (a * tf2, a, a + s * c, a + 2.0 * s * c, a + (s + s * c)), c


def _reference_epochs(config):
    """Each epoch's ``(first gap, outcome, later herald's offset)`` from one
    (first gap, category word) of :func:`_epoch_draws`.

    The word's uniform ``u`` falls into one of six intervals, the outcomes
    in order: a true tie, a false tie, left first with the right side within
    ``n`` cycles, right first with the left within ``n``, left first alone,
    right first alone.  Within ``n``, the later herald's offset inverts the
    truncated geometric law at the word's place inside its interval; it is 0
    on a tie and ``n + 1`` alone.
    """
    n, p = config.n, config.herald.p_any
    ends, c = _category_ends(p, config.herald.pair_true_fraction, n)
    steps = [math.ceil(t * 2**53) for t in ends]  # the ends in steps of 2**-53
    for gap, word in _epoch_draws(config):
        outcome = sum((word >> 11) * 2**-53 >= t for t in ends)
        if outcome in (2, 3):
            lo, hi = steps[outcome - 1], steps[outcome]
            place = ((word >> 11) - lo) / (hi - lo)
            offset = min(n, max(1, math.ceil(math.log1p(-place * c) / math.log1p(-p))))
        else:
            offset = 0 if outcome < 2 else n + 1
        yield gap, outcome, offset


def _reference_omniscient(config):
    """The omniscient rule as a scalar loop over epochs, one ``(first gap,
    outcome, offset)`` of :func:`_reference_epochs` each.

    An epoch's first herald comes ``gap`` cycles after it starts, and the
    other side's, if any, ``offset`` cycles after that.  A counted pair is
    true on a true tie.  ``des_run`` draws the same law a chunk of epochs at
    a time in omniscient mode; with :class:`_ReferenceDraws` standing in for
    its draws, the two must agree field for field.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    epochs = _reference_epochs(config)
    heralds = [0, 0]
    true_pairs = false_pairs = both_open = 0
    t0 = 0
    while t0 < total:
        gap, outcome, offset = next(epochs)
        bin = t0 + gap - 1
        if bin >= total:
            both_open += _open_cycles(t0, total - 1, warmup, total)
            break
        both_open += _open_cycles(t0, bin, warmup, total)
        first = (0, 0, 0, 1, 0, 1)[outcome]
        second = 1 - first
        late = bin + offset
        if bin >= warmup:
            heralds[first] += 1
        deadline = bin + n
        if late <= deadline and late < total:
            # The open side heralded into the closed window; both reopen
            # together after the first side's deadline.
            if late >= warmup:
                heralds[second] += 1
        if late == bin and deadline < total and bin >= warmup:
            if outcome == 0:
                true_pairs += 1
            else:
                false_pairs += 1
        t0 = deadline + 1
    return _sim_stats(
        config, SimMode.OMNISCIENT, heralds, true_pairs, false_pairs, 0, both_open, []
    )


_ENGINE_DRAWS = protocol._EpochDraws


class _ReferenceDraws:
    """Stands in for ``protocol._EpochDraws``: a chunk's epochs are drawn one by
    one from :func:`_reference_epochs`, and its summed waits, outcome counts
    and splits, and a lone epoch's outcome and offset, are read off them.

    The engine settles a chunk's epochs front to back, so the epochs of the
    chunk or part it asks about are always at the front of ``pending``.
    """

    def __init__(self, config, model):
        self.r = _ENGINE_DRAWS(config, model).r  # the engine's chunk sizes
        self.epochs = _reference_epochs(config)
        self.pending = deque()  # epochs drawn and not yet counted or played

    def span(self, k):
        drawn = [next(self.epochs) for _ in range(k)]
        self.pending.extend(drawn)
        return sum(gap for gap, _, _ in drawn)

    def split(self, k, span, head):
        assert sum(self.pending[i][0] for i in range(k)) == span
        return sum(self.pending[i][0] for i in range(head))

    def counts(self, k):
        counted = [self.pending.popleft() for _ in range(k)]
        return [sum(outcome == o for _, outcome, _ in counted) for o in range(6)]

    def single(self):
        _, outcome, offset = self.pending.popleft()
        return outcome, offset


def _random_small_config(rng, mode=SimMode.LITERAL):
    n = rng.choice([1, 2, 3, 5, 8, 20])
    beta_qd = rng.choice([0.0, 1.0, rng.random(), rng.random()])
    beta_ms = rng.choice([1.0, rng.random(), rng.random() ** 2])
    fields = dict(
        beta_qd=beta_qd,
        beta_ms=beta_ms,
        n=n,
        total_cycles=rng.choice([n, 3 * n, rng.randint(1, 3000)]),
        seed=rng.randrange(1 << 30),
        p_dc=rng.choice([0.0, 0.0, 0.01, 0.2]),
        bsm_variant=rng.choice(list(BsmVariant)),
        trace_limit=rng.choice([0, 4, 100]),  # drawn in both modes, so no later config shifts
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # some runs are shorter than 10n
        return _sim_config(mode, fields)


def _sim_config(mode, fields):
    """``SimConfig(mode=mode, **fields)``, with no trace in omniscient mode, which counts only."""
    if mode is SimMode.OMNISCIENT:
        fields = {**fields, "trace_limit": 0}
    return SimConfig(mode=mode, **fields)


def _coverage(config, stats):
    """The corner cases one random config and its run hit, by name."""
    p = config.herald.p_any
    return {
        ("n=1", config.n == 1),
        ("p=0", p == 0.0),
        ("p=1", p == 1.0),
        ("dark counts", config.p_dc > 0.0 and stats.false_coincidences > 0),
        ("short run", config.total_cycles < 10 * config.n),
        ("warm-up is the run", config.warmup_cycles == config.total_cycles),
    }


# Runs of several default blocks of herald draws.
BLOCK_CASES = {
    # About 10k heralds per side: five default blocks.
    "many_blocks": dict(
        beta_qd=0.9, beta_ms=0.9, n=5, total_cycles=60_000, seed=21, p_dc=0.02,
        trace_limit=40,
    ),
    "p001_n500": dict(beta_qd=1.0, beta_ms=0.01, n=500, total_cycles=300_000, seed=4),
    "n1": dict(beta_qd=0.6, beta_ms=0.5, n=1, total_cycles=20_000, seed=9, p_dc=0.01),
}

# The literal engine also runs at p·n = 25, where almost every hold ends in
# a mismatch reset; about 2200 heralds per side.
LITERAL_BLOCK_CASES = {
    **BLOCK_CASES,
    "pn25": dict(
        beta_qd=1.0, beta_ms=0.025, n=1000, total_cycles=1_200_000, seed=1, trace_limit=60
    ),
}


class TestLiteralEngineMatchesReceiverStep:
    def test_random_small_configs(self):
        rng = random.Random(20131)
        seen = set()
        for _ in range(200):
            config = _random_small_config(rng)
            stats, log = des_run(config), []
            assert stats == _reference_literal(config, log), config
            events = {event for _, _, event in stats.trace}
            heralded = {cycle for cycle, _, event in log if event == "herald"}
            # A confirm on one side only is one-sided; its bin is n cycles before it.
            confirms = collections.Counter(cycle for cycle, _, event in log if event == "confirm")
            warmup = config.warmup_cycles
            seen |= _coverage(config, stats) | {
                ("trace cap", 0 < len(stats.trace) == config.trace_limit),
                ("one-sided confirm", stats.one_sided_confirms > 0),
                ("stale announcement", "stale_ignored" in events),
                ("mismatch reset", "mismatch_reset" in events),
                ("confirm", "confirm" in events),
                # The engine's warm-up pass ends between these two heralds.
                ("herald on cycle warmup - 1", warmup - 1 in heralded),
                ("herald on cycle warmup", warmup in heralded),
                (
                    "one-sided confirm in the warm-up",
                    any(k == 1 and c - config.n < warmup for c, k in confirms.items()),
                ),
            }
        assert {name for name, hit in seen if hit} == {name for name, _ in seen}

    @pytest.mark.parametrize("case", sorted(LITERAL_BLOCK_CASES))
    def test_runs_of_many_blocks(self, case):
        config = SimConfig(mode=SimMode.LITERAL, **LITERAL_BLOCK_CASES[case])
        assert des_run(config) == _reference_literal(config)

    def test_every_trace_cap_keeps_the_first_events(self):
        """The engine stops collecting trace events once the cap is met by
        heralds of earlier cycles; each cap must still give the full trace's
        first events."""
        config = SimConfig(
            beta_qd=0.6, beta_ms=0.5, n=3, total_cycles=400, seed=7, p_dc=0.01,
            mode=SimMode.LITERAL, trace_limit=10_000,
        )
        full = des_run(config)
        assert full == _reference_literal(config)
        assert {event for _, _, event in full.trace[:12]} == {
            "herald", "confirm", "mismatch_reset", "timeout", "stale_ignored"
        }
        for cap in range(1, 60):
            assert des_run(dataclasses.replace(config, trace_limit=cap)).trace == full.trace[:cap]


def _drawn_by_reference(monkeypatch):
    """Put :class:`_ReferenceDraws` in place of the engine's draws; return a
    count of the draws the engine asked for, by kind."""
    calls = collections.Counter()

    class Recorded(_ReferenceDraws):
        def split(self, *args):
            calls["split"] += 1
            return super().split(*args)

        def counts(self, k):
            calls["chunk"] += 1
            return super().counts(k)

        def single(self):
            calls["single"] += 1
            return super().single()

    monkeypatch.setattr(protocol, "_EpochDraws", Recorded)
    return calls


class TestOmniscientEngineMatchesReference:
    """With :class:`_ReferenceDraws` standing in for the engine's draws, every
    chunk's sums and splits are read off epochs drawn one at a time, so
    ``des_run`` must equal :func:`_reference_omniscient` field for field.  At
    ``_Z = -2`` most chunks pass the run's end and are halved down to the
    epoch that ends it."""

    def test_random_small_configs(self, monkeypatch):
        calls = _drawn_by_reference(monkeypatch)
        for z in (protocol._Z, -2.0):
            monkeypatch.setattr(protocol, "_Z", z)
            rng = random.Random(20132)
            seen = set()
            for _ in range(200):
                config = _random_small_config(rng, SimMode.OMNISCIENT)
                stats = des_run(config)
                assert stats == _reference_omniscient(config), (z, config)
                seen |= _coverage(config, stats)
            assert {name for name, hit in seen if hit} == {name for name, _ in seen}
        assert min(calls.values()) >= 50, calls
        assert set(calls) == {"split", "chunk", "single"}

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_runs_of_many_blocks(self, case, monkeypatch):
        calls = _drawn_by_reference(monkeypatch)
        config = _sim_config(SimMode.OMNISCIENT, BLOCK_CASES[case])
        for z in (protocol._Z, -2.0):
            monkeypatch.setattr(protocol, "_Z", z)
            assert des_run(config) == _reference_omniscient(config), z
        assert calls["chunk"] > 0 and calls["split"] > 0

    @pytest.mark.parametrize("beta_qd, beta_ms, n, p_dc", [(1.0, 0.3, 3, 0.0), (0.5, 0.4, 20, 0.02)])
    def test_overshooting_chunks_keep_the_law(self, beta_qd, beta_ms, n, p_dc, monkeypatch):
        """With the engine's own draws and ``_Z = -2``, nearly every chunk
        passes the run's end and is halved.  Over 300 seeds its mean pairs,
        heralds per side and both-open fraction match the reference's, drawn
        one epoch at a time, within 4 SE of their difference."""
        splits = []
        split = protocol._EpochDraws.split

        def counted(self, *args):
            splits.append(args)
            return split(self, *args)

        monkeypatch.setattr(protocol._EpochDraws, "split", counted)
        monkeypatch.setattr(protocol, "_Z", -2.0)
        base = dict(beta_qd=beta_qd, beta_ms=beta_ms, n=n, total_cycles=3000, p_dc=p_dc)
        runs = {"engine": [], "reference": []}
        for seed in range(300):
            config = SimConfig(seed=seed, **base)
            runs["engine"].append(des_run(config))
            runs["reference"].append(_reference_omniscient(config))
        assert len(splits) >= 300  # halvings: these runs keep no trace
        fields = ("true_coincidences", "false_coincidences", "heralds_left", "heralds_right",
                  "open_fraction")
        for field in fields:
            engine, reference = (np.array([getattr(s, field) for s in runs[k]]) for k in runs)
            se = math.sqrt((engine.var(ddof=1) + reference.var(ddof=1)) / len(engine))
            assert abs(engine.mean() - reference.mean()) <= 4.0 * se, field


class TestHeraldStream:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_does_not_change_the_run(self, case, monkeypatch):
        """Neither engine depends on ``_BLOCK``: the literal sides' gaps and
        pair truths are drawn ahead in blocks of it, and the omniscient engine
        does not read it."""
        configs = [_sim_config(mode, BLOCK_CASES[case]) for mode in SimMode]
        expected = [des_run(config) for config in configs]
        herald_blocks = protocol._herald_blocks
        for block in (1, 7):
            sizes = []

            def blocks(*args):
                for drawn in herald_blocks(*args):
                    sizes.append(len(drawn))
                    yield drawn

            monkeypatch.setattr(protocol, "_BLOCK", block)
            monkeypatch.setattr(protocol, "_herald_blocks", blocks)
            assert [des_run(config) for config in configs] == expected, block
            # The patched size took effect: every block has it, and every
            # counted literal herald drew a gap.
            assert set(sizes) == {block}
            literal = expected[list(SimMode).index(SimMode.LITERAL)]
            assert len(sizes) * block >= literal.heralds_left + literal.heralds_right

    def test_swapped_streams_mirror_the_run(self, monkeypatch):
        """Swapping the sides' draws mirrors the run: the herald counts trade
        places and the trace swaps left and right.  The literal sides swap
        gap streams, which pins the literal engine's swapped per-side locals,
        whichever side ends the run.  The omniscient outcomes trade left-first
        and right-first, in a chunk's counts and in every lone epoch, with the
        same draws, which pins which side each outcome and each chunk count
        stands for."""
        rng = random.Random(20134)
        cap = 10**6  # above every run's event count, so a literal run's whole trace is kept
        configs = [
            _sim_config(mode, {**BLOCK_CASES[case], "trace_limit": limit})
            for case in sorted(BLOCK_CASES)
            for mode, limits in ((SimMode.LITERAL, (0, cap)), (SimMode.OMNISCIENT, (0,)))
            for limit in limits
        ]
        blocks = len(configs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some runs are shorter than 10n
            configs += [
                dataclasses.replace(_random_small_config(rng, mode), trace_limit=limit)
                for mode, limit in ((SimMode.LITERAL, cap), (SimMode.OMNISCIENT, 0))
                for _ in range(50)
            ]
        runs = [des_run(config) for config in configs]
        herald_blocks = protocol._herald_blocks
        monkeypatch.setattr(
            protocol, "_herald_blocks", lambda seed, model, side: herald_blocks(seed, model, 1 - side)
        )
        swap = (0, 1, 3, 2, 5, 4)  # left first <-> right first

        class Mirrored(_ENGINE_DRAWS):
            def counts(self, k):
                counts = super().counts(k)
                return [counts[s] for s in swap]

            def single(self):
                outcome, offset = super().single()
                return swap[outcome], offset

        monkeypatch.setattr(protocol, "_EpochDraws", Mirrored)
        mirror = {"left": "right", "right": "left", "both": "both"}
        for config, stats in zip(configs, runs):
            swapped = des_run(config)
            assert len(stats.trace) < cap
            assert (swapped.heralds_left, swapped.heralds_right) == (
                stats.heralds_right, stats.heralds_left
            ), config
            others = dict(heralds_left=stats.heralds_left, heralds_right=stats.heralds_right)
            assert dataclasses.replace(swapped, **others, trace=stats.trace) == stats, config
            assert sorted((c, mirror[side], e) for c, side, e in swapped.trace) == sorted(
                stats.trace
            ), config
        # The check is not vacuous: runs have ties and unequal sides in both modes.
        small = runs[blocks:]
        for mode in SimMode:
            runs_of_mode = [s for s in small if s.mode == mode.value]
            assert sum(s.true_coincidences + s.false_coincidences > 0 for s in runs_of_mode) >= 5
            assert sum(s.heralds_left != s.heralds_right for s in runs_of_mode) >= 10
        assert any(s.one_sided_confirms for s in small)

    @pytest.mark.parametrize("p_true, p_false", [(0.008, 0.002), (0.2, 0.1)])
    def test_gaps_follow_the_geometric_law(self, p_true, p_false):
        model = HeraldModel(p_true=p_true, p_false=p_false)
        p, count = model.p_any, 100_000
        gaps = list(itertools.islice(_herald_draws(5, model, 0), count))
        assert min(gaps) >= 1
        gap_se = math.sqrt((1.0 - p) / p**2 / count)
        assert abs(sum(gaps) / count - 1.0 / p) <= 4.0 * gap_se

    @pytest.mark.parametrize("p_true, p_false", [(0.008, 0.002), (0.2, 0.1)])
    def test_pair_truths_follow_the_bernoulli_law(self, p_true, p_false):
        """A confirmed pair is true iff both of its heralds are, each with
        probability ``true_fraction`` and independently of the gaps."""
        model = HeraldModel(p_true=p_true, p_false=p_false)
        fraction, count = model.true_fraction**2, 100_000
        assert model.pair_true_fraction == pytest.approx(fraction, rel=1e-15)
        true = _true_pairs(5, model, count)
        se = math.sqrt(fraction * (1.0 - fraction) / count)
        assert abs(true / count - fraction) <= 4.0 * se

    def test_gaps_are_the_scalar_inversion_of_raw_philox_words(self):
        """Each wait is ``max(1, ceil(log1p(-u) / log1p(-p)))`` of a uniform
        built from one raw 64-bit Philox word, the stream numpy keeps fixed
        across releases; the loop here is the scalar reference."""
        model = HeraldModel(p_true=0.2, p_false=0.1)
        log_fail = math.log1p(-model.p_any)
        count = 3000
        assert 1 < count / protocol._BLOCK < 2  # spans two blocks
        words = np.random.Philox(np.random.SeedSequence([5, 1, 0])).random_raw(count).tolist()
        draws = _herald_draws(5, model, 1)
        for word in words:
            gap = max(1, math.ceil(math.log1p(-((word >> 11) * 2**-53)) / log_fail))
            assert next(draws) == gap

    @pytest.mark.parametrize("p_true, p_false", [(0.2, 0.1), (0.3, 0.003), (0.01, 0.09)])
    def test_pair_truths_are_the_scalar_test_of_raw_philox_words(self, p_true, p_false):
        """The j-th counted pair is true iff ``u < true_fraction**2`` for the
        uniform ``u`` of word j of the stream keyed ``(seed, 2, 1)``; the
        engines compare the raw words to an integer threshold instead, a
        block at a time."""
        model = HeraldModel(p_true=p_true, p_false=p_false)
        words = np.random.Philox(np.random.SeedSequence([5, 2, 1])).random_raw(5000).tolist()
        truths = [(word >> 11) * 2**-53 < model.pair_true_fraction for word in words]
        assert 0 < sum(truths) < len(truths)
        assert 2 < len(words) / protocol._BLOCK < 3  # spans three blocks
        for pairs in (0, 1, 2, 7, 500, protocol._BLOCK, protocol._BLOCK + 1, len(words)):
            assert _true_pairs(5, model, pairs) == sum(truths[:pairs]), pairs

    def test_pair_truth_threshold_is_exact_next_to_a_word(self):
        """With ``tf**2`` half a step above the uniform of one word, that word
        is true by ``u < tf**2``; a raw threshold rounded down would call it
        false.  The word is a small one, so ``tf**2`` can be set that finely."""
        words = np.random.Philox(np.random.SeedSequence([5, 2, 1])).random_raw(2**15).tolist()
        j = next(j for j, word in enumerate(words) if word >> 11 < 2**40)
        root = math.sqrt(((words[j] >> 11) + 0.5) * 2**-53)
        model = HeraldModel(p_true=root, p_false=1.0 - root)
        step = words[j] >> 11
        assert step < model.pair_true_fraction * 2**53 < step + 1
        truths = [(word >> 11) * 2**-53 < model.pair_true_fraction for word in words[:j]]
        assert _true_pairs(5, model, j) == sum(truths)
        assert _true_pairs(5, model, j + 1) == sum(truths) + 1

    def test_certain_and_impossible_heralds(self):
        never = HeraldModel(p_true=0.0, p_false=0.0)
        always = HeraldModel(p_true=1.0, p_false=0.0)
        for side in (0, 1):
            for open_from, gap in zip((0, 1, 17, 5000), _herald_draws(3, never, side)):
                assert open_from + gap - 1 >= _NEVER
            assert list(itertools.islice(_herald_draws(3, always, side), 5)) == [1] * 5
        # Every pair of an always-true model is true, and none of a never-true one.
        assert _true_pairs(3, always, 1000) == 1000
        assert _true_pairs(3, HeraldModel(p_true=0.0, p_false=0.4), 1000) == 0

    @pytest.mark.parametrize("p, n", [(0.3, 2), (0.1, 5), (0.02, 30)])
    def test_epoch_draws_follow_their_law(self, p, n):
        """Each draw of the omniscient engine against the law its docstring
        states, within 4 SE: a lone epoch's wait is ``Geom(1 - q**2)`` in mean
        and tail; a chunk's summed waits have the mean and variance of ``k``
        such waits; its outcome counts have the frequencies ``a tf**2``,
        ``a (1 - tf**2)``, ``s c``, ``s c``, ``s (1 - c)``, ``s (1 - c)``, here
        from the joint law of two independent geometric waits; a split's head
        has the mean and variance of a uniform composition's first parts
        (beta-binomial).  Dark counts make some heralds false, so both kinds
        of tie come."""
        config = SimConfig(beta_qd=1.0, beta_ms=p, n=n, total_cycles=10**6, seed=5, p_dc=0.01)
        draws = protocol._EpochDraws(config, config.herald)
        p, tf2 = config.herald.p_any, config.herald.pair_true_fraction
        assert 0.0 < tf2 < 1.0
        q = 1.0 - p
        first = 1.0 - q * q  # some side heralds in a cycle

        def within_4_se(values, mean, variance):
            return abs(np.mean(values) - mean) <= 4.0 * math.sqrt(variance / len(values))

        def frequency_within_4_se(hits, count, probability):
            return within_4_se([1.0] * hits + [0.0] * (count - hits), probability,
                               probability * (1.0 - probability))

        gaps = np.array([draws.span(1) for _ in range(20_000)])
        assert gaps.min() >= 1
        assert within_4_se(gaps, 1.0 / first, q * q / first**2)
        for g in (1, 2, round(1.0 / first), round(3.0 / first)):
            assert frequency_within_4_se(np.count_nonzero(gaps > g), len(gaps), q ** (2 * g)), g

        k = 50
        spans = np.array([draws.span(k) for _ in range(4000)], float)
        mean, variance = k / first, k * q * q / first**2
        assert within_4_se(spans, mean, variance)
        # Sample variance of a sum of k geometric waits, excess kurtosis (6 + r**2 / q**2) / k.
        kurtosis = (6.0 + first**2 / (q * q)) / k
        se = variance * math.sqrt(2.0 / (len(spans) - 1) + kurtosis / len(spans))
        assert abs(spans.var(ddof=1) - variance) <= 4.0 * se

        c = 1.0 - q**n
        tie, alone = p * p / first, p * q / first
        law = [tie * tf2, tie * (1.0 - tf2), alone * c, alone * c, alone * (1.0 - c),
               alone * (1.0 - c)]
        assert draws.law.tolist() == pytest.approx(law, rel=1e-12, abs=1e-300)
        counts = np.sum([draws.counts(1000) for _ in range(100)], axis=0)
        for hits, probability in zip(counts, law):
            assert frequency_within_4_se(int(hits), 100_000, probability), (hits, probability)

        k, span, head = 20, 20 + 37, 7  # an excess of 37 cycles over the waits' minimum
        heads = np.array([draws.split(k, span, head) for _ in range(20_000)]) - head
        excess, alpha, beta = span - k, head, k - head
        mean = excess * alpha / k
        variance = excess * alpha * beta * (excess + k) / (k * k * (k + 1))
        assert within_4_se(heads, mean, variance)
        assert abs(heads.var(ddof=1) - variance) <= 0.05 * variance
        assert heads.min() >= 0 and heads.max() <= excess

    @pytest.mark.parametrize(
        "p_true, p_false, n",
        [
            (0.05, 0.03, 8),  # every outcome
            (0.2, 0.0, 5),  # tf = 1: no false tie
            (0.0, 0.1, 5),  # tf = 0: no true tie
            (0.6, 0.4, 5),  # p = 1: ties only
            (1.0, 0.0, 5),  # p = 1, tf = 1: true ties only
        ],
    )
    def test_lone_epochs_follow_the_law(self, p_true, p_false, n):
        """``single`` draws a lone epoch's outcome from one uniform of the run's
        stream, bisected against the law's cumulative ends, and a second
        uniform only to place a later herald within ``n``.  Over 40000 draws
        each outcome's frequency lies within 4 SE (z = 4) of ``law``, so an
        outcome of probability 0 never comes; a later herald within ``n``
        lands at offset ``d`` with the geometric law on ``[1, n]``,
        ``q**(d - 1) p / c``; a tie's offset is 0 and a lone side's ``n + 1``."""
        model = HeraldModel(p_true=p_true, p_false=p_false)
        config = SimConfig(beta_qd=0.5, beta_ms=0.5, n=n, total_cycles=10**6, seed=5)
        draws = protocol._EpochDraws(config, model)
        count = 40_000
        singles = [draws.single() for _ in range(count)]
        law = draws.law.tolist()
        assert math.fsum(law) == pytest.approx(1.0, abs=1e-15)
        hits = collections.Counter(outcome for outcome, _ in singles)
        assert set(hits) <= set(range(6))
        for outcome, probability in enumerate(law):
            se = math.sqrt(probability * (1.0 - probability) / count)
            assert abs(hits[outcome] / count - probability) <= 4.0 * se, (outcome, probability)
        # The same stream from its start: one uniform per epoch, two within n.
        twin = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 2, 0])))
        ends = list(itertools.accumulate(law))
        last = max(o for o, probability in enumerate(law) if probability > 0)
        for outcome, offset in singles[:5000]:
            u = twin.random()
            assert (ends[outcome - 1] if outcome else 0.0) <= u, (outcome, u)
            assert u < ends[outcome] or outcome == last, (outcome, u)
            if outcome in (2, 3):
                twin.random()
            else:
                assert offset == (0 if outcome < 2 else n + 1)
        p = model.p_any
        offsets = [offset for outcome, offset in singles if outcome in (2, 3)]
        assert bool(offsets) == (p < 1.0)
        if offsets:
            q, c = 1.0 - p, 1.0 - (1.0 - p) ** n
            for d in range(1, n + 1):
                probability = q ** (d - 1) * p / c
                se = math.sqrt(probability * (1.0 - probability) / len(offsets))
                assert abs(offsets.count(d) / len(offsets) - probability) <= 4.0 * se, d

    @pytest.mark.parametrize("beta_qd, n", [(0.003, 3), (0.5, 2000)])
    def test_outcome_law_at_its_edges(self, beta_qd, n):
        """The outcome law sums to 1 and its cumulative ends are the six
        intervals the reference sorts a word into.  At ``p n > 745`` (the
        second case) ``q**n`` underflows, so ``c = 1`` and the alone outcomes
        have probability 0 exactly: every epoch heralds on both sides, in
        chunks counted whole and in lone epochs."""
        config = SimConfig(beta_qd=beta_qd, beta_ms=1.0, n=n, total_cycles=10**6, seed=5)
        law = protocol._EpochDraws(config, config.herald).law.tolist()
        ends, c = _category_ends(config.herald.p_any, config.herald.pair_true_fraction, n)
        assert math.fsum(law) == pytest.approx(1.0, abs=1e-15)
        assert list(itertools.accumulate(law))[:5] == pytest.approx(ends, rel=1e-15)
        if n == 2000:
            assert c == 1.0 and law[4:] == [0.0, 0.0]
        stats = des_run(config)
        assert stats.true_coincidences > 0
        assert (stats.heralds_left == stats.heralds_right) == (n == 2000)

    def test_certain_and_impossible_epochs(self, monkeypatch):
        """At ``p = 1`` every wait is 1 and every epoch a tie, so a run draws
        nothing that matters: it equals the reference and every other seed's
        run.  At ``p = 0`` no herald comes, and the engine draws nothing."""
        lossless = SimConfig(beta_qd=1.0, beta_ms=1.0, n=7, total_cycles=5000, seed=3)
        draws = protocol._EpochDraws(lossless, lossless.herald)
        assert draws.law.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert [draws.span(k) for k in (1, 2, 1000)] == [1, 2, 1000]
        assert draws.counts(1000) == [1000, 0, 0, 0, 0, 0]
        assert {draws.single() for _ in range(1000)} == {(0, 0)}
        stats = des_run(lossless)
        assert stats == _reference_omniscient(lossless)
        assert stats == des_run(dataclasses.replace(lossless, seed=4))
        epochs = _expected_lossless_pairs(5000, 7, stats.warmup_cycles)
        assert stats.heralds_left == stats.heralds_right == stats.true_coincidences == epochs

        def no_draws(*args):
            raise AssertionError("drew at p = 0")

        monkeypatch.setattr(protocol, "_EpochDraws", no_draws)
        dark = SimConfig(beta_qd=0.0, beta_ms=0.5, n=7, total_cycles=5000, seed=3)
        stats = des_run(dark)
        assert stats == _reference_omniscient(dark)
        assert stats.heralds_left == stats.heralds_right == 0
        assert stats.open_fraction == 1.0 and stats.trace == ()


def _edges_or(values, drawn):
    return st.one_of(st.sampled_from(values), drawn)


# Edge values for every SimConfig field: subnormals, p_any near 2**-62,
# certain heralds, timeouts past int64 and runs of up to 2**62 cycles.
_PROBABILITY = _edges_or(
    [0.0, 5e-324, 1e-310, 2.0**-62, 2.0**-60, 2.0**-31, 0.5, 1.0 - 2.0**-53, 1.0],
    st.floats(min_value=0.0, max_value=1.0),
)
_CONFIGS = st.fixed_dictionaries({
    "beta_qd": _PROBABILITY,
    "beta_ms": _PROBABILITY,
    "p_dc": _edges_or([0.0, 5e-324, 1e-6, 0.25], st.floats(min_value=0.0, max_value=0.3)),
    "n": _edges_or([1, 2, 100, 10**6, 2**62, 2**70], st.integers(min_value=1, max_value=10**6)),
    "total_cycles": _edges_or(
        [1, 10, 10**6, 10**12, _NEVER - 1, _NEVER], st.integers(min_value=1, max_value=_NEVER)
    ),
    "seed": _edges_or([0, 2**64 - 1], st.integers(min_value=0, max_value=2**64 - 1)),
    "tau_c_ns": _edges_or(
        [5e-324, 1e-300, 1e-290, 500.0, 1.7e308], st.floats(min_value=1e-300, max_value=1e300)
    ),
    "bsm_variant": st.sampled_from(list(BsmVariant)),
    "trace_limit": st.sampled_from([0, 1, 25]),
})


_EDGE_RUN = dict(
    beta_ms=1.0, p_dc=0.0, n=1, total_cycles=_NEVER, seed=1, tau_c_ns=500.0,
    bsm_variant=BsmVariant.SINGLET_ONLY, trace_limit=25,
)


class TestSimConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            SimConfig(beta_qd=1.5, beta_ms=0.5, n=10, total_cycles=1000)

    def test_rejects_non_integer_counts(self):
        """``n`` and ``total_cycles`` follow the rule of ``markov``'s ``n``: an
        int, not a bool.  A float ``n`` used to give a float warm-up, and a
        float ``total_cycles`` a fractional ``measured_cycles``."""
        cases = (
            ("n", dict(n=2.5, total_cycles=1000)),
            ("n", dict(n=500.0, total_cycles=10_000)),
            ("n", dict(n=True, total_cycles=1000)),
            ("total_cycles", dict(n=1, total_cycles=1000.5)),
        )
        for key, counts in cases:
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                SimConfig(beta_qd=0.5, beta_ms=0.5, **counts)

    def test_rejects_bad_seed(self):
        """The herald process seeds numpy's ``SeedSequence``, which takes
        non-negative ints only; the config names the key instead."""
        for seed in (-3, True, 2.5, "1"):
            with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
                SimConfig(beta_qd=0.5, beta_ms=0.5, n=10, total_cycles=1000, seed=seed)
        # cli derives per-point seeds up to 2**64 - 1.
        config = SimConfig(beta_qd=0.5, beta_ms=0.5, n=10, total_cycles=1000, seed=2**64 - 1)
        assert des_run(config).heralds_left > 0

    def test_rejects_non_finite_clock(self):
        """A NaN clock used to give a NaN rate and an infinite one a rate of 0."""
        for tau_c_ns in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^tau_c_ns must be positive and finite"):
                SimConfig(beta_qd=0.5, beta_ms=0.5, n=10, total_cycles=1000, tau_c_ns=tau_c_ns)

    def test_rejects_a_clock_period_below_the_normal_floats(self):
        """``tau_c_ns * 1e-9`` s used to underflow to 0, and the rate to divide
        by zero once a pair was counted; a subnormal period overflowed it."""
        for tau_c_ns in (1e-320, 1e-300):
            with pytest.raises(ValueError, match=r"^tau_c_ns \* 1e-9 s must be a normal float"):
                SimConfig(beta_qd=1.0, beta_ms=1.0, n=5, total_cycles=10_000, tau_c_ns=tau_c_ns)
        for mode in SimMode:
            stats = des_run(SimConfig(mode=mode, **{**LOSSLESS, "tau_c_ns": 1e-290}))
            assert stats.true_coincidences > 0 and math.isfinite(stats.rate_hz)

    def test_rejects_non_integer_trace_limit(self):
        """``trace_limit`` follows the integer rule of ``seed``: 2.5 used to
        record 3 trace notes and ``True`` 1."""
        for trace_limit in (2.5, True):
            with pytest.raises(ValueError, match="^trace_limit must be an integer >= 0"):
                SimConfig(trace_limit=trace_limit, **LOSSLESS)

    @pytest.mark.parametrize("name", ["beta_qd", "beta_ms", "p_dc", "tau_c_ns"])
    def test_rejects_non_real_inputs(self, name):
        """The real fields follow the integer fields' rule: a bool used to run
        as 0 or 1, and a string raised a TypeError that named no key."""
        for value in (True, False, "0.25"):
            with pytest.raises(ValueError, match=f"^{name} must be a real number"):
                SimConfig(**{**LOSSLESS, name: value})
        assert getattr(SimConfig(**{**LOSSLESS, name: np.float64(0.25)}), name) == 0.25

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_numpy_integers_serialise(self, mode):
        """numpy ints are stored as ints: ``cycles_run`` used to keep an
        ``np.int64``, which ``json`` cannot write."""
        trace_limit = 3 if mode is SimMode.LITERAL else 0  # omniscient runs keep no trace
        counts = dict(n=5, total_cycles=2000, seed=11, trace_limit=trace_limit)
        config = SimConfig(
            beta_qd=0.5, beta_ms=0.5, mode=mode, **{k: np.int64(v) for k, v in counts.items()}
        )
        assert all(type(getattr(config, key)) is int for key in counts)
        plain = SimConfig(beta_qd=0.5, beta_ms=0.5, mode=mode, **counts)
        assert config == plain
        assert des_run(config).to_json() == des_run(plain).to_json()

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_numpy_floats_serialise(self, mode):
        """numpy floats are stored as floats: a float32 ``tau_c_ns`` used to
        reach ``to_json``, which cannot write it, and float32 probabilities
        ran the herald model in float32."""
        reals = dict(beta_qd=0.3, beta_ms=0.7, p_dc=0.01, tau_c_ns=500.0)
        config = SimConfig(
            n=5, total_cycles=20_000, seed=11, mode=mode,
            **{key: np.float32(value) for key, value in reals.items()},
        )
        assert all(type(getattr(config, key)) is float for key in reals)
        assert type(config.herald.p_any) is float
        plain = SimConfig(
            n=5, total_cycles=20_000, seed=11, mode=mode,
            **{key: float(np.float32(value)) for key, value in reals.items()},
        )
        assert config == plain
        assert des_run(config).to_json() == des_run(plain).to_json()
        assert des_run(config) == des_run(plain)

    def test_rejects_runs_past_the_cycle_limit(self):
        """Heralds that never come are placed at or after cycle 2**62; a
        longer run counted one per side there and confirmed a pair."""
        with pytest.raises(ValueError, match="^total_cycles must be <= 2\\*\\*62"):
            SimConfig(beta_qd=0.0, beta_ms=0.5, n=10, total_cycles=_NEVER + 100)

    def test_warns_on_short_run(self):
        """The warning points at the caller's line, not at the dataclass
        ``__init__``, ``dataclasses.replace`` or ``from_hardware``."""
        long_run = SimConfig(beta_qd=0.5, beta_ms=0.5, n=100, total_cycles=5000)
        with pytest.warns(UserWarning) as record:
            SimConfig(beta_qd=0.5, beta_ms=0.5, n=100, total_cycles=500)
            dataclasses.replace(long_run, total_cycles=500)
            SimConfig.from_hardware(LossBudget(10.0, 5.0), ChannelGeometry(50.0), total_cycles=500)
        assert [warning.filename for warning in record] == [__file__] * 3

    @settings(
        max_examples=300, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_CONFIGS)
    # p_any = 2**-60 over 2**62 cycles: chunks of 2 epochs, whose negative
    # binomial numpy refuses; and p_any near 2**-62 and subnormal.
    @example({**_EDGE_RUN, "beta_qd": 2.0**-60})
    @example({**_EDGE_RUN, "beta_qd": 2.0**-62, "trace_limit": 0})
    @example({**_EDGE_RUN, "beta_qd": 5e-324, "total_cycles": 10_000})
    def test_every_accepted_config_runs_cleanly(self, fields):
        """Any config that ``SimConfig`` accepts runs in both modes with no
        warning but the short-run one, and its ``SimStats`` pass their own
        checks and serialise.  Omniscient runs take up to 2**62 cycles, dark
        counts or not, and no trace: with ``trace_limit > 0`` they are
        refused, naming the key.  Literal runs take one step per herald, so
        their cycles are capped."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "total_cycles below 10", UserWarning)
            try:
                config = SimConfig(**{**fields, "trace_limit": 0})
            except ValueError:
                assume(False)
            if fields["trace_limit"]:
                with pytest.raises(ValueError, match="^trace_limit must be 0 in omniscient mode"):
                    SimConfig(**fields)
            runs = [config, dataclasses.replace(
                config, mode=SimMode.LITERAL, total_cycles=min(config.total_cycles, 5000),
                trace_limit=fields["trace_limit"],
            )]
            for run in runs:
                stats = des_run(run)
                assert stats == dataclasses.replace(stats)  # SimStats.__post_init__ once more
                assert math.isfinite(stats.rate_hz) and stats.rate_hz >= 0.0
                assert 0 <= stats.true_coincidences + stats.false_coincidences
                assert stats.cycles_run == run.total_cycles
                assert len(stats.trace) <= run.trace_limit
                json.loads(stats.to_json())

    def test_rejects_a_trace_in_omniscient_mode(self):
        """An omniscient run counts only, so a trace cap above 0 is refused,
        naming the key, by every way of building the config; literal runs
        keep their trace."""
        omniscient = SimConfig(**LOSSLESS)
        literal = SimConfig(mode=SimMode.LITERAL, trace_limit=5, **LOSSLESS)
        hardware = dict(budget=LossBudget(10.0, 5.0), geom=ChannelGeometry(50.0),
                        total_cycles=100_000)
        for k in (1, 5, 10**6):
            builds = (
                lambda: SimConfig(mode=SimMode.OMNISCIENT, trace_limit=k, **LOSSLESS),
                lambda: dataclasses.replace(omniscient, trace_limit=k),
                lambda: dataclasses.replace(literal, mode=SimMode.OMNISCIENT, trace_limit=k),
                lambda: SimConfig.from_hardware(trace_limit=k, **hardware),
            )
            for build in builds:
                with pytest.raises(ValueError, match=f"^trace_limit must be 0 in .*, got {k}$"):
                    build()
        assert len(des_run(literal).trace) == 5
        traced = SimConfig.from_hardware(mode=SimMode.LITERAL, trace_limit=5, **hardware)
        assert traced.trace_limit == 5

    def test_from_hardware_square_profile(self):
        config = SimConfig.from_hardware(
            LossBudget(10.0, 5.0),
            ChannelGeometry(50.0),
            total_cycles=100_000,
            tau_c_ns=500.0,
        )
        assert config.n == 500
        assert config.beta_qd == pytest.approx(10 ** (-12.5 / 10), rel=1e-12)
        assert config.beta_ms == pytest.approx(10 ** (-7.5 / 10), rel=1e-12)


LOSSLESS = dict(beta_qd=1.0, beta_ms=1.0, n=10, total_cycles=5000, seed=3)



def _expected_lossless_pairs(total, n, warmup):
    period = n + 1
    return len(
        [b for b in range(0, total, period) if b >= warmup and b + n < total]
    )


class TestDesRun:
    def test_lossless_oracle_both_modes(self):
        for mode in SimMode:
            stats = des_run(SimConfig(mode=mode, **LOSSLESS))
            expected = _expected_lossless_pairs(5000, 10, stats.warmup_cycles)
            assert stats.true_coincidences == expected
            assert stats.false_coincidences == 0
            assert stats.rate_hz == pytest.approx(
                expected / (stats.measured_cycles * 500e-9), rel=1e-12
            )

    @pytest.mark.parametrize("beta_qd", [0.0, 1e-20])
    def test_longest_run_without_heralds_stays_open(self, beta_qd):
        """At p = 0, and at p = 1e-40 whose waits pass the gap cap, nothing
        lands inside a run of 2**62 cycles."""
        for mode in SimMode:
            stats = des_run(
                SimConfig(beta_qd=beta_qd, beta_ms=beta_qd, n=10, total_cycles=_NEVER, mode=mode)
            )
            assert stats.heralds_left == stats.heralds_right == 0
            assert stats.true_coincidences == stats.false_coincidences == 0
            assert stats.open_fraction == 1.0

    @pytest.mark.parametrize("n, total", [(2**45, _NEVER), (2**60, _NEVER), (2**40, 2**50)])
    def test_lossless_oracle_at_huge_counts(self, n, total):
        """Epoch ends near 2**62 must not wrap int64; the last case is summed
        with numpy, the others one epoch at a time."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 2**62 < 10 * 2**60
            config = SimConfig(beta_qd=1.0, beta_ms=1.0, n=n, total_cycles=total)
        stats = des_run(config)
        expected = _expected_lossless_pairs(total, n, stats.warmup_cycles)
        assert expected > 0
        assert stats.true_coincidences == expected
        assert stats.false_coincidences == 0
        assert stats.heralds_left == stats.heralds_right >= expected

    def test_timeout_past_int64(self):
        """``n`` has no upper bound; a run whose timeout passes int64 is all
        one epoch."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # total_cycles < 10 * n
            config = SimConfig(beta_qd=0.5, beta_ms=0.5, n=2**70, total_cycles=5000, seed=2)
        stats = des_run(config)
        assert stats == _reference_omniscient(config)
        assert stats.warmup_cycles == stats.cycles_run == 5000

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_tiny_herald_probability_runs_without_warning(self, mode):
        """At ``p_any = 5e-324`` the gap quotient ``log1p(-u) / log1p(-p)``
        used to overflow before its cap, with a numpy ``RuntimeWarning``."""
        config = SimConfig(beta_qd=5e-324, beta_ms=1.0, n=5, total_cycles=10_000, mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = des_run(config)
        assert stats.heralds_left == stats.heralds_right == 0

    @staticmethod
    def _default_point_run(cycles, detector=None):
        """One omniscient run at the 10 km default point (``p = 0.0251``,
        ``n = 100``), timed after numpy's first calls, and the distance of
        its rate from the chain in closed-form SEs.  The SE is regenerative:
        ``X`` (a pair) is Bernoulli(``a``) and independent of ``M``, so
        ``sigma**2 = a (1 - a) + R**2 Var(M)`` with ``R = a / E[L]``, and
        ``Var(R) = sigma**2 / (T E[L])``."""
        config = SimConfig.from_hardware(
            LossBudget(10.0, 5.0), ChannelGeometry(10.0), total_cycles=cycles, seed=1,
            detector=detector,
        )
        des_run(dataclasses.replace(config, total_cycles=10**6))  # numpy's first calls
        start = time.perf_counter()
        stats = des_run(config)
        seconds = time.perf_counter() - start
        p, n, tau_s = config.herald.p_any, config.n, 500e-9
        assert (round(p, 4), n) == (0.0251, 100)
        q, a = 1.0 - p, p / (2.0 - p)
        first = 1.0 - q * q
        mean_l = n + 1.0 / first
        per_cycle = a / mean_l
        sigma2 = a * (1.0 - a) + per_cycle**2 * q * q / first**2
        se = math.sqrt(sigma2 / (stats.measured_cycles * mean_l)) / tau_s
        chain = rate_from_stationary(stationary_open_prob(n, p), p * p, tau_s)
        assert chain == pytest.approx(per_cycle / tau_s, rel=1e-9)
        return config, stats, seconds, (stats.rate_hz - chain) / se

    def test_cost_does_not_grow_with_the_cycles(self):
        """An omniscient run draws chunks of epochs, so a run of 10**12 cycles
        at the 10 km default point takes under 50 ms, and its rate lies
        within 3 SE of the chain."""
        _, _, seconds, z = self._default_point_run(10**12)
        assert seconds < 0.05
        assert abs(z) <= 3.0

    def test_cost_does_not_grow_with_dark_counts(self):
        """A tie's truth is an outcome of the epoch law, so dark counts cost
        nothing either: at a 100 Hz dark-count rate (1 ns window), a run of
        10**11 cycles at the 10 km default point takes under 50 ms, its rate
        lies within 3 SE of the chain, and its false pairs lie within 3
        binomial SEs of ``pairs (1 - tf**2)``."""
        config, stats, seconds, z = self._default_point_run(10**11, DetectorModel(100.0, 1.0))
        assert seconds < 0.05
        assert abs(z) <= 3.0
        false = stats.false_coincidences
        pairs = stats.true_coincidences + false
        share = 1.0 - config.herald.pair_true_fraction
        assert 0.0 < share < 1e-3 and false > 0
        assert abs(false - pairs * share) <= 3.0 * math.sqrt(pairs * share * (1.0 - share))

    @pytest.mark.parametrize(
        "p_dc, z", [(0.0, protocol._Z), (0.01, protocol._Z), (0.0, -2.0), (0.01, -2.0)]
    )
    def test_omniscient_run_builds_one_seed_sequence(self, p_dc, z, monkeypatch):
        """An omniscient run draws every count from one stream, keyed
        ``[seed, 2, 0]``, with dark counts (a tie's truth is an outcome) and
        without, and when its chunks pass the run's end and are halved
        (``_Z = -2``).  A second stream would be one more key to keep apart."""
        keys, splits = [], []
        seed_sequence, split = np.random.SeedSequence, protocol._EpochDraws.split

        def recorded(entropy, *args, **kwargs):
            keys.append(entropy)
            return seed_sequence(entropy, *args, **kwargs)

        def counted(self, *args):
            splits.append(args)
            return split(self, *args)

        monkeypatch.setattr(np.random, "SeedSequence", recorded)
        monkeypatch.setattr(protocol._EpochDraws, "split", counted)
        monkeypatch.setattr(protocol, "_Z", z)
        config = SimConfig(beta_qd=0.5, beta_ms=0.4, n=20, total_cycles=10**6, seed=77, p_dc=p_dc)
        stats = des_run(config)
        assert keys == [[77, 2, 0]]
        assert (stats.false_coincidences > 0) == (p_dc > 0.0)
        assert splits or z > 0

    @pytest.mark.parametrize("p, n, total", [(0.1, 50, 10_000_000), (0.01, 500, 100_000_000)])
    def test_omniscient_spread_matches_the_regenerative_variance(self, p, n, total):
        """Over 300 seeds, the SD of ``rate_hz`` matches the closed form of
        :meth:`test_cost_does_not_grow_with_the_cycles`, and the SD of
        ``open_fraction`` its twin ``Var(M - O L) / (T E[L])`` with
        ``O = E[M] / E[L]``, ``= (1 - O)**2 Var(M) / (T E[L])``.  The pairs'
        spread comes mostly from the outcomes, the open cycles' from the
        summed waits, so a negative binomial of the wrong spread shows in the
        second.  Each SD lies within 4 SE of its prediction, the SE of a
        sample SD being about ``1 / sqrt(2 (N - 1))`` of it; ten sets of 300
        other seeds read ratios of 0.89 to 1.08."""
        seeds = range(20_000, 20_300)
        runs = [des_run(SimConfig(beta_qd=1.0, beta_ms=p, n=n, total_cycles=total, seed=seed))
                for seed in seeds]
        q, a = 1.0 - p, p / (2.0 - p)
        first = 1.0 - q * q
        mean_m, var_m = 1.0 / first, q * q / first**2
        mean_l = n + mean_m
        per_cycle, open_share = a / mean_l, mean_m / mean_l
        cycles = runs[0].measured_cycles * mean_l
        predicted = {
            "rate_hz": math.sqrt((a * (1.0 - a) + per_cycle**2 * var_m) / cycles) / 500e-9,
            "open_fraction": math.sqrt((1.0 - open_share) ** 2 * var_m / cycles),
        }
        bound = 4.0 / math.sqrt(2.0 * (len(runs) - 1))
        for field, sd in predicted.items():
            observed = np.std([getattr(stats, field) for stats in runs], ddof=1)
            assert abs(observed / sd - 1.0) <= bound, (field, observed / sd)

    def test_determinism_bit_identical(self):
        config = SimConfig(
            beta_qd=0.4, beta_ms=0.3, n=20, total_cycles=100_000, seed=123,
            p_dc=1e-3, mode=SimMode.LITERAL, trace_limit=50,
        )
        assert des_run(config) == des_run(config)

    def test_different_seeds_differ(self):
        base = dict(beta_qd=0.4, beta_ms=0.3, n=20, total_cycles=100_000)
        a = des_run(SimConfig(seed=1, **base))
        b = des_run(SimConfig(seed=2, **base))
        assert a != b

    def test_omniscient_occupancy_matches_chain(self):
        p, n = 0.1, 10
        replicate_values = []
        for seed in range(8):
            stats = des_run(
                SimConfig(beta_qd=1.0, beta_ms=p, n=n, total_cycles=250_000, seed=seed)
            )
            replicate_values.append(stats.open_fraction)
        mean = sum(replicate_values) / len(replicate_values)
        var = sum((v - mean) ** 2 for v in replicate_values) / (len(replicate_values) - 1)
        sem = math.sqrt(var / len(replicate_values))
        assert abs(mean - stationary_open_prob(n, p)) <= 3.0 * sem

    def test_omniscient_rate_matches_chain(self):
        p, n = 0.1, 10
        rates = []
        for seed in range(8):
            stats = des_run(
                SimConfig(beta_qd=1.0, beta_ms=p, n=n, total_cycles=250_000, seed=seed)
            )
            rates.append(stats.rate_hz)
        mean = sum(rates) / len(rates)
        var = sum((v - mean) ** 2 for v in rates) / (len(rates) - 1)
        sem = math.sqrt(var / len(rates))
        expected = rate_from_stationary(stationary_open_prob(n, p), p * p, 500e-9)
        assert abs(mean - expected) <= 3.0 * sem

    def test_literal_occupancy_not_above_omniscient(self):
        base = dict(beta_qd=1.0, beta_ms=0.05, n=100, total_cycles=2_000_000, seed=17)
        omniscient = des_run(SimConfig(mode=SimMode.OMNISCIENT, **base))
        literal = des_run(SimConfig(mode=SimMode.LITERAL, **base))
        assert literal.open_fraction <= omniscient.open_fraction
        assert literal.rate_hz <= omniscient.rate_hz

    def test_zero_dark_counts_means_zero_infidelity(self):
        stats = des_run(
            SimConfig(beta_qd=0.5, beta_ms=0.5, n=5, total_cycles=200_000, seed=4)
        )
        assert stats.false_coincidences == 0
        assert stats.infidelity_estimate == 0.0

    def test_mc_infidelity_matches_union_oracle(self):
        beta, p_dc = 0.1, 1e-3
        variant = BsmVariant.SINGLET_ONLY
        stats = des_run(
            SimConfig(
                beta_qd=beta, beta_ms=beta, n=5, total_cycles=4_000_000,
                seed=8, p_dc=p_dc, bsm_variant=variant,
            )
        )
        p_true, p_false = _enumerated_side_probs(beta, beta, p_dc, variant)
        q = p_true + p_false
        oracle = 1.0 - (p_true / q) ** 2
        pairs = stats.true_coincidences + stats.false_coincidences
        estimate = stats.infidelity_estimate
        sigma = math.sqrt(oracle * (1.0 - oracle) / pairs)
        assert abs(estimate - oracle) <= 3.0 * sigma

    def test_trace_is_capped(self):
        stats = des_run(SimConfig(mode=SimMode.LITERAL, trace_limit=7, **LOSSLESS))
        assert len(stats.trace) == 7

    @pytest.mark.parametrize("mode", [SimMode.LITERAL])
    def test_trace_limit_changes_only_the_trace(self, mode):
        """A long trace makes the literal engine collect notes for longer,
        which may change no count.  Omniscient runs keep no trace."""
        config = SimConfig(mode=mode, **{**BLOCK_CASES["many_blocks"], "trace_limit": 0})
        expected = des_run(config)
        assert expected.true_coincidences > 0 and expected.false_coincidences > 0
        for limit in (1, 37, 1000, 10_000):
            stats = des_run(dataclasses.replace(config, trace_limit=limit))
            assert len(stats.trace) == limit
            assert dataclasses.replace(stats, trace=()) == expected, limit
        assert sum(event == "confirm" for _, _, event in stats.trace) > 1000

    def test_trace_csv(self):
        stats = des_run(SimConfig(mode=SimMode.LITERAL, trace_limit=3, **LOSSLESS))
        buffer = io.StringIO()
        write_trace_csv(stats, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "cycle,side,event"
        assert len(lines) == 4

    def test_stats_json_field_names(self):
        stats = des_run(SimConfig(**LOSSLESS))
        payload = stats.to_dict()
        assert list(payload) == [
            "mode",
            "cycles_run",
            "warmup_cycles",
            "measured_cycles",
            "tau_c_ns",
            "heralds_left",
            "heralds_right",
            "true_coincidences",
            "false_coincidences",
            "one_sided_confirms",
            "open_fraction",
            "rate_hz",
            "infidelity_estimate",
        ]


# Full SimStats of both engines on fixed seeds.  The degenerate cases
# (beta_qd_0, beta_qd_1_lossless, no_measured) draw nothing that matters and
# are as first recorded; the others were recorded on the per-herald Philox
# draws, and the omniscient ones again when every epoch began to draw both
# sides afresh (short_run's run came out the same and kept its pin).  When
# pair truths moved to their own stream, the true/false split of five runs
# changed and was recorded again.  When an omniscient epoch began to draw its
# first herald and its category instead of one gap per side, the seven
# non-degenerate omniscient pins were recorded again; no literal pin changed.
# They were recorded once more when the omniscient engine began to draw
# chunks of epochs with numpy's Generator distributions (negative binomial,
# multinomial, beta-binomial splits), which NEP 19 does not freeze: these
# seven pins depend on numpy's algorithms, the literal ones do not.  They
# were last recorded, with numpy 2.4.6, when a tie's truth became an outcome
# of the epoch law and a lone epoch began to take one uniform instead of a
# one-epoch multinomial; each names that version, so that a failure on
# another numpy says why.  No literal pin changed.  Omniscient runs count
# only, so their pins run at trace_limit 0 and carry no trace; dropping the
# traced-epoch expansion changed none of their counts.
# Any change to event order, warm-up accounting, the herald draws or the rate
# arithmetic shows up here as an inequality.
GOLDEN_CASES = {
    "p001_n500": dict(beta_qd=0.1, beta_ms=0.1, n=500, total_cycles=1_000_000, seed=11),
    "dark_counts": dict(
        beta_qd=0.3, beta_ms=0.2, n=20, total_cycles=50_000, seed=5,
        p_dc=0.02, bsm_variant=BsmVariant.SINGLET_ONLY,
    ),
    "trace": dict(
        beta_qd=0.5, beta_ms=0.4, n=6, total_cycles=3000, seed=2, p_dc=0.001, trace_limit=24
    ),
    "n1": dict(beta_qd=0.6, beta_ms=0.5, n=1, total_cycles=20_000, seed=9, trace_limit=6),
    "beta_qd_1_lossless": dict(
        beta_qd=1.0, beta_ms=1.0, n=7, total_cycles=2000, seed=1, trace_limit=6
    ),
    "beta_qd_1_dark": dict(beta_qd=1.0, beta_ms=0.3, n=15, total_cycles=30_000, seed=4, p_dc=0.01),
    "beta_qd_0": dict(beta_qd=0.0, beta_ms=0.5, n=10, total_cycles=5000, seed=3),
    "beta_qd_0_dark": dict(beta_qd=0.0, beta_ms=0.5, n=10, total_cycles=40_000, seed=3, p_dc=0.05),
    # total_cycles < 10n: short warm-up-dominated runs, and one with no measured cycles.
    "short_run": dict(beta_qd=0.5, beta_ms=0.5, n=100, total_cycles=500, seed=6, trace_limit=9),
    "no_measured": dict(beta_qd=0.5, beta_ms=0.5, n=100, total_cycles=150, seed=6),
}

GOLDEN_STATS = {
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("p001_n500", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=1000000,
        warmup_cycles=1000,
        measured_cycles=999000,
        tau_c_ns=500.0,
        heralds_left=1811,
        heralds_right=1813,
        true_coincidences=15,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.09017317317317318,
        rate_hz=30.030030030030023,
        infidelity_estimate=0.0,
    ),
    ("p001_n500", "literal"): SimStats(
        mode='literal',
        cycles_run=1000000,
        warmup_cycles=1000,
        measured_cycles=999000,
        tau_c_ns=500.0,
        heralds_left=2536,
        heralds_right=2556,
        true_coincidences=4,
        false_coincidences=0,
        one_sided_confirms=7,
        open_fraction=0.08292592592592593,
        rate_hz=8.008008008008007,
        infidelity_estimate=0.0,
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("dark_counts", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=50000,
        warmup_cycles=40,
        measured_cycles=49960,
        tau_c_ns=500.0,
        heralds_left=1642,
        heralds_right=1669,
        true_coincidences=42,
        false_coincidences=26,
        one_sided_confirms=0,
        open_fraction=0.2567253803042434,
        rate_hz=2722.1777421937545,
        infidelity_estimate=0.38235294117647056,
    ),
    ("dark_counts", "literal"): SimStats(
        mode='literal',
        cycles_run=50000,
        warmup_cycles=40,
        measured_cycles=49960,
        tau_c_ns=500.0,
        heralds_left=1767,
        heralds_right=1808,
        true_coincidences=25,
        false_coincidences=9,
        one_sided_confirms=41,
        open_fraction=0.27089671737389914,
        rate_hz=1361.0888710968773,
        infidelity_estimate=0.2647058823529412,
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("trace", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=3000,
        warmup_cycles=12,
        measured_cycles=2988,
        tau_c_ns=500.0,
        heralds_left=300,
        heralds_right=292,
        true_coincidences=41,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.3152610441767068,
        rate_hz=27443.105756358764,
        infidelity_estimate=0.0,
    ),
    ("trace", "literal"): SimStats(
        mode='literal',
        cycles_run=3000,
        warmup_cycles=12,
        measured_cycles=2988,
        tau_c_ns=500.0,
        heralds_left=305,
        heralds_right=312,
        true_coincidences=25,
        false_coincidences=0,
        one_sided_confirms=10,
        open_fraction=0.32028112449799195,
        rate_hz=16733.601070950466,
        infidelity_estimate=0.0,
        trace=(
            (3, "right", "herald"), (5, "left", "herald"),
            (9, "left", "mismatch_reset"), (9, "right", "timeout"),
            (11, "right", "stale_ignored"), (17, "left", "herald"),
            (23, "left", "timeout"), (23, "right", "stale_ignored"),
            (24, "right", "herald"), (30, "left", "stale_ignored"),
            (30, "left", "herald"), (30, "right", "timeout"),
            (36, "left", "timeout"), (36, "right", "stale_ignored"),
            (44, "right", "herald"), (45, "left", "herald"),
            (50, "left", "mismatch_reset"), (50, "right", "timeout"),
            (51, "right", "stale_ignored"), (51, "right", "herald"),
            (52, "left", "herald"), (57, "left", "mismatch_reset"),
            (57, "right", "timeout"), (58, "right", "stale_ignored"),
        ),
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("n1", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=20000,
        warmup_cycles=2,
        measured_cycles=19998,
        tau_c_ns=500.0,
        heralds_left=4821,
        heralds_right=4847,
        true_coincidences=1220,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.6610661066106611,
        rate_hz=122012.201220122,
        infidelity_estimate=0.0,
    ),
    ("n1", "literal"): SimStats(
        mode='literal',
        cycles_run=20000,
        warmup_cycles=2,
        measured_cycles=19998,
        tau_c_ns=500.0,
        heralds_left=4609,
        heralds_right=4681,
        true_coincidences=1109,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.5909090909090909,
        rate_hz=110911.0911091109,
        infidelity_estimate=0.0,
        trace=(
            (0, "right", "herald"), (1, "left", "stale_ignored"),
            (1, "left", "herald"), (1, "right", "timeout"),
            (2, "left", "timeout"), (2, "right", "stale_ignored"),
        ),
    ),
    ("beta_qd_1_lossless", "omniscient"): SimStats(
        mode="omniscient",
        cycles_run=2000,
        warmup_cycles=14,
        measured_cycles=1986,
        tau_c_ns=500.0,
        heralds_left=248,
        heralds_right=248,
        true_coincidences=248,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.12487411883182276,
        rate_hz=249748.23766364547,
        infidelity_estimate=0.0,
    ),
    ("beta_qd_1_lossless", "literal"): SimStats(
        mode="literal",
        cycles_run=2000,
        warmup_cycles=14,
        measured_cycles=1986,
        tau_c_ns=500.0,
        heralds_left=248,
        heralds_right=248,
        true_coincidences=248,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.12487411883182276,
        rate_hz=249748.23766364547,
        infidelity_estimate=0.0,
        trace=(
            (0, "left", "herald"), (0, "right", "herald"),
            (7, "left", "confirm"), (7, "right", "confirm"),
            (8, "left", "herald"), (8, "right", "herald"),
        ),
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("beta_qd_1_dark", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=30000,
        warmup_cycles=30,
        measured_cycles=29970,
        tau_c_ns=500.0,
        heralds_left=1781,
        heralds_right=1782,
        true_coincidences=270,
        false_coincidences=51,
        one_sided_confirms=0,
        open_fraction=0.1066066066066066,
        rate_hz=21421.42142142142,
        infidelity_estimate=0.1588785046728972,
    ),
    ("beta_qd_1_dark", "literal"): SimStats(
        mode='literal',
        cycles_run=30000,
        warmup_cycles=30,
        measured_cycles=29970,
        tau_c_ns=500.0,
        heralds_left=2446,
        heralds_right=2463,
        true_coincidences=39,
        false_coincidences=6,
        one_sided_confirms=211,
        open_fraction=0.08892225558892225,
        rate_hz=3003.0030030030025,
        infidelity_estimate=0.13333333333333333,
    ),
    ("beta_qd_0", "omniscient"): SimStats(
        mode="omniscient",
        cycles_run=5000,
        warmup_cycles=20,
        measured_cycles=4980,
        tau_c_ns=500.0,
        heralds_left=0,
        heralds_right=0,
        true_coincidences=0,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=1.0,
        rate_hz=0.0,
        infidelity_estimate=None,
    ),
    ("beta_qd_0", "literal"): SimStats(
        mode="literal",
        cycles_run=5000,
        warmup_cycles=20,
        measured_cycles=4980,
        tau_c_ns=500.0,
        heralds_left=0,
        heralds_right=0,
        true_coincidences=0,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=1.0,
        rate_hz=0.0,
        infidelity_estimate=None,
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("beta_qd_0_dark", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=40000,
        warmup_cycles=20,
        measured_cycles=39980,
        tau_c_ns=500.0,
        heralds_left=2228,
        heralds_right=2255,
        true_coincidences=0,
        false_coincidences=147,
        one_sided_confirms=0,
        open_fraction=0.3349674837418709,
        rate_hz=7353.676838419208,
        infidelity_estimate=1.0,
    ),
    ("beta_qd_0_dark", "literal"): SimStats(
        mode='literal',
        cycles_run=40000,
        warmup_cycles=20,
        measured_cycles=39980,
        tau_c_ns=500.0,
        heralds_left=2290,
        heralds_right=2278,
        true_coincidences=0,
        false_coincidences=83,
        one_sided_confirms=50,
        open_fraction=0.3407453726863432,
        rate_hz=4152.076038019009,
        infidelity_estimate=1.0,
    ),
    # Recorded with numpy 2.4.6 (six-outcome law, one-uniform lone epochs).
    ("short_run", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=500,
        warmup_cycles=200,
        measured_cycles=300,
        tau_c_ns=500.0,
        heralds_left=3,
        heralds_right=3,
        true_coincidences=0,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.02666666666666667,
        rate_hz=0.0,
        infidelity_estimate=None,
    ),
    ("short_run", "literal"): SimStats(
        mode='literal',
        cycles_run=500,
        warmup_cycles=200,
        measured_cycles=300,
        tau_c_ns=500.0,
        heralds_left=3,
        heralds_right=3,
        true_coincidences=1,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.03666666666666667,
        rate_hz=6666.666666666666,
        infidelity_estimate=0.0,
        trace=(
            (2, "left", "herald"), (6, "right", "herald"),
            (102, "left", "timeout"), (102, "right", "mismatch_reset"),
            (104, "right", "herald"), (106, "left", "stale_ignored"),
            (106, "left", "herald"), (204, "left", "mismatch_reset"),
            (204, "right", "timeout"),
        ),
    ),
    ("no_measured", "omniscient"): SimStats(
        mode="omniscient",
        cycles_run=150,
        warmup_cycles=150,
        measured_cycles=0,
        tau_c_ns=500.0,
        heralds_left=0,
        heralds_right=0,
        true_coincidences=0,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.0,
        rate_hz=0.0,
        infidelity_estimate=None,
    ),
    ("no_measured", "literal"): SimStats(
        mode="literal",
        cycles_run=150,
        warmup_cycles=150,
        measured_cycles=0,
        tau_c_ns=500.0,
        heralds_left=0,
        heralds_right=0,
        true_coincidences=0,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.0,
        rate_hz=0.0,
        infidelity_estimate=None,
    ),
}


@pytest.mark.parametrize("case, mode", sorted(GOLDEN_STATS))
def test_golden_stats_pinned(case, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # short runs warn by design
        config = _sim_config(SimMode(mode), GOLDEN_CASES[case])
    assert des_run(config) == GOLDEN_STATS[case, mode]
