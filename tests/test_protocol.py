"""Receiver state machine, herald sampling and the two simulation engines."""

import dataclasses
import io
import itertools
import math
import random
import subprocess
import sys
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from mpslink import (
    BsmVariant,
    ChannelGeometry,
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


def _reference_literal(config):
    """The literal protocol driven through :func:`receiver_step`, one event at a time.

    This is the readable form of the transition rule that ``des_run``
    inlines on ints in literal mode; the two must agree field for field.
    Sides are indexed 0 (left) and 1 (right), as in the engines, and every
    herald is passed as true: a pair's truth comes from :func:`_pair_truths`.
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


def _category_ends(p, n):
    """The ends ``a, a + s c, a + 2 s c, a + s + s c`` of the first four
    category intervals, and ``c``, as written in the ``_run_omniscient``
    docstring."""
    c = 1.0 if p == 1.0 else -math.expm1(n * math.log1p(-p))
    a = p / (2.0 - p)
    s = (1.0 - a) / 2.0
    return (a, a + s * c, a + 2.0 * s * c, a + (s + s * c)), c


def _reference_omniscient(config, draws=None):
    """The omniscient rule as a scalar loop over epochs, one (first gap,
    category word) each.

    An epoch's first herald comes ``gap`` cycles after it starts.  Its word's
    uniform ``u`` falls into one of five intervals: a tie, left first with
    the right side within ``n`` cycles, right first with the left within
    ``n``, left first alone, right first alone.  Within ``n``, the later
    herald's offset inverts the truncated geometric law at the word's place
    inside its interval.  A counted pair's truth comes from
    :func:`_pair_truths`.  ``des_run`` counts the same epochs a block at a
    time in omniscient mode; the two must agree field for field.  ``draws``
    replaces :func:`_epoch_draws`.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    p = config.herald.p_any
    draws = _epoch_draws(config) if draws is None else draws
    ends, c = _category_ends(p, n)
    steps = [math.ceil(t * 2**53) for t in ends]  # the ends in steps of 2**-53
    truths = _pair_truths(config)
    sides = ("left", "right")
    heralds = [0, 0]
    true_pairs = false_pairs = both_open = 0
    trace = []

    def note(cycle, side, event):
        if len(trace) < config.trace_limit:
            trace.append((cycle, side, event))

    t0 = 0
    while t0 < total:
        gap, word = next(draws)
        bin = t0 + gap - 1
        if bin >= total:
            both_open += _open_cycles(t0, total - 1, warmup, total)
            break
        both_open += _open_cycles(t0, bin, warmup, total)
        category = sum((word >> 11) * 2**-53 >= t for t in ends)
        first = (0, 0, 1, 0, 1)[category]
        second = 1 - first
        if category == 0:
            late = bin
        elif category in (1, 2):
            lo, hi = steps[category - 1], steps[category]
            place = ((word >> 11) - lo) / (hi - lo)
            offset = math.ceil(math.log1p(-place * c) / math.log1p(-p))
            late = bin + min(n, max(1, offset))
        else:
            late = bin + n + 1
        if bin >= warmup:
            heralds[first] += 1
        note(bin, sides[first], "herald")
        deadline = bin + n
        if late <= deadline and late < total:
            # The open side heralded into the closed window; both reopen
            # together after the first side's deadline.
            if late >= warmup:
                heralds[second] += 1
            note(late, sides[second], "herald")
        if late == bin:
            if deadline < total:
                if bin >= warmup:
                    if next(truths):
                        true_pairs += 1
                    else:
                        false_pairs += 1
                note(deadline, "both", "confirm")
        else:
            note(min(deadline, total - 1), sides[first], "timeout")
        t0 = deadline + 1
    return _sim_stats(
        config, SimMode.OMNISCIENT, heralds, true_pairs, false_pairs, 0, both_open, trace
    )


def _random_small_config(rng, mode=SimMode.LITERAL):
    n = rng.choice([1, 2, 3, 5, 8, 20])
    beta_qd = rng.choice([0.0, 1.0, rng.random(), rng.random()])
    beta_ms = rng.choice([1.0, rng.random(), rng.random() ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # some runs are shorter than 10n
        return SimConfig(
            beta_qd=beta_qd,
            beta_ms=beta_ms,
            n=n,
            total_cycles=rng.choice([n, 3 * n, rng.randint(1, 3000)]),
            seed=rng.randrange(1 << 30),
            p_dc=rng.choice([0.0, 0.0, 0.01, 0.2]),
            bsm_variant=rng.choice(list(BsmVariant)),
            mode=mode,
            trace_limit=rng.choice([0, 4, 100]),
        )


def _coverage(config, stats):
    """The corner cases one random config and its run hit, by name."""
    p = config.herald.p_any
    return {
        ("n=1", config.n == 1),
        ("p=0", p == 0.0),
        ("p=1", p == 1.0),
        ("dark counts", config.p_dc > 0.0 and stats.false_coincidences > 0),
        ("trace cap", 0 < len(stats.trace) == config.trace_limit),
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
            stats = des_run(config)
            assert stats == _reference_literal(config), config
            events = {event for _, _, event in stats.trace}
            seen |= _coverage(config, stats) | {
                ("one-sided confirm", stats.one_sided_confirms > 0),
                ("stale announcement", "stale_ignored" in events),
                ("mismatch reset", "mismatch_reset" in events),
                ("confirm", "confirm" in events),
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


class TestOmniscientEngineMatchesReference:
    def test_random_small_configs(self):
        rng = random.Random(20132)
        seen = set()
        for _ in range(200):
            config = _random_small_config(rng, SimMode.OMNISCIENT)
            stats = des_run(config)
            assert stats == _reference_omniscient(config), config
            seen |= _coverage(config, stats)
        assert {name for name, hit in seen if hit} == {name for name, _ in seen}

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_runs_of_many_blocks(self, case):
        config = SimConfig(mode=SimMode.OMNISCIENT, **BLOCK_CASES[case])
        assert des_run(config) == _reference_omniscient(config)


class TestHeraldStream:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_does_not_change_the_run(self, case, monkeypatch):
        configs = [SimConfig(mode=mode, **BLOCK_CASES[case]) for mode in SimMode]
        expected = [des_run(config) for config in configs]
        # Each mode's stream: the literal sides' gaps, the omniscient epochs'
        # (first gap, category word) blocks.
        streams = {SimMode.LITERAL: "_herald_blocks", SimMode.OMNISCIENT: "_epoch_blocks"}
        originals = {mode: getattr(protocol, name) for mode, name in streams.items()}
        for block in (1, 7):
            sizes = {mode: [] for mode in streams}

            def counted(mode):
                def blocks(*args):
                    for drawn in originals[mode](*args):
                        sizes[mode].append(len(drawn[0] if mode is SimMode.OMNISCIENT else drawn))
                        yield drawn

                return blocks

            monkeypatch.setattr(protocol, "_BLOCK", block)
            for mode, name in streams.items():
                monkeypatch.setattr(protocol, name, counted(mode))
            assert [des_run(config) for config in configs] == expected, block
            # The patched size took effect: every block has it.  Every counted
            # literal herald drew a gap, and every counted omniscient epoch a
            # first gap and a category word; an epoch holds at most one herald
            # per side.
            assert set(sizes[SimMode.LITERAL]) == set(sizes[SimMode.OMNISCIENT]) == {block}
            for config, stats in zip(configs, expected):
                drawn = len(sizes[config.mode]) * block
                if config.mode is SimMode.LITERAL:
                    assert drawn >= stats.heralds_left + stats.heralds_right
                else:
                    assert drawn >= max(stats.heralds_left, stats.heralds_right)

    def test_swapped_streams_mirror_the_run(self, monkeypatch):
        """Swapping the sides' draws mirrors the run: the herald counts trade
        places and the trace swaps left and right.  The literal sides swap
        gap streams, which pins the literal engine's swapped per-side locals,
        whichever side ends the run.  An omniscient epoch's category word
        moves from a left-first interval to its right-first twin and back, at
        the same offset inside it, which pins which side each interval and each
        block count stands for."""
        rng = random.Random(20134)
        cap = 10**6  # above every run's event count, so the whole trace is kept
        configs = [
            SimConfig(mode=mode, **{**BLOCK_CASES[case], "trace_limit": limit})
            for case in sorted(BLOCK_CASES)
            for mode in SimMode
            for limit in (0, cap)  # without a trace, omniscient blocks are counted whole
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some runs are shorter than 10n
            configs += [
                dataclasses.replace(_random_small_config(rng, mode), trace_limit=cap)
                for mode in SimMode
                for _ in range(50)
            ]
        runs = [des_run(config) for config in configs]
        herald_blocks, epoch_blocks = protocol._herald_blocks, protocol._epoch_blocks
        monkeypatch.setattr(
            protocol, "_herald_blocks", lambda seed, model, side: herald_blocks(seed, model, 1 - side)
        )

        def mirrored_epochs(config):
            ends, _ = _category_ends(config.herald.p_any, config.n)
            tie, left_soon, soon, left_alone = (math.ceil(t * 2**53) for t in ends)
            width = left_soon - tie  # of each within-n interval, give or take a step

            def mirror(word):
                m = word >> 11
                if tie <= m < soon:
                    left = m < left_soon
                    m += width if left else -width
                    assert (tie <= m < left_soon) if not left else (left_soon <= m < soon)
                elif m >= soon:
                    m = left_alone if m < left_alone else soon
                    assert soon < left_alone < 2**53
                return m << 11 | word & 0x7FF

            def blocks(*args):
                for gaps, words in epoch_blocks(*args):
                    yield gaps, np.array([mirror(word) for word in words.tolist()], np.uint64)

            return blocks

        mirror = {"left": "right", "right": "left", "both": "both"}
        for config, stats in zip(configs, runs):
            monkeypatch.setattr(protocol, "_epoch_blocks", mirrored_epochs(config))
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
        small = runs[4 * len(BLOCK_CASES):]
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
        """Over 10**5 epochs: the first gap has law ``Geom(1 - q**2)`` in mean
        and tail; the five categories come with probabilities ``a``, ``s c``,
        ``s c``, ``s (1 - c)`` and ``s (1 - c)``, here from the joint law of two
        independent geometric waits; and the later herald's offset within
        ``n`` follows the geometric law truncated to ``[1, n]``."""
        count, q, log_q = 100_000, 1.0 - p, math.log1p(-p)
        blocks = itertools.islice(protocol._epoch_blocks(5, log_q, float(_NEVER)), 49)
        gaps, words = (np.concatenate(parts)[:count] for parts in zip(*blocks))
        assert len(gaps) == count

        def within_4_se(hits, probability):
            se = math.sqrt(probability * (1.0 - probability) / count)
            return abs(hits / count - probability) <= 4.0 * se

        first = 1.0 - q * q  # some side heralds in a cycle
        gap_se = math.sqrt((1.0 - first) / first**2 / count)
        assert gaps.min() >= 1
        assert abs(gaps.mean() - 1.0 / first) <= 4.0 * gap_se
        for g in (1, 2, round(1.0 / first), round(3.0 / first)):
            assert within_4_se(np.count_nonzero(gaps > g), q ** (2 * g)), g

        c = 1.0 - q**n
        tie, alone = p * p / first, p * q / first
        law = [tie, alone * c, alone * c, alone * (1.0 - c), alone * (1.0 - c)]
        steps = protocol._epoch_bounds(p, log_q, n)
        places = words >> np.uint64(11)
        category = np.searchsorted(np.array(steps, np.uint64), places, side="right")
        for hits, probability in zip(np.bincount(category, minlength=5), law):
            assert within_4_se(hits, probability), (hits, probability)

        for lo, hi, which in ((steps[0], steps[1], 1), (steps[1], steps[2], 2)):
            inside = places[category == which].astype(np.int64)
            offsets = np.array([
                protocol._late_offset(place, log_q, n) for place in ((inside - lo) / (hi - lo))
            ])
            assert offsets.min() >= 1 and offsets.max() <= n
            for d in range(1, n + 1):
                probability = q ** (d - 1) * p / c
                se = math.sqrt(probability * (1.0 - probability) / len(offsets))
                assert abs(np.count_nonzero(offsets == d) / len(offsets) - probability) <= 4 * se

    @pytest.mark.parametrize("beta_qd, n", [(0.003, 3), (0.5, 2000)])
    def test_category_ends_are_exact_next_to_a_word(self, beta_qd, n, monkeypatch):
        """Category words one step below and at each interval end are sorted
        by ``u < t``, both in the block counts and one epoch at a time; a raw
        bound rounded down would misplace the word below an end that is not a
        whole step.  At ``p n > 745`` (the second case) ``q**n`` underflows,
        so ``c = 1``, the last two ends are ``2**53`` and their raw bound is
        ``2**64``, which must not wrap: every epoch heralds on both sides."""
        config = SimConfig(beta_qd=beta_qd, beta_ms=1.0, n=n, total_cycles=400 * (n + 3), seed=5)
        p = config.herald.p_any
        ends, c = _category_ends(p, n)
        steps = [math.ceil(t * 2**53) for t in ends]
        assert steps == list(protocol._epoch_bounds(p, math.log1p(-p), n))
        if n == 2000:
            assert c == 1.0 and steps[2:] == [2**53, 2**53]
        else:
            assert sum(step - 1 < t * 2**53 < step for t, step in zip(ends, steps)) >= 2
        words = sorted(
            {word for step in steps for word in ((step << 11) - 1, step << 11) if word < 2**64}
        )
        draws = [(1 + j % 3, word) for j, word in enumerate(words * 3)]

        def blocks(*args):
            endless = itertools.cycle(draws)
            while True:
                gaps, block = zip(*itertools.islice(endless, protocol._BLOCK))
                yield np.array(gaps, np.int64), np.array(block, np.uint64)

        monkeypatch.setattr(protocol, "_epoch_blocks", blocks)
        for trace_limit in (0, 10**6):  # blocks counted whole, and every epoch one at a time
            run = dataclasses.replace(config, trace_limit=trace_limit)
            stats = des_run(run)
            assert stats == _reference_omniscient(run, itertools.cycle(draws))
            assert stats.true_coincidences > 0
            assert (stats.heralds_left == stats.heralds_right) == (n == 2000)

    def test_certain_and_impossible_epochs(self, monkeypatch):
        """At ``p = 1`` every epoch is a tie of gap 1: every end is ``2**53``.
        At ``p = 0`` no herald comes, and the engine draws nothing."""
        log_q = -math.inf  # log(1 - p) at p = 1
        assert protocol._epoch_bounds(1.0, log_q, 7) == (2**53,) * 4
        gaps, words = next(protocol._epoch_blocks(3, log_q, float(_NEVER)))
        assert gaps.tolist() == [1] * protocol._BLOCK
        lossless = SimConfig(beta_qd=1.0, beta_ms=1.0, n=7, total_cycles=5000, seed=3)
        stats = des_run(lossless)
        assert stats == _reference_omniscient(lossless)
        epochs = _expected_lossless_pairs(5000, 7, stats.warmup_cycles)
        assert stats.heralds_left == stats.heralds_right == stats.true_coincidences == epochs

        def no_draws(*args):
            raise AssertionError("drew at p = 0")

        monkeypatch.setattr(protocol, "_epoch_blocks", no_draws)
        dark = SimConfig(beta_qd=0.0, beta_ms=0.5, n=7, total_cycles=5000, seed=3, trace_limit=9)
        stats = des_run(dark)
        assert stats == _reference_omniscient(dark)
        assert stats.heralds_left == stats.heralds_right == 0
        assert stats.open_fraction == 1.0 and stats.trace == ()


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
        counts = dict(n=5, total_cycles=2000, seed=11, trace_limit=3)
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
        stats = des_run(SimConfig(trace_limit=7, **LOSSLESS))
        assert len(stats.trace) == 7

    @pytest.mark.parametrize("mode", list(SimMode))
    def test_trace_limit_changes_only_the_trace(self, mode):
        """A long trace makes the omniscient engine play thousands of epochs
        one at a time, pairs included, before it counts blocks, and the
        literal engine collect notes for longer; neither may change a count."""
        config = SimConfig(mode=mode, **{**BLOCK_CASES["many_blocks"], "trace_limit": 0})
        expected = des_run(config)
        assert expected.true_coincidences > 0 and expected.false_coincidences > 0
        for limit in (1, 37, 1000, 10_000):
            stats = des_run(dataclasses.replace(config, trace_limit=limit))
            assert len(stats.trace) == limit
            assert dataclasses.replace(stats, trace=()) == expected, limit
        assert sum(event == "confirm" for _, _, event in stats.trace) > 1000

    def test_trace_csv(self):
        stats = des_run(SimConfig(trace_limit=3, **LOSSLESS))
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
    ("p001_n500", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=1000000,
        warmup_cycles=1000,
        measured_cycles=999000,
        tau_c_ns=500.0,
        heralds_left=1808,
        heralds_right=1810,
        true_coincidences=10,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.09195395395395395,
        rate_hz=20.020020020020016,
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
    ("dark_counts", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=50000,
        warmup_cycles=40,
        measured_cycles=49960,
        tau_c_ns=500.0,
        heralds_left=1647,
        heralds_right=1687,
        true_coincidences=45,
        false_coincidences=21,
        one_sided_confirms=0,
        open_fraction=0.25554443554843875,
        rate_hz=2642.1136909527618,
        infidelity_estimate=0.3181818181818182,
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
    ("trace", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=3000,
        warmup_cycles=12,
        measured_cycles=2988,
        tau_c_ns=500.0,
        heralds_left=308,
        heralds_right=290,
        true_coincidences=50,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.31894243641231595,
        rate_hz=33467.20214190093,
        infidelity_estimate=0.0,
        trace=(
            (1, "left", "herald"), (4, "right", "herald"),
            (7, "left", "timeout"), (8, "left", "herald"),
            (10, "right", "herald"), (14, "left", "timeout"),
            (15, "right", "herald"), (21, "left", "herald"),
            (21, "right", "timeout"), (22, "left", "herald"),
            (22, "right", "herald"), (28, "both", "confirm"),
            (29, "left", "herald"), (32, "right", "herald"),
            (35, "left", "timeout"), (36, "right", "herald"),
            (42, "right", "timeout"), (44, "right", "herald"),
            (50, "left", "herald"), (50, "right", "timeout"),
            (51, "left", "herald"), (51, "right", "herald"),
            (57, "both", "confirm"), (58, "left", "herald"),
        ),
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
    ("n1", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=20000,
        warmup_cycles=2,
        measured_cycles=19998,
        tau_c_ns=500.0,
        heralds_left=4803,
        heralds_right=4863,
        true_coincidences=1226,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.6604660466046605,
        rate_hz=122612.2612261226,
        infidelity_estimate=0.0,
        trace=(
            (3, "right", "herald"), (4, "left", "herald"),
            (4, "right", "timeout"), (6, "left", "herald"),
            (7, "right", "herald"), (7, "left", "timeout"),
        ),
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
        trace=(
            (0, "left", "herald"), (0, "right", "herald"),
            (7, "both", "confirm"), (8, "left", "herald"),
            (8, "right", "herald"), (15, "both", "confirm"),
        ),
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
    ("beta_qd_1_dark", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=30000,
        warmup_cycles=30,
        measured_cycles=29970,
        tau_c_ns=500.0,
        heralds_left=1782,
        heralds_right=1782,
        true_coincidences=324,
        false_coincidences=45,
        one_sided_confirms=0,
        open_fraction=0.10724057390724058,
        rate_hz=24624.624624624623,
        infidelity_estimate=0.12195121951219512,
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
    ("beta_qd_0_dark", "omniscient"): SimStats(
        mode='omniscient',
        cycles_run=40000,
        warmup_cycles=20,
        measured_cycles=39980,
        tau_c_ns=500.0,
        heralds_left=2190,
        heralds_right=2205,
        true_coincidences=0,
        false_coincidences=125,
        one_sided_confirms=0,
        open_fraction=0.3441720860430215,
        rate_hz=6253.126563281639,
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
        open_fraction=0.023333333333333334,
        rate_hz=0.0,
        infidelity_estimate=None,
        trace=(
            (0, "right", "herald"), (4, "left", "herald"),
            (100, "right", "timeout"), (102, "left", "herald"),
            (103, "right", "herald"), (202, "left", "timeout"),
            (205, "left", "herald"), (207, "right", "herald"),
            (305, "left", "timeout"),
        ),
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
        config = SimConfig(mode=SimMode(mode), **GOLDEN_CASES[case])
    assert des_run(config) == GOLDEN_STATS[case, mode]
