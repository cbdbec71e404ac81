"""Receiver state machine, herald sampling and the two simulation engines."""

import io
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
    ClassicalMessage,
    Closed,
    HeraldKind,
    HeraldRecord,
    InvariantError,
    LossBudget,
    OPEN,
    Open,
    Side,
    SimConfig,
    SimMode,
    SimStats,
    bsm_attempt_sample,
    des_run,
    estimate_infidelity,
    herald_model,
    mpi_reference_run,
    rate_from_stationary,
    receiver_step,
    stationary_open_prob,
    write_trace_csv,
)
from mpslink.protocol import _NEVER, HeraldModel, _HeraldStream, _open_cycles, _sim_stats


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
            "from mpslink import Closed, InvariantError, receiver_step\n"
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


def _reference_literal(config):
    """The literal protocol driven through :func:`receiver_step`, one event at a time.

    This is the readable form of the transition rule that ``des_run``
    inlines on ints in literal mode; the two must agree field for field.
    """
    n, total, warmup = config.n, config.total_cycles, config.warmup_cycles
    stream = _HeraldStream(config.seed, config.herald)
    sides = tuple(Side)  # engine index 0 is Side.LEFT
    heralds = [0, 0]
    true_pairs = false_pairs = one_sided = both_open = 0
    trace = []

    def note(cycle, side, event):
        if len(trace) < config.trace_limit:
            trace.append((cycle, side, event))

    state = {side: OPEN for side in Side}
    next_herald = {side: stream.next_herald(i, 0) for i, side in enumerate(sides)}
    inflight = {side: deque() for side in Side}
    now_open, open_since = True, 0

    while True:
        candidates = []
        for side in Side:
            if isinstance(state[side], Closed):
                candidates.append(state[side].deadline)
            else:
                candidates.append(next_herald[side])
            if inflight[side]:
                candidates.append(inflight[side][0].arrival)
        t = min(candidates)
        if t >= total:
            break

        confirms = {}
        for i, side in enumerate(sides):
            inbox = []
            while inflight[side] and inflight[side][0].arrival == t:
                inbox.append(inflight[side].popleft())
            local = None
            if isinstance(state[side], Open) and next_herald[side] == t:
                truth = stream.is_true(i, t)
                kind = HeraldKind.TRUE_HERALD if truth else HeraldKind.FALSE_HERALD
                local = HeraldRecord(cycle=t, side=side, kind=kind)
                if t >= warmup:
                    heralds[i] += 1
            due = isinstance(state[side], Closed) and state[side].deadline == t
            if local is None and not inbox and not due:
                continue
            new_state, outgoing, events = receiver_step(state[side], t, local, inbox, n)
            inflight[side.other].extend(outgoing)
            for event in events:
                note(t, side.value, event.kind)
                if event.kind == "confirm":
                    confirms[side] = event
            if isinstance(new_state, Closed):
                next_herald[side] = _NEVER
            elif isinstance(state[side], Closed):
                next_herald[side] = stream.next_herald(i, t + 1)
            state[side] = new_state

        if len(confirms) == 2:
            left, right = confirms[Side.LEFT], confirms[Side.RIGHT]
            assert left.bin == right.bin and left.pair_true == right.pair_true
            if left.bin >= warmup:
                if left.pair_true:
                    true_pairs += 1
                else:
                    false_pairs += 1
        elif len(confirms) == 1:
            one_sided += 1

        all_open = all(isinstance(state[side], Open) for side in Side)
        if all_open != now_open:
            if now_open:
                both_open += _open_cycles(open_since, t, warmup, total)
            now_open, open_since = all_open, t + 1

    if now_open:
        both_open += _open_cycles(open_since, total - 1, warmup, total)
    return _sim_stats(
        config, SimMode.LITERAL, heralds, true_pairs, false_pairs, one_sided, both_open, trace
    )


def _random_small_config(rng):
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
            mode=SimMode.LITERAL,
            trace_limit=rng.choice([0, 4, 100]),
        )


class TestLiteralEngineMatchesReceiverStep:
    def test_random_small_configs(self):
        rng = random.Random(20131)
        for _ in range(200):
            config = _random_small_config(rng)
            assert des_run(config) == _reference_literal(config), config


class TestHeraldStream:
    MODEL = herald_model(0.5, 0.5, 0.01, BsmVariant.SINGLET_ONLY)

    def test_reopening_at_or_before_the_last_herald_is_a_bug(self):
        stream = _HeraldStream(3, self.MODEL)
        herald = stream.next_herald(0, 40)
        stream.next_herald(1, 10)  # each side keeps its own pointer
        herald = stream.next_herald(0, herald + 1)
        with pytest.raises(
            InvariantError, match=f"side 0 reopened at {herald}, not after its last herald {herald}$"
        ):
            stream.next_herald(0, herald)
        with pytest.raises(InvariantError, match="not after its last herald"):
            stream.next_herald(0, 39)

    def test_kind_of_a_cycle_other_than_the_last_herald_is_a_bug(self):
        stream = _HeraldStream(3, self.MODEL)
        for cycle in (0, -1):
            with pytest.raises(InvariantError, match="not its last herald -1$"):
                stream.is_true(0, cycle)
        herald = stream.next_herald(0, 0)
        stream.is_true(0, herald)
        with pytest.raises(InvariantError, match="not its last herald"):
            stream.is_true(0, herald + 1)
        with pytest.raises(InvariantError, match="not its last herald -1$"):
            stream.is_true(1, herald)

    def test_pointer_contract_survives_optimized_mode(self):
        code = (
            "from mpslink import InvariantError, HeraldModel\n"
            "from mpslink.protocol import _HeraldStream\n"
            "print('debug:', __debug__)\n"
            "stream = _HeraldStream(3, HeraldModel(p_true=1.0, p_false=0.0))\n"
            "stream.next_herald(1, 40)\n"
            "try:\n"
            "    stream.next_herald(1, 40)\n"
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
            "raised: side 1 reopened at 40, not after its last herald 40",
        ]

    BLOCK_CASES = {
        # About 10k heralds per side: five default blocks.
        "many_blocks": dict(
            beta_qd=0.9, beta_ms=0.9, n=5, total_cycles=60_000, seed=21, p_dc=0.02,
            trace_limit=40,
        ),
        "p001_n500": dict(beta_qd=1.0, beta_ms=0.01, n=500, total_cycles=300_000, seed=4),
        "n1": dict(beta_qd=0.6, beta_ms=0.5, n=1, total_cycles=20_000, seed=9, p_dc=0.01),
    }

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_does_not_change_the_run(self, case, monkeypatch):
        configs = [SimConfig(mode=mode, **self.BLOCK_CASES[case]) for mode in SimMode]
        expected = [des_run(config) for config in configs]
        for block in (1, 7):
            monkeypatch.setattr(_HeraldStream, "_BLOCK", block)
            assert [des_run(config) for config in configs] == expected, block

    @pytest.mark.parametrize("p_true, p_false", [(0.008, 0.002), (0.2, 0.1)])
    def test_gaps_and_marks_follow_the_bernoulli_law(self, p_true, p_false):
        model = HeraldModel(p_true=p_true, p_false=p_false)
        p, fraction, count = model.p_any, model.true_fraction, 100_000
        stream = _HeraldStream(5, model)
        herald, gaps, trues = -1, [], 0
        for _ in range(count):
            cycle = stream.next_herald(0, herald + 1)
            gaps.append(cycle - herald)
            trues += stream.is_true(0, cycle)
            herald = cycle
        assert min(gaps) >= 1
        gap_se = math.sqrt((1.0 - p) / p**2 / count)
        assert abs(sum(gaps) / count - 1.0 / p) <= 4.0 * gap_se
        mark_se = math.sqrt(fraction * (1.0 - fraction) / count)
        assert abs(trues / count - fraction) <= 4.0 * mark_se

    def test_gaps_are_the_scalar_inversion_of_raw_philox_words(self):
        """Each wait is ``max(1, ceil(log1p(-u) / log1p(-p)))`` of a uniform
        built from one raw 64-bit Philox word, the stream numpy keeps fixed
        across releases; the loop here is the scalar reference."""
        model = HeraldModel(p_true=0.2, p_false=0.1)
        log_fail = math.log1p(-model.p_any)
        words = np.random.Philox(np.random.SeedSequence([5, 1, 0])).random_raw(3000).tolist()
        stream = _HeraldStream(5, model)
        herald = -1
        for word in words:  # spans two default blocks
            expected = herald + max(1, math.ceil(math.log1p(-(word >> 11) / 2**53) / log_fail))
            herald = stream.next_herald(1, herald + 1)
            assert herald == expected

    def test_certain_and_impossible_heralds(self):
        never = _HeraldStream(3, HeraldModel(p_true=0.0, p_false=0.0))
        always = _HeraldStream(3, HeraldModel(p_true=1.0, p_false=0.0))
        for open_from in (0, 1, 17, 5000):
            for side in (0, 1):
                assert never.next_herald(side, open_from) == _NEVER
                assert always.next_herald(side, open_from) == open_from
                assert always.is_true(side, open_from)


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

    def test_warns_on_short_run(self):
        with pytest.warns(UserWarning):
            SimConfig(beta_qd=0.5, beta_ms=0.5, n=100, total_cycles=500)

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
        assert estimate_infidelity(stats) == 0.0

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
        estimate = estimate_infidelity(stats)
        sigma = math.sqrt(oracle * (1.0 - oracle) / pairs)
        assert abs(estimate - oracle) <= 3.0 * sigma

    def test_trace_is_capped(self):
        stats = des_run(SimConfig(trace_limit=7, **LOSSLESS))
        assert len(stats.trace) == 7

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


class TestMpiReferenceRun:
    def test_lossless_one_pair_per_window(self):
        stats = mpi_reference_run(1.0, 250e-6, windows=1000, seed=0)
        assert stats.true_coincidences == 1000
        assert stats.rate_hz == pytest.approx(1.0 / 250e-6, rel=1e-12)

    def test_total_loss(self):
        stats = mpi_reference_run(0.0, 250e-6, windows=1000, seed=0)
        assert stats.true_coincidences == 0
        assert stats.rate_hz == 0.0
        assert estimate_infidelity(stats) is None

    def test_rate_converges_to_formula(self):
        beta_1, tau_t, windows = 1e-4, 250e-6, 10_000_000
        stats = mpi_reference_run(beta_1, tau_t, windows=windows, seed=5)
        sigma_count = math.sqrt(windows * beta_1 * (1.0 - beta_1))
        expected = windows * beta_1
        assert abs(stats.true_coincidences - expected) <= 3.0 * sigma_count
        assert stats.rate_hz == pytest.approx(
            stats.true_coincidences / (windows * tau_t), rel=1e-12
        )

    def test_deterministic(self):
        assert mpi_reference_run(1e-3, 1e-4, 10_000, seed=9) == mpi_reference_run(
            1e-3, 1e-4, 10_000, seed=9
        )


# Full SimStats of both engines on fixed seeds.  The degenerate cases
# (beta_qd_0, beta_qd_1_lossless, no_measured) draw nothing that matters and
# are as first recorded; the others were recorded on the per-herald Philox
# draws.  Any change to event order, warm-up accounting, the herald
# draws or the rate arithmetic shows up here as an inequality.
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
        heralds_left=1814,
        heralds_right=1815,
        true_coincidences=9,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.09001101101101101,
        rate_hz=18.018018018018015,
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
        heralds_left=1653,
        heralds_right=1668,
        true_coincidences=35,
        false_coincidences=25,
        one_sided_confirms=0,
        open_fraction=0.25446357085668536,
        rate_hz=2401.921537229783,
        infidelity_estimate=0.4166666666666667,
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
        heralds_left=300,
        heralds_right=308,
        true_coincidences=29,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.30522088353413657,
        rate_hz=19410.97724230254,
        infidelity_estimate=0.0,
        trace=(
            (3, "right", "herald"), (5, "left", "herald"),
            (9, "right", "timeout"), (17, "left", "herald"),
            (23, "left", "timeout"), (24, "right", "herald"),
            (30, "left", "herald"), (30, "right", "timeout"),
            (39, "left", "herald"), (44, "right", "herald"),
            (45, "left", "timeout"), (46, "right", "herald"),
            (47, "left", "herald"), (52, "right", "timeout"),
            (59, "left", "herald"), (59, "right", "herald"),
            (65, "both", "confirm"), (66, "left", "herald"),
            (68, "right", "herald"), (72, "left", "timeout"),
            (75, "right", "herald"), (76, "left", "herald"),
            (81, "right", "timeout"), (83, "left", "herald"),
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
        true_coincidences=24,
        false_coincidences=1,
        one_sided_confirms=10,
        open_fraction=0.32028112449799195,
        rate_hz=16733.601070950466,
        infidelity_estimate=0.04,
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
        heralds_left=4815,
        heralds_right=4865,
        true_coincidences=1255,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.6635163516351635,
        rate_hz=125512.5512551255,
        infidelity_estimate=0.0,
        trace=(
            (0, "right", "herald"), (1, "left", "herald"),
            (1, "right", "timeout"), (2, "left", "herald"),
            (3, "left", "timeout"), (5, "right", "herald"),
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
        heralds_left=1774,
        heralds_right=1778,
        true_coincidences=296,
        false_coincidences=61,
        one_sided_confirms=0,
        open_fraction=0.11004337671004338,
        rate_hz=23823.823823823823,
        infidelity_estimate=0.17086834733893558,
    ),
    ("beta_qd_1_dark", "literal"): SimStats(
        mode='literal',
        cycles_run=30000,
        warmup_cycles=30,
        measured_cycles=29970,
        tau_c_ns=500.0,
        heralds_left=2446,
        heralds_right=2463,
        true_coincidences=34,
        false_coincidences=11,
        one_sided_confirms=211,
        open_fraction=0.08892225558892225,
        rate_hz=3003.0030030030025,
        infidelity_estimate=0.24444444444444444,
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
        heralds_left=2214,
        heralds_right=2220,
        true_coincidences=0,
        false_coincidences=128,
        one_sided_confirms=0,
        open_fraction=0.34132066033016506,
        rate_hz=6403.201600800398,
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
        true_coincidences=1,
        false_coincidences=0,
        one_sided_confirms=0,
        open_fraction=0.03666666666666667,
        rate_hz=6666.666666666666,
        infidelity_estimate=0.0,
        trace=(
            (2, "left", "herald"), (6, "right", "herald"),
            (102, "left", "timeout"), (104, "right", "herald"),
            (106, "left", "herald"), (204, "right", "timeout"),
            (206, "right", "herald"), (209, "left", "herald"),
            (306, "right", "timeout"),
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
        config = SimConfig(mode=SimMode.from_key(mode), **GOLDEN_CASES[case])
    assert des_run(config) == GOLDEN_STATS[case, mode]
