"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Statistical criteria run on fixed seeds, so outcomes are reproducible; their
uncertainty is the standard error across independent-seed replicates.
"""

import math
import time

import numpy as np

from mpslink import (
    DB_HALF,
    BsmVariant,
    ChannelGeometry,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    SimConfig,
    SimMode,
    TimingParams,
    collapse,
    db_to_prob,
    des_run,
    full_chain,
    mpi_loss,
    mpi_rate,
    mps_infidelity,
    mps_infidelity_simplified,
    mps_rate,
    mps_rate_limit,
    mps_side_loss,
    rate_from_stationary,
    stationary,
    stationary_closed_prob,
    stationary_open_prob,
)
from mpslink.rng import derive_seed

P_GRID = (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)
SQUARE = LossBudget(alpha_qd_db=10.0, alpha_bsm_db=5.0)
TRIANGLE = LossBudget(alpha_qd_db=20.0, alpha_bsm_db=10.0)


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")


def _replicates(p: float, n: int, total_cycles: int, count: int, mode: SimMode, tag: str):
    per_run = total_cycles // count
    stats = []
    for i in range(count):
        config = SimConfig(
            beta_qd=1.0,
            beta_ms=p,
            n=n,
            total_cycles=per_run,
            seed=derive_seed(2024, tag, i),
            mode=mode,
        )
        stats.append(des_run(config))
    return stats


def _mean_sem(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def test_criterion_01_closed_form_equilibrium_equivalence():
    """Numeric stationary state of the full chain matches the closed forms."""
    start = time.monotonic()
    worst_open = worst_tail = 0.0
    for n in range(1, 51):
        for p in P_GRID:
            pi = stationary(full_chain(n, p))
            worst_open = max(worst_open, abs(pi[0] - stationary_open_prob(n, p)))
            tails = collapse(pi, n)[1:]
            worst_tail = max(worst_tail, np.max(np.abs(tails - stationary_closed_prob(n, p))))
    elapsed = time.monotonic() - start
    ok = worst_open <= 1e-10 and worst_tail <= 1e-10 and elapsed < 10.0
    _report(
        1,
        ok,
        f"max |pi00 - closed form| = {worst_open:.2e}, "
        f"max tail deviation = {worst_tail:.2e}, runtime {elapsed:.2f}s",
    )
    assert worst_open <= 1e-10
    assert worst_tail <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_formula_consistency():
    """Rate formula equals the equilibrium-flux route; 90% point is exact."""
    worst = 0.0
    tau_c = 500e-9
    for n in range(1, 51):
        for p in P_GRID:
            beta_2 = p * p
            formula = mps_rate(beta_2, n * tau_c, n)
            flux = rate_from_stationary(stationary_open_prob(n, p), beta_2, tau_c)
            worst = max(worst, abs(formula - flux) / flux)
    # n * (2 sqrt(beta_2) - beta_2) = 9 exactly at beta_2 = 0.25, n = 12
    x = 12 * (2.0 * math.sqrt(0.25) - 0.25)
    ratio = mps_rate(0.25, 250e-6, 12) / mps_rate_limit(0.25, 250e-6)
    ok = worst <= 1e-12 and x == 9.0 and ratio == 0.9
    _report(2, ok, f"max relative gap = {worst:.2e}, ratio at x=9 is {ratio!r}")
    assert worst <= 1e-12
    assert x == 9.0
    assert ratio == 0.9


def test_criterion_03_worked_example():
    """40 dB two-sided loss, 250 us delay, n = 500 gives a 500 ns clock at >= 90%."""
    timing = TimingParams(tau_c_ns=500.0, tau_t_us=250.0)
    beta_2 = db_to_prob(40.0)
    tau_c_s = timing.tau_t_s / timing.n
    ratio = mps_rate(beta_2, timing.tau_t_s, timing.n) / mps_rate_limit(beta_2, timing.tau_t_s)
    ok = timing.n == 500 and tau_c_s == 500e-9 and ratio >= 0.9
    _report(3, ok, f"n = {timing.n}, tau_c = {tau_c_s!r} s, ratio = {ratio:.6f}")
    assert timing.n == 500
    assert tau_c_s == 500e-9
    assert ratio >= 0.9


def _profile_rates(budget: LossBudget, length_km: float, tau_c_ns: float = 500.0):
    geom = ChannelGeometry(length_km=length_km)
    alpha1 = mpi_loss(budget, geom)
    side = mps_side_loss(budget, geom)
    timing = TimingParams(tau_c_ns=tau_c_ns, tau_t_us=geom.tau_t_us)
    g1 = mpi_rate(db_to_prob(alpha1), geom.tau_t_s)
    g2 = mps_rate(side.beta_2, geom.tau_t_s, timing.n)
    g2_star = mps_rate_limit(side.beta_2, geom.tau_t_s)
    return g1, g2, g2_star


def test_criterion_04_band_monotonicity_and_slope():
    """Improvement band at 50 km, monotone decay with distance, halved log slope."""
    g1_sq, _, g2s_sq = _profile_rates(SQUARE, 50.0)
    g1_tr, _, g2s_tr = _profile_rates(TRIANGLE, 50.0)
    ratio_sq = g2s_sq / g1_sq
    ratio_tr = g2s_tr / g1_tr

    distances = [10.0 + 5.0 * i for i in range(19)]
    monotone = True
    for budget in (SQUARE, TRIANGLE):
        curves = [_profile_rates(budget, d) for d in distances]
        for series in zip(*curves):
            monotone &= all(a > b for a, b in zip(series, series[1:]))

    # fiber-term slope: remove the shared 1/tau_t factor, compare decay exponents
    g1_a, _, g2s_a = _profile_rates(SQUARE, 50.0)
    g1_b, _, g2s_b = _profile_rates(SQUARE, 60.0)
    delay_term = math.log10(300.0 / 250.0)
    slope_ratio = (math.log10(g2s_b / g2s_a) + delay_term) / (
        math.log10(g1_b / g1_a) + delay_term
    )

    ok = (
        10.0 <= ratio_sq <= 100.0
        and ratio_tr > ratio_sq
        and ratio_tr <= 200.0
        and monotone
        and 0.45 <= slope_ratio <= 0.55
    )
    _report(
        4,
        ok,
        f"band ratios: square {ratio_sq:.1f}, triangle {ratio_tr:.1f}; "
        f"monotone decay: {monotone}; fiber slope ratio {slope_ratio:.4f}",
    )
    assert 10.0 <= ratio_sq <= 100.0
    assert ratio_tr > ratio_sq
    assert ratio_tr <= 200.0
    assert monotone
    assert 0.45 <= slope_ratio <= 0.55


def test_criterion_04_mpi_rate_below_one_per_second():
    """Square-profile baseline rate at 50 km, and where it falls below 1/s.

    Midpoint interference loses 10 dB at each dot, 5 dB at the BSM and
    0.2 dB/km of fiber, so at 50 km alpha_1 = 2*10 + 5 + 0.2*50 = 35 dB.
    One attempt per delay window at 5 us/km gives tau_t = 250 us, hence
    g_1 = 10**-3.5 / 250 us = 1.2649 pairs/s.  The closed form
    g_1(L) = 10**(-(25 + 0.2 L) / 10) / (5e-6 L) crosses 1/s near 53.6 km,
    so on the 10:100:5 sweep grid g_1 >= 1/s up to 50 km and < 1/s from
    55 km on.
    """
    distances = [10.0 + 5.0 * i for i in range(19)]
    g1 = {d: _profile_rates(SQUARE, d)[0] for d in distances}
    expected_50 = 10.0 ** (-(2 * 10.0 + 5.0 + 0.2 * 50.0) / 10.0) / (50.0 * 5e-6)
    rel_gap = abs(g1[50.0] - expected_50) / expected_50

    above_one = [d for d in distances if d <= 50.0]
    below_one = [d for d in distances if d >= 55.0]
    crossing_ok = all(g1[d] >= 1.0 for d in above_one) and all(g1[d] < 1.0 for d in below_one)

    ok = rel_gap <= 1e-12 and crossing_ok
    _report(
        4,
        ok,
        f"square-profile baseline rate at 50 km = {g1[50.0]:.4f} /s "
        f"(35 dB over 250 us gives {expected_50:.4f}, rel gap {rel_gap:.1e}); "
        f"g1(55 km) = {g1[55.0]:.4f} /s, so the 1/s crossing lies between 50 and 55 km "
        f"(closed form: near 53.6 km)",
    )
    assert rel_gap <= 1e-12, (g1[50.0], expected_50)
    for d in above_one:
        assert g1[d] >= 1.0, (d, g1[d])
    for d in below_one:
        assert g1[d] < 1.0, (d, g1[d])


def test_criterion_05_omniscient_simulation_matches_chain():
    """Occupancy and pair rate reproduce the equilibrium within 3 SE."""
    results = []
    for p, n, total, tag in ((0.1, 50, 10_000_000, "pA"), (0.01, 500, 100_000_000, "pB")):
        start = time.monotonic()
        stats = _replicates(p, n, total, count=8, mode=SimMode.OMNISCIENT, tag=tag)
        elapsed = time.monotonic() - start
        occupancy, occupancy_sem = _mean_sem([s.open_fraction for s in stats])
        rate, rate_sem = _mean_sem([s.rate_hz for s in stats])
        expected_occupancy = stationary_open_prob(n, p)
        expected_rate = rate_from_stationary(expected_occupancy, p * p, 500e-9)
        occ_z = abs(occupancy - expected_occupancy) / occupancy_sem
        rate_z = abs(rate - expected_rate) / rate_sem
        results.append((p, n, occ_z, rate_z, elapsed))
    ok = all(
        occ_z <= 3.0 and rate_z <= 3.0 and elapsed < 60.0
        for _, _, occ_z, rate_z, elapsed in results
    )
    detail = "; ".join(
        f"(p={p}, n={n}) occupancy z={occ_z:.2f}, rate z={rate_z:.2f}, {elapsed:.1f}s"
        for p, n, occ_z, rate_z, elapsed in results
    )
    _report(5, ok, detail)
    for p, n, occ_z, rate_z, elapsed in results:
        assert occ_z <= 3.0, (p, n)
        assert rate_z <= 3.0, (p, n)
        assert elapsed < 60.0, (p, n)


def test_criterion_06_lossless_determinism_oracle():
    """Unit success probability: exactly one confirmed pair per n+1 cycles."""
    n, total = 10, 20_000
    results = []
    for mode in (SimMode.OMNISCIENT, SimMode.LITERAL):
        stats = des_run(
            SimConfig(beta_qd=1.0, beta_ms=1.0, n=n, total_cycles=total, seed=1, mode=mode)
        )
        expected = len(
            [b for b in range(0, total, n + 1) if b >= stats.warmup_cycles and b + n < total]
        )
        results.append(
            (mode.value, stats.true_coincidences, expected, stats.false_coincidences)
        )
    ok = all(got == want and false == 0 for _, got, want, false in results)
    _report(6, ok, "; ".join(f"{m}: {got}/{want} pairs" for m, got, want, _ in results))
    for mode, got, want, false in results:
        assert got == want, mode
        assert false == 0, mode


def test_criterion_07_dark_count_fidelity():
    """Formula forms agree; Monte Carlo infidelity matches the union oracle."""
    worst = 0.0
    for exp_qd in (-4.0, -3.0, -2.0, -1.0, 0.0):
        for exp_ms in (-4.0, -2.5, -1.0, 0.0):
            beta_qd, beta_ms = 10.0**exp_qd, 10.0**exp_ms
            a = mps_infidelity(1e-6, beta_qd, beta_ms)
            b = mps_infidelity_simplified(1e-6, beta_qd, beta_ms)
            if b > 0:
                worst = max(worst, abs(a - b) / b)
            else:
                worst = max(worst, abs(a - b))

    beta, p_dc = 0.1, 1e-3
    variant = BsmVariant.SINGLET_ONLY
    stats = des_run(
        SimConfig(
            beta_qd=beta,
            beta_ms=beta,
            n=5,
            total_cycles=20_000_000,
            seed=7,
            p_dc=p_dc,
            bsm_variant=variant,
        )
    )
    # union-of-false-heralds oracle from first-order enumeration
    p_true = beta * beta
    p_false = (
        (beta * (1 - beta) + beta * (1 - beta)) * 2.0 * variant.dark_count_factor * p_dc
        + (1 - beta) ** 2 * variant.dark_count_factor * p_dc**2
    )
    q = p_true + p_false
    oracle = 1.0 - (p_true / q) ** 2
    pairs = stats.true_coincidences + stats.false_coincidences
    estimate = stats.infidelity_estimate
    sigma = math.sqrt(oracle * (1.0 - oracle) / pairs)
    z = abs(estimate - oracle) / sigma

    clean = des_run(
        SimConfig(beta_qd=beta, beta_ms=beta, n=5, total_cycles=1_000_000, seed=7)
    )
    clean_estimate = clean.infidelity_estimate

    ok = worst <= 1e-12 and z <= 3.0 and clean_estimate == 0.0
    _report(
        7,
        ok,
        f"form agreement {worst:.2e}; MC {estimate:.5f} vs oracle {oracle:.5f} "
        f"(z={z:.2f}, {pairs} pairs); p_dc=0 estimate {clean_estimate}",
    )
    assert worst <= 1e-12
    assert z <= 3.0
    assert clean_estimate == 0.0


def test_criterion_08_variant_penalties_exact():
    """Time-bin conversion and twin single-photon sources cost exact penalties."""
    geom = ChannelGeometry(50.0)
    alpha1_pol = mpi_loss(SQUARE, geom, EncodingVariant.POLARIZATION)
    alpha1_tb = mpi_loss(SQUARE, geom, EncodingVariant.TIME_BIN_CONVERTED)
    side_pol = mps_side_loss(SQUARE, geom, EncodingVariant.POLARIZATION)
    side_tb = mps_side_loss(SQUARE, geom, EncodingVariant.TIME_BIN_CONVERTED)
    side_sps = mps_side_loss(
        SQUARE, geom, midpoint=MidpointVariant.TWO_SINGLE_PHOTON_SOURCES
    )
    checks = (
        alpha1_tb == alpha1_pol + 2.0 * DB_HALF,
        side_tb.alpha_side_db == side_pol.alpha_side_db + DB_HALF,
        side_sps.beta_2 == 0.5 * side_pol.beta_2,
        side_sps.alpha2_db == 2.0 * (side_pol.alpha_side_db + DB_HALF / 2.0),
    )
    ok = all(checks)
    _report(
        8,
        ok,
        f"time-bin adds {alpha1_tb - alpha1_pol:.6f} dB end to end, "
        f"{side_tb.alpha_side_db - side_pol.alpha_side_db:.6f} dB per side; "
        f"twin sources scale beta_2 by {side_sps.beta_2 / side_pol.beta_2!r}",
    )
    assert all(checks)


def test_criterion_09_literal_rate_not_above_omniscient():
    """Paired seeds: the literal message protocol never beats the omniscient chain."""
    p, n, total = 0.01, 500, 30_000_000
    gaps = []
    ok = True
    for seed in (1, 2, 3):
        base = dict(beta_qd=1.0, beta_ms=p, n=n, total_cycles=total, seed=seed)
        omniscient = des_run(SimConfig(mode=SimMode.OMNISCIENT, **base))
        literal = des_run(SimConfig(mode=SimMode.LITERAL, **base))
        ok &= literal.rate_hz <= omniscient.rate_hz
        ok &= literal.open_fraction <= omniscient.open_fraction
        gaps.append(1.0 - literal.rate_hz / omniscient.rate_hz)
    _report(
        9,
        ok,
        "literal/omniscient rate gap per seed: "
        + ", ".join(f"{gap:.1%}" for gap in gaps)
        + " (informational)",
    )
    for seed, gap in zip((1, 2, 3), gaps):
        assert 0.0 <= gap <= 1.0, seed
    assert ok
