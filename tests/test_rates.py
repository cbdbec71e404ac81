"""Closed-form rate formulas and their cross-checks against the chain model."""

import math

import pytest
from hypothesis import given, strategies as st

from mpslink import (
    ImprovementFactor,
    RateReport,
    TimingParams,
    full_chain,
    improvement_factor,
    min_timeout_cycles,
    mpi_rate,
    mps_rate,
    mps_rate_limit,
    mps_rate_limit_high_loss,
    rate_from_stationary,
    stationary,
)

TAU_T = 250e-6  # 50 km at 5 us/km


class TestTimingParams:
    def test_exact_divisor(self):
        timing = TimingParams(tau_c_ns=500.0, tau_t_us=250.0)
        assert timing.n == 500

    def test_non_divisor_rounds_up(self):
        assert TimingParams(tau_c_ns=300.0, tau_t_us=250.0).n == 834
        assert TimingParams(tau_c_ns=400.0, tau_t_us=250.0).n == 625

    def test_bracketing_invariant(self):
        for tau_c, tau_t in ((500.0, 250.0), (300.0, 250.0), (7.0, 1.0), (999.0, 1000.0)):
            timing = TimingParams(tau_c_ns=tau_c, tau_t_us=tau_t)
            n = timing.n
            assert n >= 1
            assert n * tau_c >= tau_t * 1e3 * (1.0 - 1e-9)
            if n > 1:
                assert (n - 1) * tau_c < tau_t * 1e3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimingParams(tau_c_ns=0.0, tau_t_us=250.0)

    def test_overflowing_timeout_is_a_value_error(self):
        """It used to raise OverflowError from ``math.ceil(inf)``."""
        for tau_c_ns, tau_t_us in ((500.0, 1e306), (1e-310, 250.0)):
            with pytest.raises(ValueError, match="^timeout n = tau_t_us"):
                TimingParams(tau_c_ns=tau_c_ns, tau_t_us=tau_t_us).n


class TestMpiRate:
    def test_50km_desk_value(self):
        rate = mpi_rate(1e-4, TAU_T)
        assert rate == pytest.approx(0.4, rel=1e-12)
        assert rate < 1.0

    def test_unit_case(self):
        assert mpi_rate(1.0, 1.0) == 1.0

    def test_direct_formula(self):
        assert mpi_rate(1e-6, TAU_T) == pytest.approx(4e-3, rel=1e-12)

    def test_rejects_nonpositive_delay(self):
        with pytest.raises(ValueError):
            mpi_rate(1e-4, 0.0)


class TestMpsRate:
    def test_desk_value_via_chain_equilibrium(self):
        # independent route: numeric stationary distribution of the full chain
        chain = full_chain(500, math.sqrt(1e-4))
        pi00 = float(stationary(chain)[0])
        from_chain = rate_from_stationary(pi00, 1e-4, TAU_T / 500)
        direct = mps_rate(1e-4, TAU_T, 500)
        assert direct == pytest.approx(from_chain, rel=1e-10)
        assert direct == pytest.approx(18.26, abs=0.01)

    def test_lossless_single_cycle(self):
        assert mps_rate(1.0, TAU_T, 1) == pytest.approx(1.0 / (2.0 * TAU_T), rel=1e-12)

    def test_large_n_approaches_limit(self):
        limit = mps_rate_limit(1e-4, TAU_T)
        assert mps_rate(1e-4, TAU_T, 10**9) == pytest.approx(limit, rel=1e-6)

    @given(st.integers(min_value=1, max_value=400))
    def test_increasing_in_n_and_bounded(self, n):
        beta_2 = 1e-3
        here = mps_rate(beta_2, TAU_T, n)
        assert here < mps_rate(beta_2, TAU_T, n + 1)
        assert here <= mps_rate_limit(beta_2, TAU_T)


class TestMpsRateLimit:
    def test_desk_value(self):
        assert mps_rate_limit(1e-4, TAU_T) == pytest.approx(20.10, abs=0.01)

    def test_lossless(self):
        assert mps_rate_limit(1.0, TAU_T) == pytest.approx(1.0 / TAU_T, rel=1e-12)

    def test_high_loss_approximation_quality(self):
        exact = mps_rate_limit(1e-4, TAU_T)
        approx = mps_rate_limit_high_loss(1e-4, TAU_T)
        assert approx == pytest.approx(20.0, rel=1e-12)
        assert abs(exact - approx) / exact <= 0.005 * (1.0 + 1e-12)

    def test_relative_error_bound(self):
        # |limit - approx| / limit == sqrt(beta_2) / 2, algebraically
        for beta_2 in (1e-8, 1e-6, 1e-4):
            exact = mps_rate_limit(beta_2, TAU_T)
            approx = mps_rate_limit_high_loss(beta_2, TAU_T)
            bound = math.sqrt(beta_2) / 2.0
            assert abs(exact - approx) / exact <= bound * (1.0 + 1e-12)


def _min_n_by_scan(beta_2, fraction):
    limit = mps_rate_limit(beta_2, 1.0)
    n = 1
    while mps_rate(beta_2, 1.0, n) / limit < fraction:
        n += 1
    return n


class TestMinTimeoutCycles:
    def test_desk_value_matches_brute_force(self):
        assert min_timeout_cycles(1e-4, 0.9) == 453
        assert _min_n_by_scan(1e-4, 0.9) == 453

    def test_rule_of_thumb_sufficient(self):
        # n = 5/sqrt(beta_2) = 500 clears the 90% bar, giving tau_c = 500 ns
        n = 500
        assert n >= min_timeout_cycles(1e-4, 0.9)
        ratio = mps_rate(1e-4, TAU_T, n) / mps_rate_limit(1e-4, TAU_T)
        assert ratio >= 0.9

    def test_unit_case(self):
        assert min_timeout_cycles(1.0, 0.5) == 1

    def test_minimality(self):
        for beta_2 in (1e-6, 1e-4, 1e-2, 0.25):
            for fraction in (0.5, 0.9, 0.99):
                n = min_timeout_cycles(beta_2, fraction)
                limit = mps_rate_limit(beta_2, 1.0)
                assert mps_rate(beta_2, 1.0, n) / limit >= fraction
                if n > 1:
                    assert mps_rate(beta_2, 1.0, n - 1) / limit < fraction

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            min_timeout_cycles(1e-4, 1.0)


class TestImprovementFactor:
    def test_square_profile_point(self):
        got = improvement_factor(10.0**-3.5, 1e-4)
        # independent route: ratio of the two rate formulas at any delay
        want = mps_rate_limit(1e-4, TAU_T) / mpi_rate(10.0**-3.5, TAU_T)
        assert got.exact == pytest.approx(want, rel=1e-12)
        assert got.exact == pytest.approx(15.89, abs=0.01)
        assert got.high_loss == pytest.approx(15.81, abs=0.01)

    def test_triangle_profile_point(self):
        got = improvement_factor(1e-6, 1e-7)
        assert got.high_loss == pytest.approx(158.1, abs=0.1)
        assert 10.0 <= got.high_loss <= 200.0

    def test_lossless(self):
        assert improvement_factor(1.0, 1.0).exact == 1.0

    def test_returns_named_pair(self):
        assert isinstance(improvement_factor(0.5, 0.5), ImprovementFactor)


class TestRateReport:
    def test_rejects_rate_above_ceiling(self):
        with pytest.raises(ValueError):
            RateReport(
                distance_km=50.0,
                tau_t_us=250.0,
                alpha1_db=35.0,
                alpha2_db=40.0,
                g1_hz=1.0,
                g2_hz=21.0,
                g2_star_hz=20.0,
                ratio=21.0,
            )

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            RateReport(50.0, 250.0, 35.0, 40.0, -1.0, 1.0, 2.0, 1.0)
