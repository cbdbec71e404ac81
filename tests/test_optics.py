"""Loss conversions, budget composition and dark-count fidelity formulas."""

import math

import pytest
from hypothesis import given, strategies as st

from mpslink import (
    DB_HALF,
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    db_to_prob,
    false_coincidence_prob,
    mpi_infidelity,
    mpi_loss,
    mps_infidelity,
    mps_infidelity_simplified,
    mps_side_loss,
    prob_to_db,
)

SQUARE = LossBudget(alpha_qd_db=10.0, alpha_bsm_db=5.0)
TRIANGLE = LossBudget(alpha_qd_db=20.0, alpha_bsm_db=10.0)
GEOM_50KM = ChannelGeometry(length_km=50.0)


class TestDbToProb:
    def test_identity_at_zero(self):
        assert db_to_prob(0.0) == 1.0

    def test_forty_db(self):
        assert db_to_prob(40.0) == pytest.approx(1e-4, rel=1e-12)

    def test_three_db_is_half(self):
        assert db_to_prob(3.0) == pytest.approx(0.50119, abs=1e-5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            db_to_prob(-1.0)

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_multiplicative_in_db(self, a, b):
        combined = db_to_prob(a + b)
        assert combined == pytest.approx(db_to_prob(a) * db_to_prob(b), rel=1e-12)

    def test_strictly_decreasing(self):
        values = [db_to_prob(a) for a in (0.0, 0.5, 1.0, 5.0, 20.0, 60.0)]
        assert all(left > right for left, right in zip(values, values[1:]))

    def test_round_trip_with_prob_to_db(self):
        for alpha in (0.1, 3.0, 17.5, 60.0):
            assert prob_to_db(db_to_prob(alpha)) == pytest.approx(alpha, rel=1e-12)


class TestLossBudgetInvariants:
    def test_negative_db_rejected(self):
        with pytest.raises(ValueError):
            LossBudget(alpha_qd_db=-1.0, alpha_bsm_db=5.0)

    def test_split_fraction_bounds(self):
        with pytest.raises(ValueError):
            LossBudget(10.0, 5.0, bsm_split_fraction=1.5)

    def test_geometry_requires_positive_length(self):
        with pytest.raises(ValueError):
            ChannelGeometry(length_km=0.0)

    def test_geometry_rejects_overflowing_delay(self):
        with pytest.raises(ValueError, match="^length_km \\* delay_us_per_km overflows"):
            ChannelGeometry(length_km=1e308)

    def test_tau_t_consistency(self):
        geom = ChannelGeometry(length_km=50.0, delay_us_per_km=5.0)
        assert geom.tau_t_us == 50.0 * 5.0

    def test_detector_p_dc(self):
        detector = DetectorModel(dark_count_rate_hz=100.0, window_ns=10.0)
        assert detector.p_dc == 100.0 * 10.0 * 1e-9

    def test_bsm_variant_fractions(self):
        assert BsmVariant.SINGLET_ONLY.success_fraction == 0.25
        assert BsmVariant.SINGLET_PLUS_TRIPLET.success_fraction == 0.5


class TestMpiLoss:
    def test_square_profile_at_50km(self):
        assert mpi_loss(SQUARE, GEOM_50KM) == 35.0

    def test_lossless(self):
        budget = LossBudget(0.0, 0.0, fiber_db_per_km=0.0)
        assert mpi_loss(budget, ChannelGeometry(10.0)) == 0.0

    def test_triangle_profile_at_50km(self):
        assert mpi_loss(TRIANGLE, GEOM_50KM) == 60.0

    def test_time_bin_adds_one_halving_per_dot_photon(self):
        base = mpi_loss(SQUARE, GEOM_50KM, EncodingVariant.POLARIZATION)
        converted = mpi_loss(SQUARE, GEOM_50KM, EncodingVariant.TIME_BIN_CONVERTED)
        assert converted == base + 2.0 * DB_HALF


class TestMpsSideLoss:
    def test_square_profile_at_50km(self):
        side = mps_side_loss(SQUARE, GEOM_50KM)
        assert side.alpha_side_db == 20.0
        assert side.alpha2_db == 40.0

    def test_lossless(self):
        budget = LossBudget(0.0, 0.0, fiber_db_per_km=0.0)
        side = mps_side_loss(budget, ChannelGeometry(10.0))
        assert side.alpha_side_db == 0.0
        assert side.beta_qd == 1.0
        assert side.beta_ms == 1.0

    def test_detection_identity(self):
        # beta_qd * beta_ms must reproduce the per-side dB total
        for budget in (SQUARE, TRIANGLE, LossBudget(7.0, 3.0, bsm_split_fraction=0.3)):
            for length in (1.0, 25.0, 80.0):
                side = mps_side_loss(budget, ChannelGeometry(length))
                expected = db_to_prob(side.alpha_side_db)
                assert side.beta_qd * side.beta_ms == pytest.approx(expected, rel=1e-12)

    def test_beta2_identity(self):
        side = mps_side_loss(SQUARE, GEOM_50KM)
        assert side.beta_2 == pytest.approx(db_to_prob(side.alpha2_db), rel=1e-12)
        assert side.beta_2 == pytest.approx((side.beta_qd * side.beta_ms) ** 2, rel=1e-12)

    def test_single_photon_sources_halve_beta2_exactly(self):
        plain = mps_side_loss(SQUARE, GEOM_50KM)
        sps = mps_side_loss(
            SQUARE, GEOM_50KM, midpoint=MidpointVariant.TWO_SINGLE_PHOTON_SOURCES
        )
        assert sps.beta_2 == 0.5 * plain.beta_2
        assert sps.alpha_side_db == plain.alpha_side_db + DB_HALF / 2.0
        assert sps.alpha2_db == 2.0 * (plain.alpha_side_db + DB_HALF / 2.0)

    def test_time_bin_adds_one_halving_per_side(self):
        plain = mps_side_loss(SQUARE, GEOM_50KM)
        converted = mps_side_loss(SQUARE, GEOM_50KM, EncodingVariant.TIME_BIN_CONVERTED)
        assert converted.alpha_side_db == plain.alpha_side_db + DB_HALF
        # only the quantum-dot arm changes
        assert converted.beta_ms == plain.beta_ms

    def test_source_penalty_lands_on_midpoint_arm(self):
        budget = LossBudget(10.0, 5.0, source_penalty_db=2.0)
        plain = mps_side_loss(SQUARE, GEOM_50KM)
        penalised = mps_side_loss(budget, GEOM_50KM)
        assert penalised.beta_qd == plain.beta_qd
        assert penalised.alpha_side_db == pytest.approx(plain.alpha_side_db + 2.0, rel=1e-12)


def _false_coincidence_by_enumeration(p_dc, beta_qd, beta_ms, variant):
    """First-order enumeration: one side heralds genuinely, the other loses a
    photon and completes the click pattern with one dark count."""
    p_true_side = beta_qd * beta_ms
    one_lost = beta_qd * (1.0 - beta_ms) + beta_ms * (1.0 - beta_qd)
    per_side_false = p_dc * one_lost * variant.dark_count_factor
    return 2.0 * p_true_side * per_side_false


class TestFalseCoincidenceProb:
    def test_zero_dark_counts(self):
        assert false_coincidence_prob(0.0, 0.5, 0.5) == 0.0

    def test_desk_value_singlet_only(self):
        value = false_coincidence_prob(1e-6, 1e-2, 1e-2, BsmVariant.SINGLET_ONLY)
        assert value == pytest.approx(3.96e-12, rel=1e-12)
        assert value == pytest.approx(
            _false_coincidence_by_enumeration(1e-6, 1e-2, 1e-2, BsmVariant.SINGLET_ONLY),
            rel=1e-12,
        )

    def test_triplet_variant_doubles(self):
        singlet = false_coincidence_prob(1e-6, 1e-2, 1e-2, BsmVariant.SINGLET_ONLY)
        both = false_coincidence_prob(1e-6, 1e-2, 1e-2, BsmVariant.SINGLET_PLUS_TRIPLET)
        assert both == 2.0 * singlet
        assert both == pytest.approx(7.92e-12, rel=1e-12)

    def test_matches_enumeration_on_grid(self):
        for beta_qd in (1e-3, 1e-2, 0.2, 0.9):
            for beta_ms in (1e-3, 0.05, 0.5):
                for variant in BsmVariant:
                    got = false_coincidence_prob(1e-6, beta_qd, beta_ms, variant)
                    want = _false_coincidence_by_enumeration(1e-6, beta_qd, beta_ms, variant)
                    assert got == pytest.approx(want, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e-4))
    def test_monotone_in_p_dc(self, p_dc):
        lower = false_coincidence_prob(p_dc, 1e-2, 1e-2)
        higher = false_coincidence_prob(p_dc + 1e-5, 1e-2, 1e-2)
        assert higher >= lower

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            false_coincidence_prob(1e-6, 1.5, 0.5)
        with pytest.raises(ValueError):
            false_coincidence_prob(-1e-6, 0.5, 0.5)

    def test_large_p_dc_warns_but_returns(self):
        with pytest.warns(UserWarning):
            false_coincidence_prob(0.05, 1e-2, 1e-2)


class TestMpsInfidelity:
    def test_zero_dark_counts(self):
        assert mps_infidelity(0.0, 1e-2, 1e-2) == 0.0

    def test_desk_value(self):
        assert mps_infidelity(1e-6, 1e-2, 1e-2) == pytest.approx(1.98e-4, rel=1e-12)

    def test_lossless_has_no_false_heralds(self):
        assert mps_infidelity(1e-6, 1.0, 1.0) == 0.0

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            mps_infidelity(1e-6, 0.0, 1e-2)

    def test_two_forms_agree_on_grid(self):
        exponents = [-4.0, -3.0, -2.0, -1.0, -0.5, 0.0]
        for eq in exponents:
            for em in exponents:
                beta_qd, beta_ms = 10.0**eq, 10.0**em
                ratio_form = mps_infidelity(1e-6, beta_qd, beta_ms)
                reduced_form = mps_infidelity_simplified(1e-6, beta_qd, beta_ms)
                assert ratio_form == pytest.approx(reduced_form, rel=1e-12, abs=1e-300)


class TestMpiInfidelity:
    def test_zero_dark_counts(self):
        assert mpi_infidelity(0.0, 1e-4) == 0.0

    def test_desk_value(self):
        assert mpi_infidelity(1e-6, 1e-4) == pytest.approx(1e-4, rel=1e-12)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            mpi_infidelity(1e-6, 0.0)

    def test_advantage_requires_brighter_per_side_flux(self):
        """Where the two-measurement scheme wins on dark counts, the
        midpoint-interference half-channel must be lossier than one
        dot-photon path (scan restricted to the high-loss regime)."""
        p_dc = 1e-6
        for beta in (1e-3, 1e-2, 0.05, 0.1, 0.3):
            for beta_1 in (1e-8, 1e-6, 1e-4, 1e-2, 0.09):
                mps = mps_infidelity(p_dc, beta, beta)
                mpi = mpi_infidelity(p_dc, beta_1)
                if mps < mpi:
                    assert math.sqrt(beta_1) < beta
