"""Loss budgets, detection probabilities and dark-count fidelity formulas.

All attenuation values are expressed in dB and all detection/survival
probabilities in linear units, related by ``beta = 10**(-alpha/10)``.
Hardware losses (photon collection, frequency conversion, detector
inefficiency, the intrinsic partial-BSM success fraction) are folded into
two dB figures: ``alpha_qd_db`` per quantum-dot photon path and
``alpha_bsm_db`` per Bell-state-measurement apparatus.  Fiber attenuation
is per km at the telecom window (0.2 dB/km default).

Two link layouts are covered:

* midpoint interference: both quantum dots emit photons that meet at one
  central BSM, so each photon travels half the link and the BSM loss is
  paid once;
* midpoint source: a central pair source fires toward two receivers, each
  with its own BSM next to its quantum dot, so the BSM loss is paid once
  per side and only the source photon crosses fiber.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

# Exact dB cost of losing half the photons; deliberately not rounded to 3 dB.
DB_HALF = 10.0 * math.log10(2.0)


def _require_non_negative(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _require_probability(value: float, name: str) -> None:
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def db_to_prob(alpha_db: float) -> float:
    """Convert attenuation in dB to the probability of not losing the photon."""
    _require_non_negative(alpha_db, "alpha_db")
    return 10.0 ** (-alpha_db / 10.0)


def prob_to_db(beta: float) -> float:
    """Inverse of :func:`db_to_prob`; rejects zero to avoid a log singularity."""
    if not math.isfinite(beta) or not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    return -10.0 * math.log10(beta)


class BsmVariant(Enum):
    """Linear-optics Bell-state measurement arrangement.

    Two detectors identify only the singlet state (25% of photon pairs);
    four detectors add one triplet and reach the linear-optics maximum of
    50%.  Extra detectors also double the dark-count exposure.
    """

    SINGLET_ONLY = "singlet_only"
    SINGLET_PLUS_TRIPLET = "singlet_plus_triplet"

    @property
    def success_fraction(self) -> float:
        """Share of photon pairs the measurement identifies."""
        return 0.5 if self is BsmVariant.SINGLET_PLUS_TRIPLET else 0.25

    @property
    def dark_count_factor(self) -> int:
        """Multiplier on dark-count acceptance relative to the two-detector case."""
        return 2 if self is BsmVariant.SINGLET_PLUS_TRIPLET else 1


class EncodingVariant(Enum):
    """Photonic qubit encoding.

    Converting polarization to time-bin encoding discards half the photons
    of each quantum dot (one conversion stage per dot photon).
    """

    POLARIZATION = "polarization"
    TIME_BIN_CONVERTED = "time_bin_converted"


class MidpointVariant(Enum):
    """Photon source placed at the channel midpoint.

    Replacing the entangled-pair source with two single-photon sources
    post-selects the entangled state and halves the overall success
    probability.
    """

    ENTANGLED_PAIR_SOURCE = "entangled_pair_source"
    TWO_SINGLE_PHOTON_SOURCES = "two_single_photon_sources"


@dataclass(frozen=True)
class LossBudget:
    """Fixed (distance-independent) losses of the optical hardware, in dB.

    ``bsm_split_fraction`` assigns part of the BSM loss to the quantum-dot
    photon arm and the remainder to the midpoint-photon arm; the split has
    no effect on total loss but matters for dark-count fidelity.
    """

    alpha_qd_db: float
    alpha_bsm_db: float
    fiber_db_per_km: float = 0.2
    source_penalty_db: float = 0.0
    bsm_split_fraction: float = 0.5

    def __post_init__(self) -> None:
        _require_non_negative(self.alpha_qd_db, "alpha_qd_db")
        _require_non_negative(self.alpha_bsm_db, "alpha_bsm_db")
        _require_non_negative(self.fiber_db_per_km, "fiber_db_per_km")
        _require_non_negative(self.source_penalty_db, "source_penalty_db")
        if not 0.0 <= self.bsm_split_fraction <= 1.0:
            raise ValueError(
                f"bsm_split_fraction must lie in [0, 1], got {self.bsm_split_fraction!r}"
            )


@dataclass(frozen=True)
class ChannelGeometry:
    """End-to-end link length and signal delay (5 us/km in telecom fiber)."""

    length_km: float
    delay_us_per_km: float = 5.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.length_km) or self.length_km <= 0:
            raise ValueError(f"length_km must be positive, got {self.length_km!r}")
        if not math.isfinite(self.delay_us_per_km) or self.delay_us_per_km <= 0:
            raise ValueError(f"delay_us_per_km must be positive, got {self.delay_us_per_km!r}")
        if not math.isfinite(self.tau_t_us):
            raise ValueError(
                f"length_km * delay_us_per_km overflows, got {self.length_km!r} km"
                f" at {self.delay_us_per_km!r} us/km"
            )

    @property
    def tau_t_us(self) -> float:
        """Full-channel transmission delay in microseconds."""
        return self.length_km * self.delay_us_per_km

    @property
    def tau_t_s(self) -> float:
        return self.tau_t_us * 1e-6


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector with dark counts filtered in a fixed window."""

    dark_count_rate_hz: float = 100.0
    window_ns: float = 10.0

    def __post_init__(self) -> None:
        _require_non_negative(self.dark_count_rate_hz, "dark_count_rate_hz")
        _require_non_negative(self.window_ns, "window_ns")
        if not self.p_dc < 1.0:
            raise ValueError(
                "dark-count probability per window, dark_count_rate_hz * window_ns * 1e-9, "
                f"must be < 1, got {self.p_dc!r}"
            )

    @property
    def p_dc(self) -> float:
        """Dark-count probability per filtering window."""
        return self.dark_count_rate_hz * self.window_ns * 1e-9


def mpi_loss(
    budget: LossBudget,
    geom: ChannelGeometry,
    encoding: EncodingVariant = EncodingVariant.POLARIZATION,
) -> float:
    """Total loss in dB for the midpoint-interference layout.

    Two dot photons each pay the quantum-dot loss and half the fiber, and
    meet at a single central BSM.  Time-bin conversion costs half the
    photons of each dot, i.e. exactly ``2 * DB_HALF`` extra.
    """
    alpha = 2.0 * budget.alpha_qd_db + budget.alpha_bsm_db + budget.fiber_db_per_km * geom.length_km
    if encoding is EncodingVariant.TIME_BIN_CONVERTED:
        alpha += 2.0 * DB_HALF
    return alpha


class SideLoss(NamedTuple):
    """Per-side loss decomposition for the midpoint-source layout.

    ``beta_qd`` is the survival probability of a quantum-dot photon up to
    detection, ``beta_ms`` that of a midpoint-source photon, and
    ``alpha_side_db`` the per-side dB total with
    ``beta_qd * beta_ms == db_to_prob(alpha_side_db)`` up to roundoff.
    ``beta_2`` is the end-to-end two-sided success probability
    ``(beta_qd * beta_ms)**2``; with two single-photon sources it carries an
    exact extra factor 0.5.
    """

    alpha_side_db: float
    beta_qd: float
    beta_ms: float
    beta_2: float

    @property
    def alpha2_db(self) -> float:
        """Total two-sided loss in dB."""
        return 2.0 * self.alpha_side_db


def mps_side_loss(
    budget: LossBudget,
    geom: ChannelGeometry,
    encoding: EncodingVariant = EncodingVariant.POLARIZATION,
    midpoint: MidpointVariant = MidpointVariant.ENTANGLED_PAIR_SOURCE,
) -> SideLoss:
    """Per-side loss for the midpoint-source layout (symmetric channel).

    The dot photon pays its own collection loss plus the near arm of the
    BSM; the midpoint photon pays the far arm, half the fiber and any
    source penalty.  Variant penalties are added after the base sums so
    that enabling one shifts the dB totals by exactly the advertised
    constant.
    """
    qd_db = budget.alpha_qd_db + budget.bsm_split_fraction * budget.alpha_bsm_db
    ms_db = (
        (1.0 - budget.bsm_split_fraction) * budget.alpha_bsm_db
        + budget.fiber_db_per_km * geom.length_km / 2.0
        + budget.source_penalty_db
    )
    alpha_side = qd_db + ms_db

    if encoding is EncodingVariant.TIME_BIN_CONVERTED:
        qd_db += DB_HALF
        alpha_side += DB_HALF

    sps = midpoint is MidpointVariant.TWO_SINGLE_PHOTON_SOURCES
    beta_qd = db_to_prob(qd_db)
    beta_ms_base = db_to_prob(ms_db)
    # The 50% post-selection penalty is half per side in dB; beta_2 applies
    # it as a literal factor 0.5 so the reduction is exact.
    beta_2 = (beta_qd * beta_ms_base) ** 2
    beta_ms = beta_ms_base
    if sps:
        alpha_side += DB_HALF / 2.0
        beta_ms = beta_ms_base * 2.0**-0.5
        beta_2 = beta_2 * 0.5

    return SideLoss(alpha_side_db=alpha_side, beta_qd=beta_qd, beta_ms=beta_ms, beta_2=beta_2)


def false_coincidence_prob(
    p_dc: float,
    beta_qd: float,
    beta_ms: float,
    variant: BsmVariant = BsmVariant.SINGLET_ONLY,
) -> float:
    """Probability of accepting a prospective pair on the strength of a dark count.

    Lowest order in ``p_dc``: one receiver heralds genuinely while the
    other loses a photon and completes its double click with a dark count.
    The four-detector variant doubles the exposure.  A warning (not an
    error) is raised when ``p_dc`` is not small against the photon
    probabilities, where the first-order expression loses accuracy.
    """
    _require_probability(p_dc, "p_dc")
    _require_probability(beta_qd, "beta_qd")
    _require_probability(beta_ms, "beta_ms")
    if p_dc > 0 and p_dc >= min(beta_qd, beta_ms):
        warnings.warn(
            "p_dc is not small compared to the photon detection probabilities; "
            "the first-order dark-count expression is inaccurate here",
            stacklevel=2,
        )
    value = 2.0 * p_dc * (
        beta_qd**2 * beta_ms * (1.0 - beta_ms) + beta_ms**2 * beta_qd * (1.0 - beta_qd)
    )
    return value * variant.dark_count_factor


def mps_infidelity(p_dc: float, beta_qd: float, beta_ms: float) -> float:
    """Infidelity (1 - F) of a pair heralded by double clicks on both sides.

    Ratio of the dark-count acceptance probability to the probability of a
    genuine two-sided coincidence.
    """
    _require_probability(p_dc, "p_dc")
    _require_probability(beta_qd, "beta_qd")
    _require_probability(beta_ms, "beta_ms")
    if beta_qd == 0.0 or beta_ms == 0.0:
        raise ValueError("beta_qd and beta_ms must be positive")
    numerator = p_dc * (
        beta_qd**2 * beta_ms * (1.0 - beta_ms) + beta_ms**2 * beta_qd * (1.0 - beta_qd)
    )
    return numerator / (beta_qd * beta_ms) ** 2


def mps_infidelity_simplified(p_dc: float, beta_qd: float, beta_ms: float) -> float:
    """Algebraically reduced form of :func:`mps_infidelity`; must agree with it."""
    _require_probability(p_dc, "p_dc")
    if beta_qd <= 0.0 or beta_ms <= 0.0:
        raise ValueError("beta_qd and beta_ms must be positive")
    return p_dc * ((1.0 - beta_ms) / beta_ms + (1.0 - beta_qd) / beta_qd)


def mpi_infidelity(p_dc: float, beta_1: float) -> float:
    """Infidelity of the midpoint-interference scheme, ``p_dc / sqrt(beta_1)``.

    Each half-channel survives with probability ``sqrt(beta_1)``, which sets
    the photon flux a dark count competes against.
    """
    _require_probability(p_dc, "p_dc")
    _require_probability(beta_1, "beta_1")
    if beta_1 == 0.0:
        raise ValueError("beta_1 must be positive")
    return p_dc / math.sqrt(beta_1)
