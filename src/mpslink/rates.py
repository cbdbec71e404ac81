"""Closed-form entanglement generation rates for both link layouts.

Times are handled in seconds inside this module; the CSV/JSON layer labels
distances in km and delays in microseconds.  Rates are entangled pairs per
second.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


def _check_beta(beta: float, name: str) -> None:
    if not math.isfinite(beta) or not 0.0 < beta <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {beta!r}")


def _check_tau(tau_s: float) -> None:
    if not math.isfinite(tau_s) or tau_s <= 0.0:
        raise ValueError(f"transmission delay must be positive, got {tau_s!r}")


@dataclass(frozen=True)
class TimingParams:
    """Clock cycle and transmission delay, with the timeout length in cycles.

    ``n`` is the number of clock cycles covering one full-channel delay,
    rounded up; a tiny slack absorbs float noise so that exact divisors
    (250 us / 500 ns -> 500) do not round to n+1.
    """

    tau_c_ns: float
    tau_t_us: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau_c_ns) or self.tau_c_ns <= 0:
            raise ValueError(f"tau_c_ns must be positive, got {self.tau_c_ns!r}")
        if not math.isfinite(self.tau_t_us) or self.tau_t_us <= 0:
            raise ValueError(f"tau_t_us must be positive, got {self.tau_t_us!r}")

    @property
    def n(self) -> int:
        ratio = self.tau_t_us * 1e3 / self.tau_c_ns
        if not math.isfinite(ratio):
            raise ValueError(
                f"timeout n = tau_t_us * 1e3 / tau_c_ns overflows, got {self.tau_t_us!r} us"
                f" at {self.tau_c_ns!r} ns"
            )
        return max(1, math.ceil(ratio * (1.0 - 1e-12)))


def mpi_rate(beta_1: float, tau_t_s: float) -> float:
    """Pairs per second for midpoint interference: one attempt per delay window."""
    _check_beta(beta_1, "beta_1")
    _check_tau(tau_t_s)
    return beta_1 / tau_t_s


def mps_rate(beta_2: float, tau_t_s: float, n: int) -> float:
    """Pairs per second for the midpoint-source protocol with timeout ``n`` cycles."""
    _check_beta(beta_2, "beta_2")
    _check_tau(tau_t_s)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    p = math.sqrt(beta_2)
    return n * beta_2 / (tau_t_s * (1.0 + n * (2.0 * p - beta_2)))


def mps_rate_limit(beta_2: float, tau_t_s: float) -> float:
    """Saturation rate of the midpoint-source protocol as the clock outruns the delay."""
    _check_beta(beta_2, "beta_2")
    _check_tau(tau_t_s)
    p = math.sqrt(beta_2)
    return p / (tau_t_s * (2.0 - p))


def min_timeout_cycles(beta_2: float, fraction: float) -> int:
    """Smallest timeout length reaching the given fraction of the saturation rate.

    Solves ``n*x / (1 + n*x) >= fraction`` with ``x = 2*sqrt(beta_2) - beta_2``;
    the closed-form candidate is adjusted by one step either way to make the
    result exactly minimal despite float rounding.
    """
    _check_beta(beta_2, "beta_2")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")
    x = 2.0 * math.sqrt(beta_2) - beta_2

    def reaches(n: int) -> bool:
        return n * x / (1.0 + n * x) >= fraction

    n = max(1, math.ceil(fraction / ((1.0 - fraction) * x)))
    while not reaches(n):
        n += 1
    while n > 1 and reaches(n - 1):
        n -= 1
    return n


@dataclass(frozen=True)
class RateReport:
    """Analytic rates at one distance, optionally with simulated counterparts.

    Field names follow the CSV/JSON column contract.
    """

    distance_km: float
    tau_t_us: float
    alpha1_db: float
    alpha2_db: float
    g1_hz: float
    g2_hz: float
    g2_star_hz: float
    ratio: float
    sim_g2_hz: float | None = None
    sim_infidelity: float | None = None

    def __post_init__(self) -> None:
        for name in ("g1_hz", "g2_hz", "g2_star_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.g2_hz > self.g2_star_hz * (1.0 + 1e-12):
            raise ValueError("g2_hz may not exceed g2_star_hz")

    FIELDS = (
        "distance_km",
        "tau_t_us",
        "alpha1_db",
        "alpha2_db",
        "g1_hz",
        "g2_hz",
        "g2_star_hz",
        "ratio",
    )
    SIM_FIELDS = ("sim_g2_hz", "sim_infidelity")

    @property
    def has_simulation(self) -> bool:
        return self.sim_g2_hz is not None

    def to_dict(self) -> dict:
        return asdict(self)
