"""Rate models and protocol simulation for midpoint-source entanglement links.

The package compares two ways of heralding entanglement between remote
matter qubits over optical fiber: the classic layout with one central
Bell-state measurement (midpoint interference) and a layout where a photon
source at the midpoint feeds a measurement at each receiver (midpoint
source).  It provides closed-form rate and fidelity formulas, an exact
Markov-chain equilibrium model of the receiver control protocol, and a
discrete-event simulation that runs the protocol literally, with delayed
classical messages, photon loss and dark counts.
"""

from .markov import (
    Chain,
    full_chain,
    rate_from_stationary,
    stationary,
    stationary_as_dict,
    stationary_open_prob,
)
from .optics import (
    DB_HALF,
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    SideLoss,
    db_to_prob,
    false_coincidence_prob,
    mpi_infidelity,
    mpi_loss,
    mps_infidelity,
    mps_infidelity_simplified,
    mps_side_loss,
)
from .protocol import (
    HeraldModel,
    SimConfig,
    SimMode,
    SimStats,
    des_run,
    herald_model,
    write_trace_csv,
)
from .rates import (
    RateReport,
    TimingParams,
    min_timeout_cycles,
    mpi_rate,
    mps_rate,
    mps_rate_limit,
)

__version__ = "0.1.0"

__all__ = [
    "BsmVariant",
    "Chain",
    "ChannelGeometry",
    "DB_HALF",
    "DetectorModel",
    "EncodingVariant",
    "HeraldModel",
    "LossBudget",
    "MidpointVariant",
    "RateReport",
    "SideLoss",
    "SimConfig",
    "SimMode",
    "SimStats",
    "TimingParams",
    "db_to_prob",
    "des_run",
    "false_coincidence_prob",
    "full_chain",
    "herald_model",
    "min_timeout_cycles",
    "mpi_infidelity",
    "mpi_loss",
    "mpi_rate",
    "mps_infidelity",
    "mps_infidelity_simplified",
    "mps_rate",
    "mps_rate_limit",
    "mps_side_loss",
    "rate_from_stationary",
    "stationary",
    "stationary_as_dict",
    "stationary_open_prob",
    "write_trace_csv",
]
