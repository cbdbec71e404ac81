"""Dark-count infidelity: closed forms against a Monte Carlo estimate.

A detector firing without a photon can complete a double click after a
photon was lost, heralding a pair that does not exist.  The closed form
gives the infidelity per heralded pair; the simulation counts how many
confirmed pairs actually involved a false herald.
"""

from mpslink import (
    BsmVariant,
    DetectorModel,
    SimConfig,
    des_run,
    mpi_infidelity,
    mps_infidelity,
    mps_infidelity_simplified,
)

detector = DetectorModel(dark_count_rate_hz=100.0, window_ns=10.0)
print(f"dark-count probability per window: {detector.p_dc:.1e}")

beta_qd = beta_ms = 1e-2
print(f"\nclosed forms at beta_qd = beta_ms = {beta_qd}:")
print(f"  midpoint-source infidelity  = {mps_infidelity(detector.p_dc, beta_qd, beta_ms):.3e}")
print(f"  (reduced form, same value)  = {mps_infidelity_simplified(detector.p_dc, beta_qd, beta_ms):.3e}")
print(f"  midpoint-interference, 40dB = {mpi_infidelity(detector.p_dc, 1e-4):.3e}")

# Monte Carlo cross-check at an exaggerated dark-count level so false
# heralds show up in a short run.
beta, p_dc = 0.1, 1e-3
stats = des_run(
    SimConfig(
        beta_qd=beta, beta_ms=beta, n=5, total_cycles=10_000_000,
        seed=11, p_dc=p_dc, bsm_variant=BsmVariant.SINGLET_ONLY,
    )
)
pairs = stats.true_coincidences + stats.false_coincidences
print(f"\nsimulation at beta = {beta}, p_dc = {p_dc}: {pairs} confirmed pairs")
print(f"  false pairs: {stats.false_coincidences}")
print(f"  measured infidelity: {stats.infidelity_estimate:.4f}")
