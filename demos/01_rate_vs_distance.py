"""Entangled-pair rates versus link distance for the two layouts.

Sweeps 10-100 km at two hardware loss profiles and tabulates the baseline
rate (one central measurement, one attempt per round trip) against the
midpoint-source rate and its fast-clock ceiling.  The midpoint-source
curve falls at half the dB/km slope because only one half of the channel
loss is left unheralded.  The rows are the command line's sweep points
(``mpslink rates``), here at every 10 km.
"""

from mpslink.cli import parse_config, sweep_rates

PROFILES = {
    "moderate loss (10 dB/dot, 5 dB/BSM)": "alpha_qd_db=10\nalpha_bsm_db=5",
    "high loss (20 dB/dot, 10 dB/BSM)": "alpha_qd_db=20\nalpha_bsm_db=10",
}

for name, losses in PROFILES.items():
    config = parse_config(f"{losses}\nsweep=10:100:10")
    print(f"\n{name}, {config.fiber_db_per_km} dB/km fiber, {config.tau_c_ns:g} ns clock")
    print(f"{'km':>5} {'baseline /s':>12} {'midpoint-source /s':>19} {'ceiling /s':>11} {'gain':>7}")
    for row in sweep_rates(config, config.sweep_distances()):
        gain = row.g2_star_hz / row.g1_hz
        print(f"{row.distance_km:>5g} {row.g1_hz:>12.4g} {row.g2_hz:>19.4g} {row.g2_star_hz:>11.4g} {gain:>6.0f}x")
