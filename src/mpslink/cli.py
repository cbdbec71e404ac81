"""Command-line front end: config parsing, rate sweeps and CSV/JSON output.

Configuration files are plain ``key=value`` lines with ``#`` comments.
Command-line flags mirror the config keys (``alpha_qd_db`` becomes
``--alpha-qd-db``) and override file values; the ``MPSLINK_CONFIG``
environment variable names a default config file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .markov import full_chain, stationary, stationary_as_dict, stationary_open_prob
from .optics import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    db_to_prob,
    mpi_infidelity,
    mpi_loss,
    mps_infidelity,
    mps_side_loss,
)
from .protocol import SimConfig, SimMode, des_run, estimate_infidelity
from .rates import RateReport, TimingParams, mpi_rate, mps_rate, mps_rate_limit
from .rng import derive_seed

CONFIG_ENV_VAR = "MPSLINK_CONFIG"

CSV_HEADER = "distance_km,tau_t_us,alpha1_db,alpha2_db,g1_hz,g2_hz,g2_star_hz,ratio"
CSV_SIM_HEADER = CSV_HEADER + ",sim_g2_hz,sim_infidelity"

# Longest accepted distance sweep; a typo in ``step`` must fail, not exhaust memory.
_MAX_SWEEP_POINTS = 100_000


class ConfigError(ValueError):
    """Invalid configuration input; the message names the key and line."""


@dataclass(frozen=True)
class RunConfig:
    """Validated union of hardware, timing, sweep and output settings."""

    alpha_qd_db: float = 10.0
    alpha_bsm_db: float = 5.0
    fiber_db_per_km: float = 0.2
    source_penalty_db: float = 0.0
    bsm_split_fraction: float = 0.5
    length_km: float = 50.0
    delay_us_per_km: float = 5.0
    dark_count_rate_hz: float = 100.0
    window_ns: float = 10.0
    bsm_variant: str = "singlet_plus_triplet"
    encoding: str = "polarization"
    midpoint: str = "entangled_pair_source"
    tau_c_ns: float = 500.0
    sweep: str = "10:100:5"
    cycles: int = 1_000_000
    seed: int = 1
    mode: str = "omniscient"
    format: str = "csv"
    output: str = "-"

    def budget(self) -> LossBudget:
        return LossBudget(
            alpha_qd_db=self.alpha_qd_db,
            alpha_bsm_db=self.alpha_bsm_db,
            fiber_db_per_km=self.fiber_db_per_km,
            source_penalty_db=self.source_penalty_db,
            bsm_split_fraction=self.bsm_split_fraction,
        )

    def geometry(self, length_km: float | None = None) -> ChannelGeometry:
        return ChannelGeometry(
            length_km=self.length_km if length_km is None else length_km,
            delay_us_per_km=self.delay_us_per_km,
        )

    def detector(self) -> DetectorModel:
        return DetectorModel(dark_count_rate_hz=self.dark_count_rate_hz, window_ns=self.window_ns)

    def bsm(self) -> BsmVariant:
        return BsmVariant.from_key(self.bsm_variant)

    def encoding_variant(self) -> EncodingVariant:
        return EncodingVariant.from_key(self.encoding)

    def midpoint_variant(self) -> MidpointVariant:
        return MidpointVariant.from_key(self.midpoint)

    def sim_mode(self) -> SimMode:
        return SimMode.from_key(self.mode)

    def sweep_distances(self) -> list[float]:
        return _parse_sweep(self.sweep)

    def to_config_text(self) -> str:
        """Render back to the key=value format; parsing it reproduces this config."""
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"


_FLOAT_KEYS = {
    "alpha_qd_db",
    "alpha_bsm_db",
    "fiber_db_per_km",
    "source_penalty_db",
    "bsm_split_fraction",
    "length_km",
    "delay_us_per_km",
    "dark_count_rate_hz",
    "window_ns",
    "tau_c_ns",
}
_INT_KEYS = {"cycles", "seed"}
_CHOICE_KEYS = {
    "bsm_variant": tuple(v.key for v in BsmVariant),
    "encoding": tuple(v.value for v in EncodingVariant),
    "midpoint": tuple(v.value for v in MidpointVariant),
    "mode": tuple(v.value for v in SimMode),
    "format": ("csv", "json"),
}
_STR_KEYS = {"sweep", "output"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | set(_CHOICE_KEYS) | _STR_KEYS


def _parse_value(key: str, raw: str, where: str) -> object:
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: value for {key!r} is not a number: {raw!r}") from None
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: value for {key!r} is not an integer: {raw!r}") from None
    if key in _CHOICE_KEYS:
        if raw not in _CHOICE_KEYS[key]:
            choices = ", ".join(_CHOICE_KEYS[key])
            raise ConfigError(f"{where}: value for {key!r} must be one of: {choices}")
        return raw
    return raw


def _parse_sweep(text: str) -> list[float]:
    """Distances ``start + k*step`` up to ``stop`` (1e-9 km slack), rounded to 1e-9 km.

    Each point is computed from its index, not by accumulating ``step``, so
    a distance (and the per-point seed derived from it) does not drift.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be start:stop:step in km, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ConfigError(f"sweep must be numeric start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"sweep must be finite start:stop:step, got {text!r}")
    if start <= 0 or stop < start or step <= 0:
        raise ConfigError(f"sweep needs 0 < start <= stop and step > 0, got {text!r}")
    steps = (stop - start + 1e-9) / step
    if steps >= _MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep {text!r} has more than {_MAX_SWEEP_POINTS} points")
    return [round(start + k * step, 9) for k in range(math.floor(steps) + 1)]


def _validate(settings: dict[str, object], lines: dict[str, str]) -> RunConfig:
    config = RunConfig(**settings)
    checks = (
        ("alpha_qd_db", lambda: LossBudget(config.alpha_qd_db, 0.0)),
        ("alpha_bsm_db", lambda: LossBudget(0.0, config.alpha_bsm_db)),
        ("fiber_db_per_km", lambda: LossBudget(0.0, 0.0, fiber_db_per_km=config.fiber_db_per_km)),
        ("source_penalty_db", lambda: LossBudget(0.0, 0.0, source_penalty_db=config.source_penalty_db)),
        (
            "bsm_split_fraction",
            lambda: LossBudget(0.0, 0.0, bsm_split_fraction=config.bsm_split_fraction),
        ),
        ("length_km", lambda: config.geometry()),
        ("window_ns", lambda: config.detector()),
        ("tau_c_ns", lambda: TimingParams(config.tau_c_ns, config.geometry().tau_t_us)),
        ("sweep", config.sweep_distances),
    )
    for key, check in checks:
        try:
            check()
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{lines.get(key, key)}: {exc}") from None
    if config.cycles < 1:
        raise ConfigError(f"{lines.get('cycles', 'cycles')}: cycles must be >= 1")
    if config.seed < 0:
        raise ConfigError(f"{lines.get('seed', 'seed')}: seed must be >= 0")
    return config


def parse_config(text: str, overrides: dict[str, object] | None = None) -> RunConfig:
    """Parse ``key=value`` config text, apply overrides, validate everything.

    Unknown keys, malformed values and violated invariants are reported
    with the offending key and line number.
    """
    settings: dict[str, object] = {}
    lines: dict[str, str] = {}
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected key=value, got {raw_line.strip()!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        settings[key] = _parse_value(key, raw_value, f"line {number}")
        lines[key] = f"line {number} ({key})"
    for key, value in (overrides or {}).items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"flag --{key.replace('_', '-')}: unknown key {key!r}")
        settings[key] = _parse_value(key, str(value), f"flag --{key.replace('_', '-')}")
        lines[key] = f"flag --{key.replace('_', '-')}"
    return _validate(settings, lines)


def _point_report(config: RunConfig, length_km: float, simulate: bool) -> RateReport:
    geom = config.geometry(length_km)
    budget = config.budget()
    encoding = config.encoding_variant()
    midpoint = config.midpoint_variant()

    alpha1 = mpi_loss(budget, geom, encoding)
    side = mps_side_loss(budget, geom, encoding, midpoint)
    timing = TimingParams(tau_c_ns=config.tau_c_ns, tau_t_us=geom.tau_t_us)

    g1 = mpi_rate(db_to_prob(alpha1), geom.tau_t_s)
    g2 = mps_rate(side.beta_2, geom.tau_t_s, timing.n)
    g2_star = mps_rate_limit(side.beta_2, geom.tau_t_s)

    sim_rate = None
    sim_infidelity = None
    if simulate:
        sim = des_run(
            SimConfig.from_hardware(
                budget,
                geom,
                total_cycles=config.cycles,
                tau_c_ns=config.tau_c_ns,
                seed=derive_seed(config.seed, "sweep", length_km),
                encoding=encoding,
                midpoint=midpoint,
                detector=config.detector(),
                bsm_variant=config.bsm(),
                mode=config.sim_mode(),
            )
        )
        sim_rate = sim.rate_hz
        sim_infidelity = estimate_infidelity(sim)

    return RateReport(
        distance_km=length_km,
        tau_t_us=geom.tau_t_us,
        alpha1_db=alpha1,
        alpha2_db=side.alpha2_db,
        g1_hz=g1,
        g2_hz=g2,
        g2_star_hz=g2_star,
        ratio=g2 / g1,
        sim_g2_hz=sim_rate,
        sim_infidelity=sim_infidelity,
    )


def sweep_rates(
    config: RunConfig, distances: list[float], simulate: bool = False
) -> list[RateReport]:
    """Analytic (optionally simulated) rates at each distance, in input order."""
    if not distances:
        raise ValueError("distance list must not be empty")
    if any(d <= 0 for d in distances):
        raise ValueError("distances must be positive")
    return [_point_report(config, d, simulate) for d in distances]


def _format_number(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit(reports: list[RateReport], fmt: str, destination) -> None:
    """Write reports as CSV or JSON; numbers use shortest round-trip form.

    ``destination`` is a path, ``"-"`` for stdout, or a writable object.
    """
    with_sim = any(report.has_simulation for report in reports)
    if fmt == "csv":
        lines = [CSV_SIM_HEADER if with_sim else CSV_HEADER]
        for report in reports:
            values = [_format_number(getattr(report, name)) for name in RateReport.FIELDS]
            if with_sim:
                values += [_format_number(getattr(report, name)) for name in RateReport.SIM_FIELDS]
            lines.append(",".join(values))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        rows = []
        for report in reports:
            row = report.to_dict()
            if not with_sim:
                for name in RateReport.SIM_FIELDS:
                    row.pop(name)
            rows.append(row)
        text = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")

    if hasattr(destination, "write"):
        destination.write(text)
    elif destination == "-":
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="ascii")


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in _ALL_KEYS and value is not None
    }
    return parse_config(text, overrides)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key=value lines)")
    for key in sorted(_ALL_KEYS):
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _cmd_rates(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reports = sweep_rates(config, config.sweep_distances(), simulate=args.simulate)
    emit(reports, config.format, config.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    sim_config = SimConfig.from_hardware(
        config.budget(),
        config.geometry(),
        total_cycles=config.cycles,
        tau_c_ns=config.tau_c_ns,
        seed=config.seed,
        encoding=config.encoding_variant(),
        midpoint=config.midpoint_variant(),
        detector=config.detector(),
        bsm_variant=config.bsm(),
        mode=config.sim_mode(),
    )
    stats = des_run(sim_config)
    sys.stdout.write(stats.to_json() + "\n")
    return 0


def _cmd_markov(args: argparse.Namespace) -> int:
    chain = full_chain(args.n, args.p)
    pi = stationary(chain)
    closed_form = stationary_open_prob(args.n, args.p)
    payload = {
        "n": args.n,
        "p": args.p,
        "pi00_numeric": float(pi[0]),
        "pi00_closed_form": closed_form,
        "abs_difference": abs(float(pi[0]) - closed_form),
    }
    if args.full:
        payload["stationary"] = stationary_as_dict(chain, pi)
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    config = _load_config(args)
    geom = config.geometry()
    budget = config.budget()
    encoding = config.encoding_variant()
    side = mps_side_loss(budget, geom, encoding, config.midpoint_variant())
    beta_1 = db_to_prob(mpi_loss(budget, geom, encoding))
    p_dc = config.detector().p_dc
    payload = {
        "p_dc": p_dc,
        "beta_qd": side.beta_qd,
        "beta_ms": side.beta_ms,
        "beta_1": beta_1,
        "mps_infidelity": mps_infidelity(p_dc, side.beta_qd, side.beta_ms),
        "mpi_infidelity": mpi_infidelity(p_dc, beta_1),
    }
    if args.mc_cycles:
        sim_config = SimConfig.from_hardware(
            budget,
            geom,
            total_cycles=args.mc_cycles,
            tau_c_ns=config.tau_c_ns,
            seed=config.seed,
            encoding=encoding,
            midpoint=config.midpoint_variant(),
            detector=config.detector(),
            bsm_variant=config.bsm(),
            mode=config.sim_mode(),
        )
        stats = des_run(sim_config)
        payload["mc_infidelity"] = estimate_infidelity(stats)
        payload["mc_pairs"] = stats.true_coincidences + stats.false_coincidences
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# Reference loss profiles for the preset distance sweep: (alpha_qd_db, alpha_bsm_db).
FIG4_PROFILES = {"square": (10.0, 5.0), "triangle": (20.0, 10.0)}


def _cmd_fig4(args: argparse.Namespace) -> int:
    config = _load_config(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    distances = _parse_sweep("10:100:5")
    written = []
    for profile, (alpha_qd, alpha_bsm) in FIG4_PROFILES.items():
        profile_config = parse_config(
            config.to_config_text(),
            {"alpha_qd_db": alpha_qd, "alpha_bsm_db": alpha_bsm},
        )
        # One table per profile: its rows carry both schemes (g1 for MPI, g2 for MPS).
        path = outdir / f"fig4_{profile}.csv"
        emit(sweep_rates(profile_config, distances), "csv", path)
        written.append(path)
    sys.stdout.write("\n".join(str(path) for path in written) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpslink",
        description="Entanglement-rate models and protocol simulation for midpoint-source links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="analytic rate sweep over distance")
    _add_config_flags(rates)
    rates.add_argument("--simulate", action="store_true", help="attach simulated rates")
    rates.set_defaults(func=_cmd_rates)

    simulate = sub.add_parser("simulate", help="single-point protocol simulation")
    _add_config_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    markov = sub.add_parser("markov", help="solve the protocol chain equilibrium")
    markov.add_argument("--n", type=int, required=True, help="timeout length in cycles")
    markov.add_argument("--p", type=float, required=True, help="per-side herald probability")
    markov.add_argument("--full", action="store_true", help="include the full distribution")
    markov.set_defaults(func=_cmd_markov)

    fidelity = sub.add_parser("fidelity", help="dark-count infidelity formulas")
    _add_config_flags(fidelity)
    fidelity.add_argument("--mc-cycles", type=int, default=0, help="Monte Carlo cross-check cycles")
    fidelity.set_defaults(func=_cmd_fidelity)

    fig4 = sub.add_parser(
        "fig4", help="preset 10-100 km sweep at two reference loss profiles"
    )
    _add_config_flags(fig4)
    fig4.add_argument(
        "--outdir", default=".", help="directory for the CSV files, one per loss profile"
    )
    fig4.set_defaults(func=_cmd_fig4)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
