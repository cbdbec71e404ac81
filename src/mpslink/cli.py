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
import re
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Literal, NamedTuple, get_args, get_type_hints

from .markov import full_chain, stationary, stationary_as_dict, stationary_open_prob
from .optics import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    SideLoss,
    db_to_prob,
    mpi_infidelity,
    mpi_loss,
    mps_infidelity,
    mps_side_loss,
)
from .protocol import _NEVER, SimConfig, SimMode, des_run
from .rates import RateReport, TimingParams, mpi_rate, mps_rate, mps_rate_limit
from .rng import derive_seed

CONFIG_ENV_VAR = "MPSLINK_CONFIG"

CSV_HEADER = ",".join(RateReport.FIELDS)
CSV_SIM_HEADER = ",".join(RateReport.FIELDS + RateReport.SIM_FIELDS)

# Longest accepted distance sweep; a typo in ``step`` must fail, not exhaust memory.
_MAX_SWEEP_POINTS = 100_000
# Longest accepted ``markov --n``: the chain holds its 3n + 1 states in memory,
# about 2 GiB at this cap, and a typo must fail, not exhaust memory.
_MAX_CHAIN_N = 10_000_000
# A flag value that argparse would read as an option: -1e-3, -inf, -10:20:5.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class ConfigError(ValueError):
    """Invalid configuration input; the message names the key and line."""


class LinkPoint(NamedTuple):
    """A link at one length: its geometry, timeout cycles, MPI loss and MPS side loss."""

    geom: ChannelGeometry
    n: int
    alpha1_db: float
    side: SideLoss


@dataclass(frozen=True)
class RunConfig:
    """Validated union of hardware, timing, sweep and output settings.

    The fields are the config keys: each type says how a value is parsed,
    and an Enum or Literal type lists the accepted choices.  The loss
    budget, detector and sweep are built from them once, on first use.
    """

    alpha_qd_db: float = 10.0
    alpha_bsm_db: float = 5.0
    fiber_db_per_km: float = 0.2
    source_penalty_db: float = 0.0
    bsm_split_fraction: float = 0.5
    length_km: float = 50.0
    delay_us_per_km: float = 5.0
    dark_count_rate_hz: float = 100.0
    window_ns: float = 10.0
    bsm_variant: BsmVariant = BsmVariant.SINGLET_PLUS_TRIPLET
    encoding: EncodingVariant = EncodingVariant.POLARIZATION
    midpoint: MidpointVariant = MidpointVariant.ENTANGLED_PAIR_SOURCE
    tau_c_ns: float = 500.0
    sweep: str = "10:100:5"
    cycles: int = 1_000_000
    seed: int = 1
    mode: SimMode = SimMode.OMNISCIENT
    format: Literal["csv", "json"] = "csv"
    output: str = "-"

    @cached_property
    def budget(self) -> LossBudget:
        return LossBudget(
            alpha_qd_db=self.alpha_qd_db,
            alpha_bsm_db=self.alpha_bsm_db,
            fiber_db_per_km=self.fiber_db_per_km,
            source_penalty_db=self.source_penalty_db,
            bsm_split_fraction=self.bsm_split_fraction,
        )

    @cached_property
    def detector(self) -> DetectorModel:
        return DetectorModel(dark_count_rate_hz=self.dark_count_rate_hz, window_ns=self.window_ns)

    def point(self, length_km: float | None = None) -> LinkPoint:
        """The link at ``length_km``, or at the configured length: the one place
        where a length becomes losses and a timeout."""
        geom = ChannelGeometry(
            length_km=self.length_km if length_km is None else length_km,
            delay_us_per_km=self.delay_us_per_km,
        )
        return LinkPoint(
            geom,
            TimingParams(self.tau_c_ns, geom.tau_t_us).n,
            mpi_loss(self.budget, geom, self.encoding),
            mps_side_loss(self.budget, geom, self.encoding, self.midpoint),
        )

    def sim_config(self, total_cycles: int, seed: int, point: LinkPoint) -> SimConfig:
        """DES inputs of this config at ``point``."""
        return SimConfig(
            beta_qd=point.side.beta_qd,
            beta_ms=point.side.beta_ms,
            n=point.n,
            total_cycles=total_cycles,
            seed=seed,
            p_dc=self.detector.p_dc,
            bsm_variant=self.bsm_variant,
            mode=self.mode,
            tau_c_ns=self.tau_c_ns,
        )

    @cached_property
    def _distances(self) -> tuple[float, ...]:
        return tuple(_parse_sweep(self.sweep))

    def sweep_distances(self) -> list[float]:
        return list(self._distances)

    def to_config_text(self) -> str:
        """Render back to the key=value format; parsing it reproduces this config."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        lines = [f"{k}={v.value if isinstance(v, Enum) else v}" for k, v in values.items()]
        return "\n".join(lines) + "\n"


# Config key -> type, read from the RunConfig field annotations.
_KEY_TYPES = get_type_hints(RunConfig)


def _parse_value(key: str, raw: str, where: str) -> object:
    kind = _KEY_TYPES[key]
    if kind in (float, int):
        try:
            return kind(raw)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"{where}: value for {key!r} is not {noun}: {raw!r}") from None
    is_enum = isinstance(kind, type) and issubclass(kind, Enum)
    choices = [member.value for member in kind] if is_enum else list(get_args(kind))
    if choices and raw not in choices:
        raise ConfigError(f"{where}: value for {key!r} must be one of: {', '.join(choices)}")
    return kind(raw) if is_enum else raw


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


# Keys that add to a link's loss in dB, besides its length.
_LOSS_KEYS = "alpha_qd_db alpha_bsm_db fiber_db_per_km source_penalty_db"
# Keys of the analytic rates, besides the length.
_RATE_KEYS = f"{_LOSS_KEYS} delay_us_per_km tau_c_ns"

# A command's own config check: the keys it is reported at, and a callable
# that raises ValueError on a bad config.
_Rule = tuple[str, Callable[[RunConfig], object]]


def _rate_ends(config: RunConfig, distances: list[float]) -> None:
    """Raise ValueError if an analytic rate leaves the normal floats on ``distances``.

    The rates fall with distance, so the ends of a sweep bound them.
    """
    for length_km in dict.fromkeys((distances[0], distances[-1])):
        _point_report(config, length_km, simulate=False)


def _validate(
    settings: dict[str, object], lines: dict[str, str], rules: tuple[_Rule, ...] = ()
) -> RunConfig:
    config = RunConfig(**settings)

    def transmissions(length_km: float) -> None:
        # 10**(-dB/10) leaves the normal floats past about 3077 dB and is 0
        # past about 3240 dB; the rates and infidelities divide by it.
        _, _, alpha1, side = config.point(length_km)
        if min(db_to_prob(alpha1), side.beta_2) < sys.float_info.min:
            raise ValueError(
                f"the transmission underflows at {length_km} km: losses of {alpha1:g} dB (MPI)"
                f" and {side.alpha2_db:g} dB (MPS)"
            )

    # Keys of each check; a rule on several keys is reported at the last of
    # them that the input set, so the error names a flag or line.
    checks = (
        ("alpha_qd_db", lambda: LossBudget(config.alpha_qd_db, 0.0)),
        ("alpha_bsm_db", lambda: LossBudget(0.0, config.alpha_bsm_db)),
        ("fiber_db_per_km", lambda: LossBudget(0.0, 0.0, fiber_db_per_km=config.fiber_db_per_km)),
        ("source_penalty_db", lambda: LossBudget(0.0, 0.0, source_penalty_db=config.source_penalty_db)),
        (
            "bsm_split_fraction",
            lambda: LossBudget(0.0, 0.0, bsm_split_fraction=config.bsm_split_fraction),
        ),
        ("length_km", lambda: ChannelGeometry(config.length_km, 1.0)),
        ("delay_us_per_km", lambda: ChannelGeometry(1.0, config.delay_us_per_km)),
        ("dark_count_rate_hz", lambda: DetectorModel(config.dark_count_rate_hz, 0.0)),
        ("window_ns", lambda: DetectorModel(0.0, config.window_ns)),
        ("dark_count_rate_hz window_ns", lambda: config.detector),
        # A simulation's clock rule: its rate divides by the period in seconds.
        ("tau_c_ns", lambda: SimConfig(1.0, 1.0, 1, 10, tau_c_ns=config.tau_c_ns)),
        ("sweep", config.sweep_distances),
        # A point's length times delay, timeout and dB sums must be finite.
        (f"{_RATE_KEYS} length_km", lambda: config.point(config.length_km)),
        (f"{_RATE_KEYS} sweep", lambda: config.point(max(config.sweep_distances()))),
        (f"{_LOSS_KEYS} length_km", lambda: transmissions(config.length_km)),
        (f"{_LOSS_KEYS} sweep", lambda: transmissions(max(config.sweep_distances()))),
        (f"{_RATE_KEYS} length_km", lambda: _rate_ends(config, [config.length_km])),
        (f"{_RATE_KEYS} sweep", lambda: _rate_ends(config, config.sweep_distances())),
        *((keys, partial(rule, config)) for keys, rule in rules),
    )
    for keys, check in checks:
        try:
            check()
        except (ValueError, ConfigError) as exc:
            key = ([key for key in keys.split() if key in lines] or keys.split())[-1]
            raise ConfigError(f"{lines.get(key, key)}: {exc}") from None
    if not 1 <= config.cycles <= _NEVER:
        raise ConfigError(f"{lines.get('cycles', 'cycles')}: cycles must be >= 1 and <= 2**62")
    if config.seed < 0:
        raise ConfigError(f"{lines.get('seed', 'seed')}: seed must be >= 0")
    return config


def parse_config(
    text: str, overrides: dict[str, object] | None = None, rules: tuple[_Rule, ...] = ()
) -> RunConfig:
    """Parse ``key=value`` config text, apply overrides, validate everything.

    Unknown keys, malformed values and violated invariants are reported
    with the offending key and line number.  ``rules`` adds a command's own
    ``(keys, rule)`` checks: ``rule(config)`` raises ``ValueError`` and is
    reported at the last of ``keys`` that the input set.
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
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        settings[key] = _parse_value(key, raw_value, f"line {number}")
        lines[key] = f"line {number} ({key})"
    for key, value in (overrides or {}).items():
        flag = f"flag --{key.replace('_', '-')}"
        if key not in _KEY_TYPES:
            raise ConfigError(f"{flag}: unknown key {key!r}")
        settings[key] = _parse_value(key, str(value), flag)
        lines[key] = flag
    return _validate(settings, lines, rules)


def _point_report(config: RunConfig, length_km: float, simulate: bool) -> RateReport:
    """Analytic (optionally simulated) rates at one distance, from one derived point."""
    point = config.point(length_km)
    geom, n, alpha1, side = point
    g1 = mpi_rate(db_to_prob(alpha1), geom.tau_t_s)
    g2 = mps_rate(side.beta_2, geom.tau_t_s, n)
    g2_star = mps_rate_limit(side.beta_2, geom.tau_t_s)
    for name, rate in ("g1_hz", g1), ("g2_hz", g2), ("g2_star_hz", g2_star):
        if not sys.float_info.min <= rate <= sys.float_info.max:  # 0, inf or subnormal
            raise ValueError(
                f"{name} must be a positive normal float at {length_km} km, got {rate!r}"
            )

    sim_rate = None
    sim_infidelity = None
    if simulate:
        seed = derive_seed(config.seed, "sweep", length_km)
        sim = des_run(config.sim_config(config.cycles, seed, point))
        sim_rate = sim.rate_hz
        sim_infidelity = sim.infidelity_estimate

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
    """Analytic (optionally simulated) rates at each distance, in input order.

    Each point builds its geometry, losses and timeout once; the config's
    loss budget and detector are built once for the whole sweep.
    """
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


def _load_config(args: argparse.Namespace, rules: tuple[_Rule, ...] = ()) -> RunConfig:
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
        if key in _KEY_TYPES and value is not None
    }
    return parse_config(text, overrides, rules)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (key=value lines)")
    for key in sorted(_KEY_TYPES):
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _cmd_rates(args: argparse.Namespace) -> int:
    config = _load_config(args)
    reports = sweep_rates(config, config.sweep_distances(), simulate=args.simulate)
    emit(reports, config.format, config.output)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    stats = des_run(config.sim_config(config.cycles, config.seed, config.point()))
    sys.stdout.write(stats.to_json() + "\n")
    return 0


def _cmd_markov(args: argparse.Namespace) -> int:
    if args.n > _MAX_CHAIN_N:
        raise ConfigError(f"flag --n: must be <= {_MAX_CHAIN_N}, got {args.n}")
    if args.n < 1:
        raise ConfigError(f"flag --n: must be >= 1, got {args.n}")
    if not 0.0 <= args.p <= 1.0:  # also refuses nan
        raise ConfigError(f"flag --p: must lie in [0, 1], got {args.p}")
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


def _fidelity_payload(config: RunConfig) -> dict[str, float]:
    """The ``fidelity`` formulas at the configured length.

    Both infidelities are first order in the dark-count probability over a
    transmission; past 1 they mean nothing, and the input is rejected.
    """
    _, _, alpha1, side = config.point()
    beta_1 = db_to_prob(alpha1)
    p_dc = config.detector.p_dc
    mps = mps_infidelity(p_dc, side.beta_qd, side.beta_ms)
    mpi = mpi_infidelity(p_dc, beta_1)
    if max(mps, mpi) > 1.0:
        raise ValueError(
            f"the first-order infidelity exceeds 1 at {config.length_km} km:"
            f" {mps:.3g} (MPS) and {mpi:.3g} (MPI)"
        )
    return {
        "p_dc": p_dc,
        "beta_qd": side.beta_qd,
        "beta_ms": side.beta_ms,
        "beta_1": beta_1,
        "mps_infidelity": mps,
        "mpi_infidelity": mpi,
    }


def _cmd_fidelity(args: argparse.Namespace) -> int:
    if args.mc_cycles < 0:
        raise ConfigError(f"flag --mc-cycles: must be >= 0, got {args.mc_cycles}")
    if args.mc_cycles > _NEVER:
        raise ConfigError(f"flag --mc-cycles: must be <= 2**62, got {args.mc_cycles}")
    keys = f"dark_count_rate_hz window_ns {_LOSS_KEYS} length_km"
    config = _load_config(args, ((keys, _fidelity_payload),))
    payload = _fidelity_payload(config)
    if args.mc_cycles:
        stats = des_run(config.sim_config(args.mc_cycles, config.seed, config.point()))
        payload["mc_infidelity"] = stats.infidelity_estimate
        payload["mc_pairs"] = stats.true_coincidences + stats.false_coincidences
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


# Reference loss profiles for the preset distance sweep: (alpha_qd_db, alpha_bsm_db).
FIG4_PROFILES = {"square": (10.0, 5.0), "triangle": (20.0, 10.0)}
_FIG4_SWEEP = "10:100:5"
# The rate keys that the profiles leave as configured; fig4's rate rule is reported at them.
_FIG4_RATE_KEYS = " ".join(
    key for key in _RATE_KEYS.split() if key not in ("alpha_qd_db", "alpha_bsm_db")
)


def _fig4_configs(config: RunConfig) -> dict[str, RunConfig]:
    """``config`` at each of fig4's loss profiles, by profile name."""
    return {
        profile: replace(config, alpha_qd_db=alpha_qd, alpha_bsm_db=alpha_bsm)
        for profile, (alpha_qd, alpha_bsm) in FIG4_PROFILES.items()
    }


def _rate_fig4(config: RunConfig) -> None:
    """Rate every fig4 profile at the ends of fig4's sweep."""
    distances = _parse_sweep(_FIG4_SWEEP)
    for profile_config in _fig4_configs(config).values():
        _rate_ends(profile_config, distances)


def _cmd_fig4(args: argparse.Namespace) -> int:
    config = _load_config(args, ((_FIG4_RATE_KEYS, _rate_fig4),))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    distances = _parse_sweep(_FIG4_SWEEP)
    written = []
    for profile, profile_config in _fig4_configs(config).items():
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


def _bind_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``, so that the value reaches its range check."""
    bound: list[str] = []
    for arg in argv:
        flag = bound[-1] if bound else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_VALUE.match(arg):
            bound[-1] += f"={arg}"
        else:
            bound.append(arg)
    return bound


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
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
