"""Config parsing, CSV/JSON emission and the five subcommands."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from enum import Enum
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from mpslink import (
    BsmVariant,
    ChannelGeometry,
    DetectorModel,
    EncodingVariant,
    LossBudget,
    MidpointVariant,
    RateReport,
    SimConfig,
    SimMode,
    TimingParams,
    des_run,
    mps_side_loss,
)
from mpslink.cli import (
    _KEY_TYPES,
    CSV_HEADER,
    CSV_SIM_HEADER,
    ConfigError,
    RunConfig,
    emit,
    main,
    parse_config,
    sweep_rates,
)
from mpslink.rng import derive_seed

# Accepted values of each choice key, in the order error messages list them.
CHOICES = {
    "bsm_variant": ("singlet_only", "singlet_plus_triplet"),
    "encoding": ("polarization", "time_bin_converted"),
    "midpoint": ("entangled_pair_source", "two_single_photon_sources"),
    "mode": ("literal", "omniscient"),
    "format": ("csv", "json"),
}


class TestParseConfig:
    def test_empty_gives_defaults(self):
        config = parse_config("")
        assert config == RunConfig()
        assert config.fiber_db_per_km == 0.2
        assert config.delay_us_per_km == 5.0
        assert config.bsm_variant is BsmVariant.SINGLET_PLUS_TRIPLET
        assert config.mode is SimMode.OMNISCIENT

    def test_square_profile_keys(self):
        config = parse_config("alpha_qd_db=10\nalpha_bsm_db=5")
        assert config.alpha_qd_db == 10.0
        assert config.alpha_bsm_db == 5.0

    def test_comments_and_blank_lines(self):
        config = parse_config("# comment\n\nlength_km=25  # trailing\n")
        assert config.length_km == 25.0

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'alpha_qd'"):
            parse_config("length_km=25\nalpha_qd=10\n")

    def test_bad_number_names_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*not a number"):
            parse_config("alpha_qd_db=ten")

    @pytest.mark.parametrize(
        ("text", "overrides", "blame"),
        [
            pytest.param("alpha_qd_db=-1", None, r"line 1 \(alpha_qd_db\)", id="alpha_qd_db"),
            pytest.param(
                "", {"delay_us_per_km": "-1"}, r"^flag --delay-us-per-km: delay_us_per_km ",
                id="negative-delay",
            ),
            pytest.param(
                "length_km=10\ndelay_us_per_km=nan", None,
                r"^line 2 \(delay_us_per_km\): delay_us_per_km ", id="nan-delay",
            ),
            pytest.param(
                "delay_us_per_km=0", None,
                r"^line 1 \(delay_us_per_km\): delay_us_per_km must be positive", id="zero-delay",
            ),
            pytest.param(
                "", {"dark_count_rate_hz": "-1"}, r"^flag --dark-count-rate-hz: dark_count_rate_hz ",
                id="negative-dark-count-rate",
            ),
            pytest.param(
                "dark_count_rate_hz=1e9\nwindow_ns=10", None,
                r"^line 2 \(window_ns\): .*dark_count_rate_hz \* window_ns \* 1e-9, must be < 1",
                id="dark-count-probability",
            ),
            # A rule on several keys names the last of them that the input set.
            pytest.param(
                "", {"dark_count_rate_hz": "1e9"},
                r"^flag --dark-count-rate-hz: .*must be < 1, got 10\.0$", id="dark-count-rate-only",
            ),
            pytest.param(
                "window_ns=1e9", None, r"^line 1 \(window_ns\): .*must be < 1", id="window-only",
            ),
            pytest.param(
                "", {"length_km": "1e308"},
                r"^flag --length-km: length_km \* delay_us_per_km overflows", id="length-overflow",
            ),
            pytest.param(
                "delay_us_per_km=1e300\nlength_km=1e10", None,
                r"^line 2 \(length_km\): length_km \* delay_us_per_km overflows",
                id="length-times-delay-overflow",
            ),
            pytest.param(
                "sweep=1e308:1e308:1", None,
                r"^line 1 \(sweep\): length_km \* delay_us_per_km overflows", id="sweep-overflow",
            ),
            pytest.param(
                "", {"length_km": "1e306"},
                r"^flag --length-km: timeout n = tau_t_us \* 1e3 / tau_c_ns overflows",
                id="timeout-overflow",
            ),
            # A clock period whose seconds are subnormal is the simulation's
            # rule; it used to reach only the timeout check.
            pytest.param(
                "tau_c_ns=1e-310", None,
                r"^line 1 \(tau_c_ns\): tau_c_ns \* 1e-9 s must be a normal float",
                id="clock-overflow",
            ),
            pytest.param(
                "delay_us_per_km=1e15\ntau_c_ns=1e-290", None,
                r"^line 2 \(tau_c_ns\): timeout n = .* overflows", id="clock-and-delay-overflow",
            ),
            # A loss of more than about 3077 dB leaves no normal-float transmission.
            pytest.param(
                "", {"length_km": "100000"},
                r"^flag --length-km: the transmission underflows at 100000\.0 km",
                id="length-underflow",
            ),
            pytest.param(
                "sweep=10:40000:10000", None,
                r"^line 1 \(sweep\): the transmission underflows at 30010\.0 km",
                id="sweep-underflow",
            ),
            pytest.param(
                "alpha_qd_db=2000", None,
                r"^line 1 \(alpha_qd_db\): the transmission underflows at 50\.0 km",
                id="loss-underflow",
            ),
            pytest.param(
                "cycles=4611686018427387905", None,
                r"^line 1 \(cycles\): cycles must be >= 1 and <= 2\*\*62$", id="cycles-over-limit",
            ),
            pytest.param(
                "", {"cycles": "0"}, r"^flag --cycles: cycles must be >= 1", id="zero-cycles",
            ),
        ],
    )
    def test_invariant_violation_names_key_and_line(self, text, overrides, blame):
        with pytest.raises(ConfigError, match=blame):
            parse_config(text, overrides)

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError, match="must be one of: literal, omniscient$"):
            parse_config("mode=psychic")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("alpha_qd_db 10")

    def test_overrides_beat_file_values(self):
        config = parse_config("length_km=25", {"length_km": "75"})
        assert config.length_km == 75.0

    def test_bad_override_names_flag(self):
        with pytest.raises(ConfigError, match=r"flag --length-km"):
            parse_config("", {"length_km": "-5"})

    @pytest.mark.parametrize(
        "text",
        [pytest.param("alpha_qd_db=12.5\nlength_km=33\nseed=9\nmode=literal", id="mixed")]
        + [f"{key}={value}" for key, values in CHOICES.items() for value in values],
    )
    def test_round_trip_is_lossless(self, text):
        config = parse_config(text)
        rendered = config.to_config_text()
        assert parse_config(rendered) == config
        # Choice keys render as the key string the parser accepts.
        for line in text.splitlines():
            if line.split("=")[0] in CHOICES:
                assert line in rendered.splitlines()

    def test_sweep_expansion(self):
        assert parse_config("sweep=10:20:5").sweep_distances() == [10.0, 15.0, 20.0]

    def test_bad_sweep_rejected(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config("sweep=10:5:1")

    def test_negative_seed_names_key(self):
        # The simulation's herald process takes non-negative seeds only.
        with pytest.raises(ConfigError, match=r"line 2 \(seed\): seed must be >= 0"):
            parse_config("cycles=10\nseed=-1")
        with pytest.raises(ConfigError, match=r"flag --seed.*seed must be >= 0"):
            parse_config("", {"seed": "-1"})
        assert parse_config("seed=0").seed == 0

    def test_oversized_sweep_fails_fast(self):
        # 9e10 points: rejected from its bounds before any list is built.
        with pytest.raises(ConfigError, match=r"line 1 \(sweep\).*more than 100000 points"):
            parse_config("sweep=10:100:1e-9")

    def test_default_sweep_distances_bit_identical(self):
        # derive_seed keys each point's seed on its distance, so the default
        # grid must give exactly the floats 10.0, 15.0, ..., 100.0.
        distances = parse_config("sweep=10:100:5").sweep_distances()
        assert [d.hex() for d in distances] == [float(k).hex() for k in range(10, 101, 5)]


def _report(distance=50.0, sim=False):
    return RateReport(
        distance_km=distance,
        tau_t_us=distance * 5.0,
        alpha1_db=35.0,
        alpha2_db=40.0,
        g1_hz=1.2649110640673518,
        g2_hz=18.264840182648406,
        g2_star_hz=20.10050251256282,
        ratio=14.4396240190337,
        sim_g2_hz=17.5 if sim else None,
        sim_infidelity=0.0 if sim else None,
    )


class TestEmit:
    def test_column_contract_is_pinned(self):
        # The headers are derived from RateReport; these literals are the README contract.
        assert CSV_HEADER == "distance_km,tau_t_us,alpha1_db,alpha2_db,g1_hz,g2_hz,g2_star_hz,ratio"
        assert CSV_SIM_HEADER == (
            "distance_km,tau_t_us,alpha1_db,alpha2_db,g1_hz,g2_hz,g2_star_hz,ratio,"
            "sim_g2_hz,sim_infidelity"
        )
        assert list(_report(sim=True).to_dict()) == CSV_SIM_HEADER.split(",")

    def test_single_report_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        emit([_report()], "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("50.0,250.0,35.0,40.0,")

    def test_empty_report_list_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_numbers_round_trip_through_csv(self, tmp_path):
        path = tmp_path / "rt.csv"
        report = _report()
        emit([report], "csv", path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[4]) == report.g1_hz
        assert float(row[6]) == report.g2_star_hz

    def test_sim_columns_present_when_simulated(self, tmp_path):
        path = tmp_path / "sim.csv"
        emit([_report(sim=True)], "csv", path)
        header = path.read_text().splitlines()[0]
        assert header.endswith(",sim_g2_hz,sim_infidelity")

    def test_json_round_trip_identity(self, tmp_path):
        path = tmp_path / "out.json"
        report = _report(sim=True)
        emit([report], "json", path)
        parsed = json.loads(path.read_text())
        assert parsed == [report.to_dict()]

    def test_stream_destination(self, capsys):
        emit([_report()], "csv", "-")
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)


class TestSweepRates:
    def test_band_at_50km(self):
        config = parse_config("alpha_qd_db=10\nalpha_bsm_db=5")
        (report,) = sweep_rates(config, [50.0])
        assert 10.0 <= report.g2_star_hz / report.g1_hz <= 100.0
        assert report.ratio == report.g2_hz / report.g1_hz

    def test_triangle_ratio_larger(self):
        square = sweep_rates(parse_config("alpha_qd_db=10\nalpha_bsm_db=5"), [50.0])[0]
        triangle = sweep_rates(parse_config("alpha_qd_db=20\nalpha_bsm_db=10"), [50.0])[0]
        assert triangle.g2_star_hz / triangle.g1_hz > square.g2_star_hz / square.g1_hz

    def test_short_lossless_link_limit(self):
        config = parse_config(
            "alpha_qd_db=0\nalpha_bsm_db=0\nfiber_db_per_km=0\ntau_c_ns=1"
        )
        (report,) = sweep_rates(config, [0.001])
        assert report.g1_hz > 1e5
        assert report.g2_star_hz / report.g1_hz == pytest.approx(1.0, rel=1e-12)

    def test_rejects_empty_and_negative(self):
        config = parse_config("")
        with pytest.raises(ValueError):
            sweep_rates(config, [])
        with pytest.raises(ValueError):
            sweep_rates(config, [-5.0])

    @pytest.mark.parametrize("mode", [mode.value for mode in SimMode])
    def test_each_point_simulates_the_config_at_its_distance(self, monkeypatch, mode):
        """A sweep point simulates the point it rated; its ``SimConfig`` is
        the one built by hand from the hardware.  Every field the hardware
        keys map to is off its default here."""
        config = parse_config(
            "encoding=time_bin_converted\nmidpoint=two_single_photon_sources\n"
            "bsm_variant=singlet_only\ndark_count_rate_hz=2000\ntau_c_ns=250\n"
            f"sweep=20:40:10\ncycles=20000\nseed=9\nmode={mode}\n"
        )
        recorded = []

        def record(sim_config):
            recorded.append(sim_config)
            return des_run(sim_config)

        monkeypatch.setattr("mpslink.cli.des_run", record)
        reports = sweep_rates(config, config.sweep_distances(), simulate=True)
        distances = config.sweep_distances()
        assert [report.distance_km for report in reports] == distances == [20.0, 30.0, 40.0]
        expected = [
            config.sim_config(config.cycles, derive_seed(config.seed, "sweep", d), config.point(d))
            for d in distances
        ]
        assert recorded == expected
        for d, sim_config in zip(distances, expected):
            geom = ChannelGeometry(d)
            side = mps_side_loss(
                LossBudget(10.0, 5.0),
                geom,
                EncodingVariant.TIME_BIN_CONVERTED,
                MidpointVariant.TWO_SINGLE_PHOTON_SOURCES,
            )
            assert sim_config == SimConfig(
                beta_qd=side.beta_qd,
                beta_ms=side.beta_ms,
                n=TimingParams(tau_c_ns=250.0, tau_t_us=geom.tau_t_us).n,
                total_cycles=20000,
                seed=derive_seed(9, "sweep", d),
                p_dc=DetectorModel(2000.0, 10.0).p_dc,
                bsm_variant=BsmVariant.SINGLET_ONLY,
                mode=SimMode(mode),
                tau_c_ns=250.0,
            )

    def test_square_profile_point(self):
        config = RunConfig()  # square profile at 50 km, 500 ns clock
        sim_config = config.sim_config(100_000, 0, config.point())
        assert sim_config.n == 500
        assert sim_config.beta_qd == pytest.approx(10 ** (-12.5 / 10), rel=1e-12)
        assert sim_config.beta_ms == pytest.approx(10 ** (-7.5 / 10), rel=1e-12)


class TestSubcommands:
    def test_markov_prints_closed_form_match(self, capsys):
        assert main(["markov", "--n", "2", "--p", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi00_numeric"] == pytest.approx(0.4, abs=1e-12)
        assert payload["pi00_closed_form"] == pytest.approx(0.4, abs=1e-15)
        assert payload["abs_difference"] <= 1e-12

    @pytest.mark.parametrize("n", [10_000_001, 100_000_000])
    def test_markov_past_the_chain_cap_names_flag(self, monkeypatch, capsys, n):
        """``--n 100000000`` used to build its chain until the process was
        killed for memory; now it is refused before any chain is built."""

        def no_chain(*args):
            raise AssertionError("full_chain called")

        monkeypatch.setattr("mpslink.cli.full_chain", no_chain)
        assert main(["markov", "--n", str(n), "--p", "0.5"]) == 2
        assert capsys.readouterr().err == f"error: flag --n: must be <= 10000000, got {n}\n"

    @pytest.mark.parametrize(
        "n, p, flag",
        [("0", "0.5", "--n"), ("-3", "0.5", "--n"), ("5", "2", "--p"), ("5", "-0.5", "--p"),
         ("5", "nan", "--p"), ("5", "inf", "--p")],
    )
    def test_markov_out_of_range_names_flag(self, monkeypatch, capsys, n, p, flag):
        """``--n 0`` and ``--p 2`` used to print the chain's bare range message,
        which named no flag; now they are refused before any chain is built."""

        def no_chain(*args):
            raise AssertionError("full_chain called")

        monkeypatch.setattr("mpslink.cli.full_chain", no_chain)
        assert main(["markov", "--n", n, "--p", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: flag {flag}: must ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param(
                ["markov", "--n", "5", "--p", "-1e-3"], "flag --p: must lie in [0, 1], got -0.001",
                id="markov-exponent",
            ),
            pytest.param(
                ["markov", "--n", "5", "--p", "-inf"], "flag --p: must lie in [0, 1], got -inf",
                id="markov-inf",
            ),
            pytest.param(
                ["rates", "--length-km", "-1e3"],
                "flag --length-km: length_km must be positive, got -1000.0",
                id="rates-exponent",
            ),
            pytest.param(
                ["simulate", "--tau-c-ns", "-1E-3"],
                "flag --tau-c-ns: tau_c_ns must be positive and finite, got -0.001",
                id="simulate-capital-exponent",
            ),
            pytest.param(
                ["fidelity", "--alpha-qd-db", "-Infinity"],
                "flag --alpha-qd-db: alpha_qd_db must be finite and non-negative, got -inf",
                id="fidelity-infinity",
            ),
            pytest.param(
                ["rates", "--sweep", "-10:20:5"],
                "flag --sweep: sweep needs 0 < start <= stop and step > 0, got '-10:20:5'",
                id="rates-sweep",
            ),
        ],
    )
    def test_negative_value_reaches_its_range_check(self, capsys, argv, message):
        """argparse reads ``-1e-3``, ``-inf`` or ``-10:20:5`` after a flag as
        an option: these used to exit 2 with ``expected one argument``, which
        hid the value."""
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_markov_at_a_million_cycle_timeout(self, capsys):
        """n = 10^6 (long link, fast clock): 3,000,001 states solved in-process."""
        assert main(["markov", "--n", "1000000", "--p", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 1_000_000
        assert payload["abs_difference"] <= 1e-12

    def test_runs_without_scipy(self):
        """A fresh interpreter in which every scipy import fails still
        imports mpslink, loads no scipy module and runs markov and simulate."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "import mpslink\n"
            "from mpslink.cli import main\n"
            "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['markov', '--n', '50', '--p', '0.1', '--full']),\n"
            "             main(['simulate', '--cycles', '20000'])]\n"
            "print(loaded, codes)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        # 'scipy' is only the blocking entry the script set itself
        assert done.stdout == "['scipy'] [0, 0]\n"

    def test_import_loads_no_numpy_random(self):
        """numpy >= 2 loads ``numpy.random`` on first use.  A module-level
        use in the package (a seeding class, say) would load it on
        ``import mpslink`` and add about 5 ms to every start-up."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys\n"
            "import numpy\n"
            "alone = 'numpy.random' in sys.modules\n"
            f"sys.path.insert(0, {src!r})\n"
            "import mpslink, mpslink.cli\n"
            "print(alone, 'numpy.random' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        alone, with_package = done.stdout.split()
        assert with_package == alone

    def test_simulate_is_byte_deterministic(self, capsys):
        argv = ["simulate", "--seed", "1", "--cycles", "50000", "--length-km", "10"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["mode"] == "omniscient"

    def test_rates_to_file(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(["rates", "--sweep", "40:60:10", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert capsys.readouterr().err == ""

    def test_output_to_a_missing_directory_exits_1(self, tmp_path, capsys):
        """A file that cannot be written is an OS error, exit 1; exit 2 is for bad input."""
        out = tmp_path / "missing" / "a.csv"
        assert main(["rates", "--sweep", "50:50:1", "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_rates_json_format(self, capsys):
        assert main(["rates", "--sweep", "50:50:1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["distance_km"] == 50.0

    def test_fidelity_payload(self, capsys):
        assert main(["fidelity", "--mc-cycles", "200000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("mps_infidelity", "mpi_infidelity", "mc_infidelity", "mc_pairs"):
            assert key in payload

    def test_fidelity_without_mc_cycles_prints_the_formulas_only(self, capsys):
        assert main(["fidelity"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == [
            "p_dc", "beta_qd", "beta_ms", "beta_1", "mps_infidelity", "mpi_infidelity"
        ]

    def test_negative_mc_cycles_names_flag(self, capsys):
        assert main(["fidelity", "--mc-cycles", "-5"]) == 2
        assert capsys.readouterr().err == "error: flag --mc-cycles: must be >= 0, got -5\n"
        # 0 still means: formulas only, no Monte Carlo run.
        assert main(["fidelity", "--mc-cycles", "0"]) == 0
        assert "mc_infidelity" not in json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (
                ["rates", "--dark-count-rate-hz", "1e9"],
                "flag --dark-count-rate-hz: dark-count probability per window,"
                " dark_count_rate_hz * window_ns * 1e-9, must be < 1, got 10.0",
            ),
            (
                ["simulate", "--length-km", "1e308"],
                "flag --length-km: length_km * delay_us_per_km overflows,"
                " got 1e+308 km at 5.0 us/km",
            ),
            (
                ["rates", "--sweep", "1e308:1e308:1"],
                "flag --sweep: length_km * delay_us_per_km overflows, got 1e+308 km at 5.0 us/km",
            ),
            (
                ["simulate", "--cycles", str(2**62 + 100)],
                "flag --cycles: cycles must be >= 1 and <= 2**62",
            ),
            (
                ["fidelity", "--mc-cycles", str(2**62 + 1)],
                f"flag --mc-cycles: must be <= 2**62, got {2**62 + 1}",
            ),
            (
                ["rates", "--sweep", "10:40000:10000"],
                "flag --sweep: the transmission underflows at 30010.0 km:"
                " losses of 6027 dB (MPI) and 6032 dB (MPS)",
            ),
            (
                ["fidelity", "--length-km", "100000"],
                "flag --length-km: the transmission underflows at 100000.0 km:"
                " losses of 20025 dB (MPI) and 20030 dB (MPS)",
            ),
            (
                # (beta_qd * beta_ms)**2 used to underflow here: ZeroDivisionError.
                ["fidelity", "--length-km", "17000"],
                "flag --length-km: the transmission underflows at 17000.0 km:"
                " losses of 3425 dB (MPI) and 3430 dB (MPS)",
            ),
            (
                # Used to print "mps_infidelity": 1.78e+94 and exit 0.
                ["fidelity", "--length-km", "10000"],
                "flag --length-km: the first-order infidelity exceeds 1 at 10000.0 km:"
                " 1.78e+94 (MPS) and 1.78e+95 (MPI)",
            ),
            (
                ["fidelity", "--length-km", "2000", "--dark-count-rate-hz", "1"],
                "flag --length-km: the first-order infidelity exceeds 1 at 2000.0 km:"
                " 1.78e+12 (MPS) and 1.78e+13 (MPI)",
            ),
            (
                ["fidelity", "--dark-count-rate-hz", "5e7"],
                "flag --dark-count-rate-hz: the first-order infidelity exceeds 1 at 50.0 km:"
                " 10.7 (MPS) and 28.1 (MPI)",
            ),
        ],
    )
    def test_limits_and_joint_rules_name_the_flag(self, capsys, argv, message):
        """The joint rules used to print a bare key the user never set, or no
        key; a run past 2**62 cycles used to count heralds that never came; a
        transmission that underflowed to 0 used to fail without a key; an
        infidelity past 1 used to be printed as a result."""
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_clock_period_below_the_normal_floats_exits_2(self, capsys):
        """``tau_c_ns * 1e-9`` used to underflow to 0, and the Monte Carlo
        rate to divide by it with a traceback."""
        argv = ["fidelity", "--length-km", "0.999999", "--tau-c-ns", "1e-320",
                "--delay-us-per-km", "1e-320", "--mc-cycles", "100000"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: flag --tau-c-ns: tau_c_ns * 1e-9 s must be a normal float, got 1e-320\n"
        )

    @pytest.mark.parametrize(
        ("command", "flags", "message"),
        [
            pytest.param(
                command, flags, message, id=f"{command[0]}{'-simulate' * len(command[1:])}-{name}"
            )
            for command in (
                ["rates"], ["rates", "--simulate"], ["simulate"], ["fidelity"], ["fig4"]
            )
            for name, flags, message in (
                (
                    # Used to end in a ZeroDivisionError traceback at g2 / g1.
                    "g1-underflow", ["--alpha-qd-db", "1e3", "--delay-us-per-km", "1e300"],
                    "flag --delay-us-per-km: g1_hz must be a positive normal float at 50.0 km,"
                    " got 0.0",
                ),
                (
                    # Used to print g2_hz 0.0 and ratio 0.0 and exit 0.
                    "g2-underflow", ["--fiber-db-per-km", "0", "--sweep", "1e300:1e300:1"],
                    "flag --sweep: g2_hz must be a positive normal float at 1e+300 km, got 0.0",
                ),
                (
                    # Used to print inf rates and a nan ratio and exit 0.
                    "g1-overflow", ["--delay-us-per-km", "1e-310"],
                    "flag --delay-us-per-km: g1_hz must be a positive normal float at 50.0 km,"
                    " got inf",
                ),
                (
                    # The sweep's near end overflows while length_km does not.
                    "near-end-overflow", ["--delay-us-per-km", "1e-300", "--sweep", "1e-9:1:1"],
                    "flag --sweep: g1_hz must be a positive normal float at 1e-09 km, got inf",
                ),
            )
        ],
    )
    def test_rates_past_the_normal_floats_exit_2(self, tmp_path, capsys, command, flags, message):
        """Every command that reads the config rejects analytic rates that
        leave the normal floats, at ``length_km`` and at the sweep's ends, and
        names the last flag of the rule that the input set."""
        outdir = ["--outdir", str(tmp_path)] if command == ["fig4"] else []
        assert main([*command, *flags, *outdir, "--cycles", "1000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fig4_rates_its_own_profiles_and_sweep(self, tmp_path, capsys):
        """fig4 sets its own loss profiles and sweep, which the config checks
        never rated: this input used to pass them, create the output
        directory, then fail at 40 km naming no flag."""
        outdir = tmp_path / "D"
        argv = ["fig4", "--outdir", str(outdir), "--length-km", "10", "--sweep", "10:10:1",
                "--delay-us-per-km", "1.6e156"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: flag --delay-us-per-km: g2_hz must be a positive normal float at 100.0 km,"
            " got 0.0\n"
        )
        assert not outdir.exists()

    def test_infidelity_past_one_names_the_config_line(self, tmp_path, capsys):
        """The ``fidelity`` check names the line of a config file; other
        commands, which print no infidelity, still run at that length."""
        config = tmp_path / "long.cfg"
        config.write_text("cycles=1000\nlength_km=2000\n")
        assert main(["fidelity", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2 (length_km): the first-order infidelity exceeds 1 at 2000.0 km:"
            " 1.78e+14 (MPS) and 1.78e+15 (MPI)\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 1000 cycles < 10 * n
            assert main(["simulate", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["cycles_run"] == 1000
        # 400 km still passes: 0.0178 (MPS) and 0.178 (MPI).
        assert main(["fidelity", "--length-km", "400"]) == 0
        assert json.loads(capsys.readouterr().out)["mpi_infidelity"] < 1.0

    def test_fig4_writes_one_monotone_csv_per_profile(self, tmp_path, capsys):
        assert main(["fig4", "--outdir", str(tmp_path)]) == 0
        paths = sorted(tmp_path.glob("fig4_*.csv"))
        assert [p.name for p in paths] == ["fig4_square.csv", "fig4_triangle.csv"]
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / "fig4_square.csv"),
            str(tmp_path / "fig4_triangle.csv"),
        ]
        assert paths[0].read_text() != paths[1].read_text()
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[0] == CSV_HEADER
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == 19  # 10 to 100 km in 5 km steps
            g1 = [float(r[4]) for r in rows]
            g2 = [float(r[5]) for r in rows]
            g2_star = [float(r[6]) for r in rows]
            assert all(a > b for a, b in zip(g1, g1[1:]))
            assert all(a > b for a, b in zip(g2, g2[1:]))
            for r in rows:
                assert float(r[5]) <= float(r[6])
                assert float(r[7]) == float(r[5]) / float(r[4])
        assert len(g2_star) == 19

    def test_config_file_and_env_var(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "link.cfg"
        config_path.write_text("length_km=20\nsweep=20:20:1\n")
        monkeypatch.setenv("MPSLINK_CONFIG", str(config_path))
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("20.0,100.0,")

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "link.cfg"
        config_path.write_text("sweep=20:20:1\n")
        assert main(["rates", "--config", str(config_path), "--sweep", "30:30:1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("30.0,150.0,")

    def test_config_error_goes_to_stderr_with_nonzero_exit(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("alpha_qd_db=-4\n")
        code = main(["rates", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "alpha_qd_db" in captured.err

    def test_runs_as_a_module(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "mpslink", "--help"],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.startswith("usage: mpslink ")

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0
        assert "usage" in capsys.readouterr().err


# Float inputs: zero, subnormals, the ends of the normal floats, huge,
# non-finite and negative values, and a few ordinary ones.  Drawn from a list,
# not from st.floats, so that an edge comes up often enough for a fixed budget
# of examples to find a rule that is missing.
_FLOATS = st.sampled_from((
    0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-9, 0.3, 1.0, 7.5, 100.0, 2500.0,
    1e300, sys.float_info.max, math.inf, -math.inf, math.nan, -1.0,
))
# Literal runs take one step per herald, so every run's cycles stay small.
_CYCLES = st.integers(-1, 20_000)
# start:stop:step with at most four points, so a simulated sweep stays short;
# the malformed ones fail to parse.
_SWEEPS = st.one_of(
    st.builds(
        lambda start, points, step: f"{start!r}:{start + points * step!r}:{step!r}",
        _FLOATS,
        st.integers(0, 3),
        st.one_of(st.sampled_from((0.0, -1.0, 5e-324, 1e300, math.inf, math.nan)),
                  st.floats(1e-3, 1e3)),
    ),
    st.sampled_from(("", "10", "10:20", "a:b:c", "10:20:5:1", "20:10:1")),
)


def _key_values(key: str, kind) -> st.SearchStrategy[str]:
    """Raw flag values for a config key, drawn from its declared type."""
    if kind is float:
        return _FLOATS.map(repr)
    if kind is int:
        return (_CYCLES if key == "cycles" else st.integers(-1, 2**64 - 1)).map(str)
    if key == "sweep":
        return _SWEEPS
    choices = [m.value for m in kind] if isinstance(kind, type) and issubclass(kind, Enum) else []
    return st.sampled_from([*choices, *get_args(kind), "bogus"])


# Up to three keys set, so that most inputs are valid and run; ``output``, a
# path, is left out (runs here write to stdout), and ``cycles`` is always set.
_SETTINGS = st.lists(
    st.one_of([
        st.tuples(st.just(key), _key_values(key, kind))
        for key, kind in _KEY_TYPES.items()
        if key not in ("output", "cycles")
    ]),
    max_size=3,
    unique_by=lambda item: item[0],
).map(dict)
_COMMANDS = (
    ["rates"], ["rates", "--simulate"], ["simulate"], ["fidelity"],
    ["fidelity", "--mc-cycles=20000"],
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_SETTINGS, _key_values("cycles", int))
def test_every_input_runs_or_names_a_flag(settings_, cycles):
    """Any value of any config key, in ``rates`` (analytic and simulated),
    ``simulate`` and ``fidelity`` in either mode, exits 0, or exits 2 with
    a message that names a flag the input set.  No traceback, and no
    warning but the short-run one."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings_.items()]
    flags.append(f"--cycles={cycles}")
    for command in _COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.filterwarnings("ignore", "total_cycles below 10", UserWarning)
                code = main([*command, *flags])
        if code == 0:
            assert out.getvalue() and not err.getvalue()
            continue
        assert code == 2
        named = re.fullmatch(r"error: flag (--[a-z-]+): .+\n", err.getvalue())
        assert named, err.getvalue()
        assert named[1] in {flag.split("=")[0] for flag in [*command, *flags]}
