"""Command line surface: flag plumbing, config files, exit codes."""

import ast
import dataclasses
import hashlib
import io
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coopd2d.checks as checks
import coopd2d.cli as cli
import coopd2d.experiments as experiments
from coopd2d.cli import build_parser, main
from coopd2d.errors import NUMERIC_RULES, ConfigurationError
from coopd2d.experiments import COMMANDS, ExperimentSpec, spec_from_mapping

import oracles

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return lines[0], header, rows


def test_parser_accepts_the_documented_flags():
    args = build_parser().parse_args(
        ["simulate", "--strategy", "tdma", "--trials", "5", "--eta", "0.3",
         "--seed", "7", "--beta", "0.9", "--mu", "2e6", "--out", "x.csv"]
    )
    assert args.command == "simulate"
    assert args.strategy == "tdma"
    assert args.trials == 5
    assert args.eta == 0.3
    assert args.mu == 2e6


def test_strategy_flag_is_simulate_only():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["optimize-cluster", "--strategy", "tdma"])


@pytest.mark.parametrize(
    "command, flag",
    [
        ("optimize-cluster", "--trials"),
        ("optimize-cluster", "--jobs"),
        ("optimize-cluster", "--mu"),
        ("optimize-bandwidth", "--trials"),
        ("optimize-bandwidth", "--jobs"),
        ("validate", "--trials"),
        ("validate", "--jobs"),
        ("validate", "--mu"),
        ("validate", "--out"),
    ],
)
def test_flag_the_command_never_reads_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_takes_seed(command):
    assert build_parser().parse_args([command, "--seed", "7"]).seed == 7


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def _default_split(path):
    assert main(["optimize-bandwidth", "--out", str(path)]) == 0
    return path.read_bytes()


def test_a_flag_does_not_carry_into_the_next_call(tmp_path):
    # main builds its parser once per process; each call parses from scratch
    cli._parser.cache_clear()
    fresh = _default_split(tmp_path / "fresh.csv")
    assert main(["optimize-bandwidth", "--beta", "0.4", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_bytes() != fresh
    assert _default_split(tmp_path / "again.csv") == fresh
    assert cli._parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, code",
    [(["simulate", "--trials", "x"], 2), (["optimize-bandwidth", "--beta", "x"], 2),
     (["optimize-bandwidth", "--jobs", "2"], 2), (["-h"], 0)],
)
def test_a_call_argparse_ends_leaves_the_next_one_working(tmp_path, capsys, argv, code):
    cli._parser.cache_clear()
    fresh = _default_split(tmp_path / "fresh.csv")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert _default_split(tmp_path / "again.csv") == fresh
    assert cli._parser.cache_info().misses == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_importing_cli_builds_no_parser():
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    probe = "import coopd2d.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)}, check=True,
    )
    assert int(done.stdout) == 0


@pytest.mark.parametrize(
    "command, config, column",
    [
        ("optimize-cluster", {"beta": 0.0, "sweep": {"name": "n_users", "values": [300]}},
         "objective_links"),
        ("optimize-bandwidth",
         {"beta": 0.0, "users_per_cluster": 1, "n_clusters": 324, "hotspot_side_m": 450.0},
         "pc"),
    ],
)
def test_an_underflowed_coop_probability_is_written_as_zero(tmp_path, command, config, column):
    # at K = 1 and beta 0 every hit_k ** B underflows, so P_coop is 0.0, not -0.0
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)[2]
    assert rows[0][column] == "0.0"
    assert "-0.0" not in [cell for row in rows for cell in row.values()]


def test_optimize_cluster_end_to_end(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["optimize-cluster", "--beta", "0.8", "--out", str(out)]) == 0
    assert "wrote %s" % out in capsys.readouterr().out
    schema, _, rows = read_csv(out)
    assert schema == "# schema=coopd2d.cluster_profile.v2"
    assert len(rows) == 15
    assert {r["k_star"] for r in rows} == {"8"}


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "trials: 5\n"
        "strategy: tdma\n"
        "out: %s\n" % (tmp_path / "ignored.csv")
    )
    out = tmp_path / "trials.csv"
    code = main(
        ["simulate", "--config", str(cfg), "--trials", "8", "--out", str(out)]
    )
    assert code == 0
    assert not (tmp_path / "ignored.csv").exists()  # flag wins over config
    _, _, rows = read_csv(out)
    assert len(rows) == 8
    assert {r["strategy"] for r in rows} == {"tdma"}
    assert {r["eta"] for r in rows} == {"0.0"}


def test_simulate_eta_flag(tmp_path):
    out = tmp_path / "trials.csv"
    code = main(["simulate", "--trials", "4", "--eta", "0.7", "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert {r["eta"] for r in rows} == {"0.7"}


def test_beta_and_mu_flags_reach_the_sweep(tmp_path):
    out = tmp_path / "split.csv"
    code = main(
        ["optimize-bandwidth", "--beta", "0.9", "--mu", "2000000", "--out", str(out)]
    )
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["beta"] == "0.9"
    assert rows[0]["mu_bps"] == "2000000.0"
    assert rows[0]["feasible"] == "true"


def test_simulate_writes_beta_as_a_float(tmp_path):
    outs = []
    for beta in ("1", "1.0"):
        cfg = tmp_path / ("beta%s.yaml" % beta)
        cfg.write_text("beta: %s\n" % beta)
        outs.append(tmp_path / ("beta%s.csv" % beta))
        argv = ["simulate", "--config", str(cfg), "--trials", "2"]
        assert main(argv + ["--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert read_csv(outs[0])[2][0]["beta"] == "1.0"


def test_optimize_bandwidth_ignores_seed(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("sweep: {name: mu_bps, values: [0.0, 2.0e+6]}\n")
    outs = []
    for seed in ("1", "2", "7"):
        outs.append(tmp_path / ("run%s.csv" % seed))
        argv = ["optimize-bandwidth", "--config", str(cfg), "--seed", seed]
        assert main(argv + ["--out", str(outs[-1])]) == 0
    first = outs[0].read_bytes()
    assert outs[1].read_bytes() == first and outs[2].read_bytes() == first
    assert read_csv(outs[0])[0] == "# schema=coopd2d.bandwidth_split.v4"


@pytest.mark.parametrize("beta", [0.4, 0.7, 1.0, 1.2])
def test_optimize_bandwidth_bytes_match_the_dense_grid(tmp_path, monkeypatch, beta):
    # the benchmark's analytic sweep: rate floors on both sides of mu_max
    mus = [0.0, 0.5e6, 1e6, 2e6, 3e6, 4e6, 6e6, 10e6]
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"beta": beta, "sweep": {"name": "mu_bps", "values": mus}}))
    argv = ["optimize-bandwidth", "--config", str(cfg), "--out"]
    assert main(argv + [str(tmp_path / "fast.csv")]) == 0
    monkeypatch.setattr(experiments, "grid_search_eta", oracles.dense_grid_search_eta)
    assert main(argv + [str(tmp_path / "dense.csv")]) == 0
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "dense.csv").read_bytes()
    grid = [row["eta_star_grid"] for row in read_csv(tmp_path / "fast.csv")[2]]
    assert len(grid) == 8 and "nan" in grid and grid[0] == "1.0"


# sha256 of the analytic commands' CSVs at the reference point and on the
# benchmark's 4 skews x 8 rate floors, from the header row on (the schema
# tests check the tag line).  Their bytes come from closed forms and
# quadrature, not from a random stream or a BLAS call, so a refactor that
# moves one of them changes a number on purpose or not at all.
_SWEEP_MUS = [0.0, 0.5e6, 1e6, 2e6, 3e6, 4e6, 6e6, 10e6]
_PINNED_CSV_SHA256 = {
    ("optimize-cluster", None):
        "49d1a97390ad18c4aec023b35ad8db06de91e016ccb1def156bccfed66548f63",
    ("optimize-bandwidth", None):
        "d015c99d51115032e64a28487b4450e028e1e62e162bf576808a8a2af9a20015",
    ("optimize-bandwidth", 0.4):
        "34e35d1082c26eac2f060d20d7ebdaf7fc7769e91b15ef84532c7793413c4ec5",
    ("optimize-bandwidth", 0.7):
        "fd3655243fed9cb73bb527c996fccf77bed3be6b6042263a02ed4ebb8023b17d",
    ("optimize-bandwidth", 1.0):
        "babefff528c812fa87b4ba267bf4389b843bcb1f812e298e0d94074934ac2af9",
    ("optimize-bandwidth", 1.2):
        "6e445fd1589672a57d038fcd76bf7cf15d7c13efc7f0e3956dce70e05562b462",
}


@pytest.mark.parametrize("command, beta", list(_PINNED_CSV_SHA256))
def test_analytic_csv_bytes_are_pinned(tmp_path, command, beta):
    out = tmp_path / "out.csv"
    argv = [command, "--out", str(out)]
    if beta is not None:
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            yaml.safe_dump({"beta": beta, "sweep": {"name": "mu_bps", "values": _SWEEP_MUS}})
        )
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    rows = out.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(rows).hexdigest() == _PINNED_CSV_SHA256[command, beta]


def test_bad_catalog_size_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("n_files: 301\n")
    assert main(["optimize-cluster", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


_OVER_INT16_USERS = (
    "n_clusters: 400\nusers_per_cluster: 100\nn_files: 20000\n"
    "hotspot_side_m: 2000.0\nbeta: 0.0\n"
)


@pytest.mark.parametrize(
    "argv, config",
    [
        # PyYAML reads 1.0e6 (no exponent sign) as a string
        (["optimize-bandwidth"], "sweep:\n  name: mu_bps\n  values: [0.0, 1.0e6]\n"),
        (["optimize-bandwidth"], "beta: abc\n"),
        # no longer a spec field
        (["optimize-bandwidth"], "population_trials: 100000\n"),
        (["simulate", "--strategy", "tdma", "--eta", "1.5", "--trials", "3"], ""),
        (["compare", "--trials", "3"], "eta: 0.3\n"),
        # only simulate reads a strategy
        (["optimize-cluster"], "strategy: bogus\n"),
        (["optimize-bandwidth"], "strategy: coop\n"),
        (["compare", "--trials", "3"], "strategy: tdma\n"),
        (["simulate", "--trials", "3"], "strategy: bogus\n"),
        # derived from n_clusters and users_per_cluster, not a spec field
        (["optimize-cluster"], "n_users: 135\n"),
        # finite dB values whose linear power or gain overflows or is 0
        (["optimize-bandwidth"], "noise_dbm: 1.0e+300\n"),
        (["simulate", "--trials", "3"], "noise_dbm: 1.0e+300\n"),
        (["optimize-bandwidth"], "tx_power_dbm: 1.0e+300\n"),
        (["simulate", "--trials", "3"], "tx_power_dbm: 1.0e+300\n"),
        (["optimize-bandwidth"], "path_loss_intercept_db: -1.0e+300\n"),
        (["simulate", "--trials", "3"], "path_loss_intercept_db: -1.0e+300\n"),
        (["optimize-bandwidth"], "noise_dbm: -1.0e+300\n"),
        (["simulate", "--trials", "3"], "noise_dbm: -1.0e+300\n"),
        (["optimize-bandwidth"], "path_loss_intercept_db: 1.0e+300\n"),
        (["simulate", "--trials", "3"], "path_loss_intercept_db: 1.0e+300\n"),
        # a finite linear power whose link budget overflows to an infinite rate
        (["optimize-bandwidth"], "tx_power_dbm: 3080.0\n"),
        (["simulate", "--trials", "3"], "tx_power_dbm: 3080.0\n"),
        # a finite band whose throughput overflows
        (["optimize-bandwidth"], "bandwidth_hz: 1.0e+308\n"),
        (["simulate", "--trials", "3"], "bandwidth_hz: 1.0e+308\n"),
        (["compare", "--trials", "3"], "bandwidth_hz: 1.0e+308\n"),
        # a cell side that underflows to 0
        (["optimize-bandwidth"], "hotspot_side_m: 5.0e-324\n"),
        # 2/3 m cells: r^-alpha underflows the interference moment to 0, or
        # the cell side's D^-alpha overflows
        (["optimize-bandwidth"], "alpha: 1819.0\nhotspot_side_m: 2.0\n"),
        (["optimize-bandwidth"], "alpha: 1751.0\nhotspot_side_m: 2.0\n"),
        # a squared link distance overflows in the simulator
        (["simulate", "--trials", "3"], "hotspot_side_m: 1.4e+154\nalpha: 0.0\n"),
        # 40,000 users: the int16 record counts would wrap
        (["simulate", "--trials", "2", "--strategy", "nocoop"], _OVER_INT16_USERS),
        (["compare", "--trials", "2"], _OVER_INT16_USERS),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, argv, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    key = config.partition(":")[0]
    assert key in ("", "sweep") or key in err  # the message names the bad key
    if config == _OVER_INT16_USERS:  # the configured plan, not compare's optimized one
        assert "400 x 100" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, axis",
    [
        ("optimize-cluster", "alpha"),
        ("optimize-cluster", "mu_bps"),
        ("optimize-bandwidth", "n_users"),
        ("optimize-bandwidth", "eta"),
        ("compare", "trials"),
    ],
)
def test_sweep_axis_the_command_never_reads_exits_2(tmp_path, capsys, command, axis):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("sweep: {name: %s, values: [1]}\n" % axis)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot sweep" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("compare", "eta: 0.3\n", "compare does not read eta"),
        ("optimize-bandwidth", "sweep: {name: n_users, values: [45]}\n",
         "optimize-bandwidth cannot sweep 'n_users'; it sweeps beta or mu_bps"),
        ("simulate", "sweep: {name: beta, values: [0.5]}\n", "simulate takes no sweep"),
    ],
    ids=["compare-eta", "optimize-bandwidth-n_users", "simulate-beta"],
)
def test_a_refusal_names_the_command_typed(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message


def _readme_command_table():
    """``{command: (flags, axes)}`` from the README's command table.

    ``flags`` maps each flag to the values its metavar stands for, and
    ``axes`` lists the sweep axes.
    """
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| command |")) + 2
    values = {"N": ["3"], "F": ["0.5"], "PATH": ["x.csv"]}
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        command, flags, axes = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = (
            {
                flag: values.get(metavar) or metavar.strip("{}").split(",")
                for flag, metavar in re.findall(r"`(--[a-z]+) ([^`]+)`", flags)
            },
            re.findall(r"`(\w+)`", axes),
        )
    return table


def test_readme_command_table_lists_every_command():
    assert sorted(_readme_command_table()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_command_table_matches_the_program(command):
    table = _readme_command_table()
    flags, axes = table[command]
    for flag, values in flags.items():
        for value in values:
            build_parser().parse_args([command, flag, value])
    others = {f: v for fs, _ in table.values() for f, v in fs.items()}
    for flag in sorted(set(others) - set(flags)):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag, others[flag][0]])
        assert exc.value.code == 2
    reference = ExperimentSpec(command="simulate")
    fields = set(ExperimentSpec.__dataclass_fields__) - {"command", "sweep_name", "sweep_values"}
    for axis in sorted(fields | {"n_users"}):
        value = getattr(reference, axis)
        sweep = {"sweep_name": axis, "sweep_values": (1 if value is None else value,)}
        if axis in axes:
            ExperimentSpec(command=command, **sweep)
        else:
            with pytest.raises(ConfigurationError, match="^%s (cannot|takes no) sweep" % command):
                ExperimentSpec(command=command, **sweep)


def test_readme_config_example_is_valid():
    block = re.search(r"```yaml\n(.*?)```", README.read_text(), re.S).group(1)
    spec = spec_from_mapping("optimize-bandwidth", yaml.safe_load(block))
    assert spec.sweep_name == "mu_bps"
    assert all(isinstance(v, float) for v in spec.sweep_values)


@pytest.mark.parametrize(
    "config",
    [
        # a flat key beside the nested sweep must not override it
        {"sweep": {"name": "mu_bps", "values": [0.0]}, "sweep_values": [1e6]},
        {"sweep_name": "mu_bps", "sweep_values": [1e6]},
        {"sweep_name": "beta"},
    ],
)
def test_flat_sweep_keys_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "out.csv"
    assert main(["optimize-bandwidth", "--config", str(cfg), "--out", str(out)]) == 2
    assert "spell a sweep as 'sweep:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("warp_factor: 9\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_yaml_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    for text in (
        "trials: [5, 6\n",  # an unclosed flow sequence
        "beta: \x07\n",  # a control character
        "beta: 1.0\n\ttrials: 5\n",  # a tab before a key
    ):
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "utf16.yaml"
    cfg.write_bytes("beta: 0.8\n".encode("utf-16"))  # starts with a BOM, 0xff 0xfe
    assert main(["optimize-cluster", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err


def test_non_mapping_yaml_exits_2(tmp_path):
    cfg = tmp_path / "list.yaml"
    cfg.write_text("- 1\n- 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_divergent_geometry_exits_2(tmp_path, capsys):
    # a zero pairing floor makes the truncated moments diverge at the
    # reference path-loss exponent
    cfg = tmp_path / "run.yaml"
    cfg.write_text("min_pairing_distance_m: 0.0\n")
    assert main(["optimize-bandwidth", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        # a floor of at least sqrt(5) cluster sides leaves no link distance
        "min_pairing_distance_m: 60.0\n",
        "hotspot_side_m: 1.0e-300\n",
        # r^-alpha overflows a float at a floor of 3e-300 cluster sides
        "hotspot_side_m: 1.0e+300\n",
        # r^-alpha overflows a float near the floor
        "alpha: 300.0\n",
    ],
)
def test_pairing_floor_past_every_link_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert main(["optimize-bandwidth", "--config", str(cfg), "--out", str(out)]) == 2
    assert "pairing floor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        # floors this far below the cluster side, which the rates' cell-offset
        # kernel resolves
        "min_pairing_distance_m: 0.000025\n",
        "min_pairing_distance_m: 0.000001\n",
        "min_pairing_distance_m: 0.00004\n",
        "min_pairing_distance_m: 0.00002\n",
    ],
)
def test_short_pairing_floor_runs(tmp_path, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert main(["optimize-bandwidth", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 1 and rows[0]["feasible"] == "true"
    cells = [rows[0][name] for name in header if name not in ("feasible", "binding")]
    assert all(math.isfinite(float(cell)) for cell in cells), rows


def test_validate_cross_checks_a_short_floor(tmp_path, capsys):
    # below one cluster side the densities are polynomials, so validate's
    # second moment route integrates the near field in closed form and
    # resolves the floors the rates' kernel resolves
    cfg = tmp_path / "run.yaml"
    cfg.write_text("min_pairing_distance_m: 0.000025\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "PASS moment-kernel:" in captured.out
    assert "validation passed (12 gated checks)" in captured.out
    assert captured.err == ""


def test_validate_refuses_an_overflowing_band(tmp_path, capsys):
    # exit 1 is a failed gate; a band whose throughput overflows is bad input
    cfg = tmp_path / "run.yaml"
    cfg.write_text("bandwidth_hz: 1.0e+308\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "bandwidth_hz" in captured.err
    assert captured.out == ""


def test_validate_survives_a_zero_signal_moment(tmp_path, capsys, monkeypatch):
    # a floor between sqrt(2) and sqrt(5) cluster sides leaves no in-cell
    # link distance, so the signal moment and the closed-form single-cell
    # rate are 0; the snapshot gates are not at stake and draw fewer snapshots
    monkeypatch.setattr(checks, "_VALIDATE_SNAPSHOTS", 2000)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("min_pairing_distance_m: 36.0\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert (
        "PASS moment-kernel: density quadrature vs cell-offset kernel: relative gap 0.0e+00 signal"
        in out
    )
    assert "vs 0.000 (ratio nan)" in out


def test_validate_fails_a_moment_off_by_1e7(capsys, monkeypatch):
    # a q2 off by 1e-7 relative is outside the kernel gate's window
    monkeypatch.setattr(checks, "_VALIDATE_SNAPSHOTS", 2000)
    real = checks.analytic_point

    def skewed(spec):
        pt = real(spec)
        q2 = pt.geom.q2 * (1.0 + 1e-7)
        geom = dataclasses.replace(pt.geom, q1=pt.geom.signal_moment + 8.0 * q2, q2=q2)
        return dataclasses.replace(pt, geom=geom)

    monkeypatch.setattr(checks, "analytic_point", skewed)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "FAIL moment-kernel: density quadrature vs cell-offset kernel: relative gap" in out
    assert out.count("FAIL ") == 1
    assert "validation FAILED (12 gated checks)" in out


def test_validate_passes_a_heavy_tail(tmp_path, capsys, monkeypatch):
    # at alpha = 150 the moments rest on the rare pairs near the floor, which
    # sampling misses by percents; the kernel gate draws nothing, and it must
    # not warn (RuntimeWarnings are test errors here)
    monkeypatch.setattr(checks, "_VALIDATE_SNAPSHOTS", 2000)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("alpha: 150.0\nhotspot_side_m: 6.6\nmin_pairing_distance_m: 0.088\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS moment-kernel" in out
    assert "validation passed (12 gated checks)" in out


def test_pairing_floor_that_overflows_names_its_keys(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("min_pairing_distance_m: 1.0e+300\nhotspot_side_m: 1.0e-10\n")
    out = tmp_path / "out.csv"
    assert main(["optimize-bandwidth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "min_pairing_distance_m, hotspot_side_m and n_clusters" in err
    assert "r_min" not in err
    assert not out.exists()


def test_validate_exit_code_mapping(monkeypatch):
    seen = []

    def fake_validate(spec):
        seen.append(spec.command)
        return fake_validate.verdict

    fake_validate.verdict = True
    monkeypatch.setitem(cli._RUNNERS, "validate", (cli._RUNNERS["validate"][0], fake_validate))
    assert main(["validate"]) == 0
    fake_validate.verdict = False
    assert main(["validate"]) == 1
    assert seen == ["validate", "validate"]


def test_every_command_has_a_help_line_and_a_runner():
    # build_parser reads each command's help line from the runner table
    assert list(cli._RUNNERS) == list(experiments.COMMANDS)


def _config_texts():
    """The README's YAML block and every literal config text this module writes.

    A test writes a config with ``write_text(text)`` or
    ``write_bytes(text.encode(codec))``, ``text`` a string literal, a module
    constant, or a name its ``parametrize`` or a ``for`` loop over literals
    binds.  Texts formatted at run time and YAML dumps are not literals, and
    no other string of the module is a config.
    """
    tree = ast.parse(pathlib.Path(__file__).read_text())
    constants = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    texts = set()
    for test in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        bound = {}  # name: the value nodes bound to it
        for mark in test.decorator_list:
            if isinstance(mark, ast.Call) and getattr(mark.func, "attr", None) == "parametrize":
                names = [name.strip() for name in mark.args[0].value.split(",")]
                for row in getattr(mark.args[1], "elts", []):  # a literal list of rows
                    values = getattr(row, "elts", []) if len(names) > 1 else [row]
                    for name, value in zip(names, values):
                        bound.setdefault(name, []).append(value)
        for node in ast.walk(test):
            if isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
                bound.setdefault(getattr(node.target, "id", None), []).extend(node.iter.elts)
        for call in ast.walk(test):
            method = getattr(call.func, "attr", None) if isinstance(call, ast.Call) else None
            if method in ("write_text", "write_bytes"):
                arg = call.args[0]
                if method == "write_bytes":  # text.encode(codec)
                    arg = arg.func.value
                for value in bound.get(arg.id, []) if isinstance(arg, ast.Name) else [arg]:
                    value = constants.get(getattr(value, "id", None), value)
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        texts.add(value.value)
    readme = re.search(r"```yaml\n(.*?)```", README.read_text(), re.S).group(1)
    return [readme] + sorted(texts)


def _load(text, loader):
    try:
        return yaml.load(io.StringIO(text), Loader=loader)
    except yaml.YAMLError as exc:
        return type(exc)


@pytest.mark.parametrize("text", _config_texts())
def test_config_loader_reads_what_the_safe_loader_reads(text):
    # libyaml words its errors differently, so a malformed text need only
    # fail in both with the same error class
    assert cli._YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    assert _load(text, cli._YAML_LOADER) == _load(text, yaml.SafeLoader)


def _documented_nan(column, row):
    # optimize-bandwidth: an infeasible split has no eta or throughput, and
    # the grid column is nan when no grid point is feasible
    return column == "eta_star_grid" or (
        column in ("eta_star", "throughput_bps") and row.get("feasible") == "false"
    )


def assert_finite_cells(path):
    """Every number in a CSV is finite, or one of the documented NaNs."""
    _, _, rows = read_csv(path)
    assert rows
    for row in rows:
        for column, cell in row.items():
            try:
                value = float(cell)
            except ValueError:  # a label: strategy, binding, true/false
                continue
            assert math.isfinite(value) or (math.isnan(value) and _documented_nan(column, row)), (
                column, cell,
            )


# A numpy overflow warning fails these tests (pyproject's filterwarnings).
@pytest.mark.parametrize(
    "argv, config",
    [
        # per-trial throughputs near 1e308 are finite, their sum is not
        (["simulate", "--trials", "50"], "bandwidth_hz: 1.0e+306\n"),
        (["compare", "--trials", "50"], "bandwidth_hz: 1.0e+306\n"),
        # W * B * rate underflows to 0: no positive floor is feasible
        (["optimize-bandwidth"], "bandwidth_hz: 5.0e-324\nn_clusters: 1\nnoise_dbm: 0.0\n"),
    ],
)
def test_extreme_configs_run_to_finite_cells(tmp_path, argv, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert_finite_cells(out)


@pytest.mark.parametrize(
    "command, config",
    [
        # path gains near underflow: a zero-forcing inverse norm overflows
        ("simulate",
         "hotspot_side_m: 1.8205332103701806e+82\n"
         "min_pairing_distance_m: 4.0708360136834664e+82\nn_clusters: 1\n"),
        # every path gain underflows to 0: every channel is singular
        ("compare",
         "hotspot_side_m: 2.728199705330352e+86\n"
         "min_pairing_distance_m: 6.100439997313288e+86\nn_clusters: 1\n"),
        # the intercept alone puts the gain below the floor
        ("simulate", "path_loss_intercept_db: 1600.0\n"),
    ],
)
def test_path_gains_near_underflow_exit_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert main([command, "--trials", "3", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at the longest link, below 1e-150" in err
    assert not out.exists()


# The finite-output contract: any config a user writes either runs, every
# cell of its CSV finite, or exits 2 with an error line.  Values come from
# errors.NUMERIC_RULES: half from a field's valid range, half from
# anywhere in its type (NaN, infinities, signed zeros, subnormals and
# numbers near the float range included).  Size fields stay small so an
# example costs milliseconds: at most 16 clusters of 6 users, 120 files in
# groups of at most 30, 5 trials, and one worker (a worker pool returns
# the same bits, and acceptance 6 checks that).  An example sets at most
# four fields, so most examples get past the spec checks.  Only the names
# that are spec fields are config keys (n_users is derived, r_min is the
# floor in cluster sides).
_SIZE_CAPS = {"n_clusters": 16, "users_per_cluster": 6, "n_files": 120,
              "cache_size": 30, "trials": 5, "n_jobs": 1}
_EXAMPLES = 150  # per command


def _field_values(kind, name, holds):
    if kind is int:
        anything = st.integers(-1, _SIZE_CAPS.get(name, 2**70))
        return st.one_of(anything.filter(holds), anything)
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False).filter(holds), st.floats())


_FIELD_VALUES = {
    name: _field_values(kind, name, holds)
    for kind, _, holds, names in NUMERIC_RULES
    for name in names
    if name in ExperimentSpec.__dataclass_fields__
}
_CONTRACT_COMMANDS = {
    "optimize-bandwidth": [],
    "optimize-cluster": [],
    "simulate": ["--trials", "3"],
    "compare": ["--trials", "3"],
}


@pytest.mark.parametrize("command", sorted(_CONTRACT_COMMANDS))
@settings(
    max_examples=_EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_config_runs_to_finite_cells_or_exits_2(tmp_path, capsys, command, data):
    fields = sorted(n for n in _FIELD_VALUES if n != "eta" or command == "simulate")
    names = data.draw(st.sets(st.sampled_from(fields), max_size=4), label="fields")
    config = {name: data.draw(_FIELD_VALUES[name], label=name) for name in sorted(names)}
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    argv = [command, *_CONTRACT_COMMANDS[command], "--config", str(cfg), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:") and not out.exists()
        return
    assert code == 0, err
    assert_finite_cells(out)
