"""Command line surface: flag plumbing, config files, exit codes."""

import ast
import hashlib
import io
import math
import pathlib
import re

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coopd2d.checks as checks
import coopd2d.cli as cli
import coopd2d.experiments as experiments
from coopd2d.cli import build_parser, main
from coopd2d.experiments import spec_from_mapping

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


@pytest.mark.parametrize("command", sorted(cli._SCENARIO_OF))
def test_every_command_takes_seed(command):
    assert build_parser().parse_args([command, "--seed", "7"]).seed == 7


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_optimize_cluster_end_to_end(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["optimize-cluster", "--beta", "0.8", "--out", str(out)]) == 0
    assert "wrote %s" % out in capsys.readouterr().out
    schema, _, rows = read_csv(out)
    assert schema == "# schema=coopd2d.cluster_profile.v1"
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
    assert read_csv(outs[0])[0] == "# schema=coopd2d.bandwidth_split.v2"


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
# benchmark's 4 skews x 8 rate floors.  Their bytes come from closed forms
# and quadrature, not from a random stream or a BLAS call, so a refactor
# that moves one of them changes a number on purpose or not at all.
_SWEEP_MUS = [0.0, 0.5e6, 1e6, 2e6, 3e6, 4e6, 6e6, 10e6]
_PINNED_CSV_SHA256 = {
    ("optimize-cluster", None):
        "08e70ca3d5a824c0b85dc3f5428cf4cc2cb8e013c28962092920425e9f34e654",
    ("optimize-bandwidth", None):
        "4082c0b3083fa6b2f99d6f62c57f17c59590edbdb9daa14d4a45fea8f6104b02",
    ("optimize-bandwidth", 0.4):
        "cb1d20896d5da3ff7205ef51a01deb96dad7ee1afb486d400f0132dd97a38ce8",
    ("optimize-bandwidth", 0.7):
        "8971076e3a370fea8687781776f092266d3a2f881a7738f6422f11044fa61995",
    ("optimize-bandwidth", 1.0):
        "a982b4c3d026532294fe9d2efb8ca867b60db4a9bf97d0c5f57c121d677e29b0",
    ("optimize-bandwidth", 1.2):
        "aed404a85daf62720c7de7b70987d9147ff98247e5bb7f7b1e9a4dc6964457b1",
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
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _PINNED_CSV_SHA256[command, beta]


def test_bad_catalog_size_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("n_files: 301\n")
    assert main(["optimize-cluster", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_readme_config_example_is_valid():
    block = re.search(r"```yaml\n(.*?)```", README.read_text(), re.S).group(1)
    spec = spec_from_mapping("bandwidth-sweep", yaml.safe_load(block))
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
        # a floor this far below the cluster side defeats the moment
        # quadrature, whose unconverged result must not reach a CSV
        "min_pairing_distance_m: 0.000025\n",
        "min_pairing_distance_m: 0.000001\n",
        "min_pairing_distance_m: 0.00004\n",
        "min_pairing_distance_m: 0.00002\n",
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
    assert "PASS moment-mc: geometric MC off by 0.00% signal" in out
    assert "vs 0.000 (ratio nan)" in out


def test_validate_exit_code_mapping(monkeypatch):
    seen = []

    def fake_validate(spec):
        seen.append(spec.scenario)
        return fake_validate.verdict

    fake_validate.verdict = True
    monkeypatch.setattr(cli, "cmd_validate", fake_validate)
    assert main(["validate"]) == 0
    fake_validate.verdict = False
    assert main(["validate"]) == 1
    assert seen == ["validate", "validate"]


def _config_texts():
    """The README's YAML block and every config text this module writes."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    texts = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.endswith("\n")
    }
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
# experiments._NUMERIC_RULES: half from a field's valid range, half from
# anywhere in its type (NaN, infinities, signed zeros, subnormals and
# numbers near the float range included).  Size fields stay small so an
# example costs milliseconds: at most 16 clusters of 6 users, 120 files in
# groups of at most 30, 5 trials, and one worker (a worker pool returns
# the same bits, and acceptance 6 checks that).  An example sets at most
# four fields, so most examples get past the spec checks.  n_users is
# derived, not a config key.
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
    for kind, _, holds, names in experiments._NUMERIC_RULES
    for name in names
    if name != "n_users"
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
