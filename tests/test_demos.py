"""Smoke runs of every script in ``demos/`` with tiny arguments."""

import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

# arguments that keep each demo to about a second
ARGS = {
    "bandwidth_split_sweep": ["--points", "3"],
    "cluster_size_sweep": [],
    "link_rate_gap": ["--snapshots", "20"],
    "strategy_comparison": ["--trials", "20", "--betas", "1.0"],
}
# one line each demo must print
EXPECT = {
    "bandwidth_split_sweep": "largest supportable rate floor",
    "cluster_size_sweep": "optimal cluster size versus hotspot density",
    "link_rate_gap": "20 snapshots,",
    "strategy_comparison": "beta = 1.00, 20 trials per strategy",
}


def _load(name):
    path = DEMOS / (name + ".py")
    spec = importlib.util.spec_from_file_location("demo_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_has_arguments():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(ARGS)


@pytest.mark.parametrize("name", sorted(ARGS))
def test_demo_runs(name, capsys):
    assert _load(name).main(ARGS[name]) == 0
    assert EXPECT[name] in capsys.readouterr().out


def test_demo_file_outputs(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    assert _load("cluster_size_sweep").main(["--out", str(profile)]) == 0
    assert profile.read_text().startswith("n_users,k_star,expected_active_links\n")
    densities = tmp_path / "pdf.csv"
    argv = ["--snapshots", "5", "--densities-out", str(densities)]
    assert _load("link_rate_gap").main(argv) == 0
    assert densities.stat().st_size > 0
    assert "wrote %s" % densities in capsys.readouterr().out
