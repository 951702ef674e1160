"""Smoke runs of every script in ``demos/`` with tiny arguments, and of the
README's code."""

import csv
import importlib
import importlib.util
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from coopd2d import ExperimentSpec, analytic_point
from coopd2d.experiments import cmd_optimize_bandwidth
from coopd2d.geometry import SQRT5, interference_pdf, signal_pdf

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"

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

# bad arguments: a --points below 1 (an argparse error, the one count no
# package rule covers) and values the package refuses (a CoopD2DError); each
# must exit 2 with an error line
BAD_ARGS = [
    ("bandwidth_split_sweep", ["--points", "0"]),
    ("bandwidth_split_sweep", ["--beta", "-1"]),
    ("cluster_size_sweep", ["--cache-size", "0"]),
    ("cluster_size_sweep", ["--n-files", "7"]),
    ("link_rate_gap", ["--snapshots", "0"]),
    ("link_rate_gap", ["--seed", "-1"]),
    ("strategy_comparison", ["--trials", "0"]),
    ("strategy_comparison", ["--trials", "2", "--betas", "-1"]),
]


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


@pytest.mark.parametrize("name, argv", BAD_ARGS, ids=[" ".join(a) for _, a in BAD_ARGS])
def test_demo_refuses_a_bad_argument(name, argv, capsys):
    try:
        code = _load(name).main(argv)
    except SystemExit as exc:  # argparse's own error exit
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, flags",
    [("cluster_size_sweep", ["--out"]), ("link_rate_gap", ["--snapshots", "2", "--densities-out"])],
)
def test_demo_refuses_an_unwritable_output(tmp_path, capsys, name, flags):
    assert _load(name).main(flags + [str(tmp_path / "missing" / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_every_demo_has_a_bad_argument_case():
    assert sorted({name for name, _ in BAD_ARGS}) == sorted(ARGS)


def test_bandwidth_demo_prints_the_rows_optimize_bandwidth_writes(tmp_path, capsys):
    # the command at the demo's floors, 12 points from 0 to 1.05 mu_max
    spec = ExperimentSpec(command="optimize-bandwidth", beta=0.6)
    mu_max = analytic_point(spec).solution.mu_max
    floors = tuple(float(mu) for mu in np.linspace(0.0, 1.05 * mu_max, 12))
    out = tmp_path / "split.csv"
    cmd_optimize_bandwidth(replace(spec, sweep_name="mu_bps", sweep_values=floors, out=str(out)))
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    demo = _load("bandwidth_split_sweep")
    assert not hasattr(demo, "grid_search_eta")
    assert demo.main(["--beta", "0.6", "--points", "12"]) == 0
    table = capsys.readouterr().out.splitlines()[-12:]
    assert [row["feasible"] for row in rows].count("false") == 1
    for line, row in zip(table, rows, strict=True):
        mu, eta, grid, throughput = (
            float(row[c]) for c in ("mu_bps", "eta_star", "eta_star_grid", "throughput_bps"))
        if row["feasible"] == "true":
            assert line.split() == [
                "%.4g" % mu, "%.5f" % eta, row["binding"], "%.6e" % throughput,
                "|closed", "-", "grid|", "=", "%.1e" % abs(eta - grid),
            ]
        else:
            assert line.split() == [
                "%.4g" % mu, "infeasible", "(%s);" % row["binding"], "grid", "agrees",
            ]


def test_demo_file_outputs(tmp_path):
    profile = tmp_path / "profile.csv"
    assert _load("cluster_size_sweep").main(["--out", str(profile)]) == 0
    assert profile.read_text().startswith(
        "# schema=coopd2d.cluster_optimum.v1\nn_users,k_star,expected_active_links\n")


def test_densities_csv(tmp_path, capsys):
    path = tmp_path / "pdf.csv"
    argv = ["--snapshots", "5", "--densities-out", str(path)]
    demo = _load("link_rate_gap")
    assert demo.main(argv) == 0
    assert "wrote %s" % path in capsys.readouterr().out
    first = path.read_bytes()
    assert demo.main(argv) == 0
    assert path.read_bytes() == first  # byte-deterministic rewrite

    lines = path.read_text().splitlines()
    assert lines[:2] == ["# schema=coopd2d.distance_pdf.v1", "r,g,f"]
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == 512 and rows[0][0] == 0.0 and rows[-1][0] == SQRT5
    for r, g, f in rows:
        assert g == signal_pdf(r) and f == interference_pdf(r)


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].n_trials == 1000


def test_readme_imports_resolve():
    imports = re.findall(r"from (coopd2d\.\w+) import (\w+(?:, \w+)*)", README.read_text())
    assert imports
    for module, names in imports:
        for name in names.split(", "):
            assert hasattr(importlib.import_module(module), name), (module, name)
