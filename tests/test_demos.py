"""Smoke runs of every script in ``demos/`` with tiny arguments, and of the
README's code."""

import importlib
import importlib.util
import pathlib
import re

import pytest

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


def test_demo_file_outputs(tmp_path):
    profile = tmp_path / "profile.csv"
    assert _load("cluster_size_sweep").main(["--out", str(profile)]) == 0
    assert profile.read_text().startswith("n_users,k_star,expected_active_links\n")


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
