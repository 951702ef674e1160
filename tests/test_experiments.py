"""Experiment orchestration: specs, sweeps, CSV emission, self-validation."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from coopd2d import experiments
from coopd2d.checks import _snapshot_checks, cmd_validate
from coopd2d.errors import ConfigurationError
from coopd2d.experiments import (
    COMMANDS,
    ExperimentSpec,
    analytic_point,
    campaign_config,
    cmd_compare,
    cmd_optimize_bandwidth,
    cmd_optimize_cluster,
    cmd_simulate,
    grid_search_eta,
    sim_feasible_cluster_sizes,
    spec_from_mapping,
    write_csv,
)
from coopd2d.geometry import path_gain_moments
from coopd2d.netsim import link_rate_gap
from coopd2d.population import expected_coop_users_exact

import oracles


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return lines[0], header, rows


def test_spec_defaults_describe_the_reference_scenario():
    spec = ExperimentSpec(command="simulate")
    assert spec.n_users == 135
    assert spec.n_clusters * spec.users_per_cluster == 135
    assert spec.beta == 1.0
    assert spec.mu_bps == 1e6


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(command="teleport")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(command="simulate", sweep_name="bogus", sweep_values=(1,))
    with pytest.raises(ConfigurationError):
        ExperimentSpec(command="simulate", sweep_name="beta")  # empty values
    with pytest.raises(ConfigurationError, match="unknown config key 'n_users'"):
        spec_from_mapping("simulate", {"n_users": 135})  # derived, not a field


@pytest.mark.parametrize(
    "overrides",
    [
        {"beta": "abc"},
        {"beta": -0.1},
        {"beta": math.nan},
        {"mu_bps": math.inf},
        {"alpha": True},
        {"trials": 2.5},
        {"seed": -1},
        {"n_jobs": 0},
        {"eta": 1.5},
        {"out": 5},
        {"users_per_cluster": 27, "n_clusters": 5},
    ],
)
def test_spec_rejects_bad_values(overrides):
    with pytest.raises(ConfigurationError):
        ExperimentSpec(command="simulate", **overrides)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("noise_dbm", math.nan, "noise_dbm must be a finite number, got nan"),
        ("beta", -0.1, "beta must be a finite number >= 0, got -0.1"),
        ("trials", 2.5, "trials must be an integer > 0, got 2.5"),
    ],
)
def test_spec_value_errors_state_the_rule_once(field, value, message):
    with pytest.raises(ConfigurationError) as caught:
        ExperimentSpec(command="simulate", **{field: value})
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "command, axis",
    [
        ("optimize-cluster", "mu_bps"),
        ("optimize-cluster", "alpha"),
        ("optimize-bandwidth", "n_users"),
        ("optimize-bandwidth", "eta"),
        ("compare", "trials"),
        ("simulate", "beta"),
        ("validate", "beta"),
    ],
)
def test_spec_refuses_sweep_axes_the_command_ignores(command, axis):
    with pytest.raises(ConfigurationError):
        ExperimentSpec(command=command, sweep_name=axis, sweep_values=(1,))


@pytest.mark.parametrize(
    "command", ["optimize-cluster", "optimize-bandwidth", "compare", "validate"]
)
def test_spec_refuses_eta_outside_simulate(command):
    with pytest.raises(ConfigurationError, match="eta"):
        spec_from_mapping(command, {"eta": 0.3})
    assert spec_from_mapping("simulate", {"eta": 0.3}).eta == 0.3


def test_spec_checks_sweep_values():
    def spec(command, **sweep):
        return ExperimentSpec(command=command, **sweep)

    spec("optimize-cluster", sweep_name="n_users", sweep_values=(45, 135))
    with pytest.raises(ConfigurationError):
        spec("optimize-cluster", sweep_name="n_users", sweep_values=(4.5,))
    with pytest.raises(ConfigurationError):
        spec("optimize-bandwidth", sweep_name="mu_bps", sweep_values=("1.0e6",))
    with pytest.raises(ConfigurationError):
        spec("optimize-bandwidth", sweep_values=(1e6,))  # values without an axis


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(
        st.sampled_from(["name", "values", "axis"]),
        st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
        max_size=3,
    ),
)


_KEYS = sorted(ExperimentSpec.__dataclass_fields__) + ["sweep", "bogus"]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(list(COMMANDS)),
    mapping=st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=5),
)
def test_spec_from_mapping_returns_a_spec_or_configuration_error(command, mapping):
    try:
        spec = spec_from_mapping(command, mapping)
    except ConfigurationError:
        return
    assert isinstance(spec, ExperimentSpec)


def test_spec_from_mapping():
    spec = spec_from_mapping(
        "optimize-bandwidth",
        {"beta": 0.8, "sweep": {"name": "mu_bps", "values": [1e6, 2e6]}},
    )
    assert spec.beta == 0.8
    assert spec.sweep_name == "mu_bps"
    assert spec.sweep_values == (1e6, 2e6)
    with pytest.raises(ConfigurationError):
        spec_from_mapping("simulate", {"warp_factor": 9})
    with pytest.raises(ConfigurationError):
        spec_from_mapping("simulate", {"sweep": {"axis": "beta"}})


def test_analytic_point_reference_frozen():
    pt = analytic_point(ExperimentSpec(command="optimize-bandwidth"))
    assert pt.pc == approx(0.9999787380676235, rel=1e-12)
    assert pt.rate_coop == approx(15.288348744652652, rel=1e-12)
    assert pt.rate_noncoop == approx(2.4065033112793515, rel=1e-12)
    assert pt.nc_bar == approx(80.56591137123345, rel=1e-12)
    closed = oracles.closed_form_coop_mean(pt.model, 15, 9)
    assert pt.nc_bar == approx(closed, rel=1e-12)
    assert pt.nn_bar == approx(54.434088628766546, rel=1e-12)
    assert pt.nb_bar == 0.0
    assert pt.solution.eta_star == approx(0.8743356794583512, rel=1e-12)
    assert pt.nc_bar + pt.nn_bar + pt.nb_bar == approx(135.0, abs=1e-9)


def test_analytic_point_population_matches_enumeration():
    # 3 cached groups, 4 clusters of 2 users: small enough to enumerate
    spec = ExperimentSpec(
        command="optimize-bandwidth",
        n_files=60,
        cache_size=20,
        n_clusters=4,
        users_per_cluster=2,
    )
    pt = analytic_point(spec)
    exact = expected_coop_users_exact(pt.model, 2, 4)
    assert pt.nc_bar == approx(exact.coop_mean, rel=1e-12)
    assert pt.nn_bar == approx(exact.noncoop_mean, rel=1e-12)
    assert pt.nb_bar == approx(exact.cellular_mean, rel=1e-12)


def test_analytic_point_reuses_the_path_gain_moments():
    spec = ExperimentSpec(command="optimize-bandwidth")
    path_gain_moments.cache_clear()
    a = analytic_point(replace(spec, beta=0.6, mu_bps=1e6))
    misses = path_gain_moments.cache_info().misses
    b = analytic_point(replace(spec, beta=1.2, mu_bps=3e6))
    info = path_gain_moments.cache_info()
    assert (misses, info.misses, info.hits) == (1, 1, 1)
    assert a.rate_coop == b.rate_coop and a.rate_noncoop == b.rate_noncoop


def test_grid_search_eta_against_oracle():
    args = (0.9999787380676235, 15.288348744652652, 2.4065033112793515, 20e6, 9, 80.54069, 54.45931)
    for mu in (0.0, 1e6, 3e6):
        lib = grid_search_eta(*args, mu)
        ref = oracles.grid_best_eta(*args, mu)
        # the two grids are built with different numpy idioms, so allow one
        # grid spacing of disagreement
        assert lib == approx(ref, abs=1.1e-5)
    assert math.isnan(grid_search_eta(*args, 1e9))


def test_grid_search_breaks_ties_toward_largest_eta():
    # rc == rn: the objective is flat, every point feasible at mu = 0
    assert grid_search_eta(0.5, 2.0, 2.0, 1e6, 9, 10.0, 10.0, 0.0) == 1.0


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def test_grid_search_eta_points_are_linspace_points():
    # unit band and rates: the two floors leave point i the only feasible one
    grid = np.linspace(0.0, 1.0, 100_001)
    for i in [0, 1, 2, 99_998, 99_999, 100_000] + list(range(3, 99_998, 997)):
        assert grid_search_eta(0.5, 1.0, 1.0, 1.0, 1, grid[i], 1.0 - grid[i], 1.0) == grid[i]


_REF_SPLIT = (
    0.9999787380676235, 15.288348744652652, 2.4065033112793515, 20e6, 9, 80.54069, 54.45931
)


def _grid_edge_cases():
    pc, rc, rn, bw, b, nc, nn = _REF_SPLIT
    wb = bw * b
    mu_max = wb / (nc / rc + nn / rn)
    cases = []
    for mu in (0.0, 1e6, 3e6, mu_max * (1 - 1e-9), mu_max * (1 + 1e-9), 1e9):
        variants = [("pc=%g" % p, (p, rc, rn, nc, nn)) for p in (0.0, 1e-9, 1.0)]
        variants += [
            ("rn=rc*(1%+g)" % rel, (pc, rc, rc * (1 + rel), nc, nn))
            for rel in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7)
        ]
        variants += [
            ("bars=%g,%g" % bars, (pc, rc, rn) + bars)
            for bars in ((0.0, nn), (nc, 0.0), (0.0, 0.0))
        ]
        cases += [
            ("%s,mu=%.10g" % (name, mu), (p, r1, r2, bw, b, n1, n2, mu))
            for name, (p, r1, r2, n1, n2) in variants
        ]
    # a floor exactly on grid point i, against either slope
    grid = np.linspace(0.0, 1.0, 100_001)
    for i in (0, 1, 7, 54_321, 99_999, 100_000):
        for r1, r2 in ((rc, rn), (rn, rc)):
            tag = "on-%d,rc=%g" % (i, r1)
            coop_mu, noncoop_mu = wb * grid[i] * r1, wb * (1.0 - grid[i]) * r2
            cases.append(("coop-floor-" + tag, (pc, r1, r2, bw, b, 1.0, 0.0, coop_mu)))
            cases.append(("noncoop-floor-" + tag, (pc, r1, r2, bw, b, 0.0, 1.0, noncoop_mu)))
    return [pytest.param(*args, id=name) for name, args in cases]


@pytest.mark.parametrize("pc, rc, rn, bw, b, nc, nn, mu", _grid_edge_cases())
def test_grid_search_eta_edges_match_the_dense_scan(pc, rc, rn, bw, b, nc, nn, mu):
    args = (pc, rc, rn, bw, b, nc, nn, mu)
    assert _same(grid_search_eta(*args), oracles.dense_grid_search_eta(*args))


@settings(max_examples=300, deadline=None)
@given(
    pc=st.floats(0.0, 1.0),
    rc=st.floats(1e-3, 1e3),
    rn=st.floats(1e-3, 1e3),
    near=st.sampled_from([None, 0.0, 1e-15, -1e-15, 1e-12, -1e-9, 1e-7]),
    n_clusters=st.integers(1, 30),
    nc_bar=st.floats(0.0, 150.0),
    nn_bar=st.floats(0.0, 150.0),
    load=st.floats(0.0, 1.5),
)
def test_grid_search_eta_matches_the_dense_scan(
    pc, rc, rn, near, n_clusters, nc_bar, nn_bar, load
):
    if near is not None:  # rates equal or within rounding of each other
        rn = rc * (1.0 + near)
    need = nc_bar / rc + nn_bar / rn
    mu = load * 20e6 * n_clusters / need if need > 0 else load * 1e6  # load * mu_max
    args = (pc, rc, rn, 20e6, n_clusters, nc_bar, nn_bar, mu)
    assert _same(grid_search_eta(*args), oracles.dense_grid_search_eta(*args))


def test_sim_feasible_cluster_sizes():
    assert sim_feasible_cluster_sizes(135, 15) == [(15, 9)]
    assert sim_feasible_cluster_sizes(64, 15) == [(4, 16), (1, 64)]
    assert sim_feasible_cluster_sizes(7, 15) == [(7, 1)]


def test_sim_feasible_cluster_sizes_tries_each_k_not_each_b(monkeypatch):
    # 15e12 users: a search over B would take hours, one over K <= 15 is instant
    calls = []

    def isqrt(n, _isqrt=math.isqrt):
        calls.append(n)
        assert len(calls) <= 15, "more square roots than cluster sizes"
        return _isqrt(n)

    monkeypatch.setattr(math, "isqrt", isqrt)
    assert sim_feasible_cluster_sizes(15 * 10**12, 15) == [(15, 10**12)]


def test_write_csv_deterministic_bytes(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        {"a": 1, "b": 0.5, "c": True, "d": "label"},
        {"a": 2, "b": 1.0 / 3.0, "c": False, "d": "x"},
    ]
    assert write_csv(path, "unit_test.v7", rows) == path
    first = path.read_bytes()
    write_csv(path, "unit_test.v7", rows)
    assert path.read_bytes() == first
    text = first.decode()
    assert text.startswith("# schema=coopd2d.unit_test.v7\na,b,c,d\n")
    assert "0.3333333333333333" in text  # full-precision float repr
    assert ",true," in text and ",false," in text


@pytest.mark.parametrize(
    "run, command, schema, header",
    [
        (
            cmd_optimize_cluster,
            "optimize-cluster",
            "cluster_profile.v2",
            "beta,n_users,users_per_cluster,objective_links,k_star",
        ),
        (
            cmd_optimize_bandwidth,
            "optimize-bandwidth",
            "bandwidth_split.v4",
            "beta,mu_bps,pc,rate_coop,rate_noncoop,nc_bar,nn_bar,eta_star,"
            "eta_star_grid,feasible,binding,throughput_bps,mu_max_bps",
        ),
        (
            cmd_compare,
            "compare",
            "strategy_compare.v6",
            "strategy,beta,users_per_cluster,n_clusters,eta,trials,"
            "throughput_mean_bps,throughput_ci95_bps,mode1_frequency,mean_coop,"
            "mean_noncoop,mean_cellular,user_coop_bps,user_noncoop_bps,"
            "discarded_trials,degenerate_mode1_trials,dropped_link_fraction,"
            "silent_cluster_fraction",
        ),
        (
            cmd_simulate,
            "simulate",
            "campaign_trials.v6",
            "strategy,beta,K,B,eta,trial,mode,throughput_bps,n_coop,n_noncoop,"
            "n_cellular,dropped_links,degenerate,silent_clusters,discarded",
        ),
    ],
    ids=["cluster_profile", "bandwidth_split", "strategy_compare", "campaign_trials"],
)
def test_csv_schema_and_header_lines(tmp_path, monkeypatch, run, command, schema, header):
    # without --out each command writes <schema name>.csv in the working directory
    monkeypatch.chdir(tmp_path)
    path = run(ExperimentSpec(command=command, trials=2))
    assert path == schema.split(".")[0] + ".csv"
    lines = (tmp_path / path).read_text().splitlines()
    assert lines[:2] == ["# schema=coopd2d." + schema, header]


def test_cmd_optimize_cluster_sweep(tmp_path):
    out = tmp_path / "profile.csv"
    spec = ExperimentSpec(
        command="optimize-cluster",
        sweep_name="beta",
        sweep_values=(0.6, 1.0),
        out=str(out),
    )
    assert cmd_optimize_cluster(spec) == str(out)
    schema, header, rows = read_csv(out)
    assert schema == "# schema=coopd2d.cluster_profile.v2"
    assert header == ["beta", "n_users", "users_per_cluster", "objective_links", "k_star"]
    assert len(rows) == 2 * 15  # full profile per beta
    for beta, k_star in (("0.6", "12"), ("1.0", "6")):
        block = [r for r in rows if r["beta"] == beta]
        assert {r["k_star"] for r in block} == {k_star}
        best = max(block, key=lambda r: float(r["objective_links"]))
        assert best["users_per_cluster"] == k_star


def test_cmd_optimize_cluster_single_point(tmp_path):
    out = tmp_path / "single.csv"
    spec = ExperimentSpec(
        command="optimize-cluster",
        sweep_name="n_users",
        sweep_values=(15,),
        out=str(out),
    )
    cmd_optimize_cluster(spec)
    _, _, rows = read_csv(out)
    assert len(rows) == 15
    assert all(r["n_users"] == "15" for r in rows)


def test_cmd_optimize_bandwidth_mu_sweep(tmp_path):
    out = tmp_path / "split.csv"
    spec = ExperimentSpec(
        command="optimize-bandwidth",
        sweep_name="mu_bps",
        sweep_values=(0.0, 1e6, 2e6, 4e6),
        out=str(out),
    )
    cmd_optimize_bandwidth(spec)
    _, _, rows = read_csv(out)
    assert len(rows) == 4
    assert rows[0]["eta_star"] == "1.0"  # no floor: whole band cooperative
    stars = [float(r["eta_star"]) for r in rows if r["feasible"] == "true"]
    assert stars == sorted(stars, reverse=True)  # tighter floors shrink eta
    for r in rows:
        if r["feasible"] == "true":
            assert abs(float(r["eta_star"]) - float(r["eta_star_grid"])) <= 1e-4
        else:
            assert r["eta_star"] == "nan"


def test_cmd_optimize_bandwidth_beta_sweep(tmp_path):
    out = tmp_path / "split_beta.csv"
    spec = ExperimentSpec(
        command="optimize-bandwidth",
        sweep_name="beta",
        sweep_values=(0.0, 0.4, 0.8, 1.2),
        out=str(out),
    )
    cmd_optimize_bandwidth(spec)
    _, _, rows = read_csv(out)
    # stronger skew concentrates users on the cooperative class, which earns
    # the larger share
    stars = [float(r["eta_star"]) for r in rows]
    assert all(r["feasible"] == "true" for r in rows)
    assert np.all(np.diff(stars) >= 0.0), stars
    pcs = [float(r["pc"]) for r in rows]
    assert np.all(np.diff(pcs) > 0.0)


def test_cmd_optimize_bandwidth_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rerun.csv"
    spec = ExperimentSpec(command="optimize-bandwidth", out=str(out))
    cmd_optimize_bandwidth(spec)
    first = out.read_bytes()
    cmd_optimize_bandwidth(spec)
    assert out.read_bytes() == first


_SPLIT_BETAS = (0.0, 0.6, 1, 1.7)
# 0 and 0.0, ints, and floors no split meets (8e6 above beta <= 1's mu_max)
_SPLIT_MUS = (0, 0.0, 250_000, 1e6, 2_000_000, 3.5e6, 8e6, 2e7)


def test_cmd_optimize_bandwidth_runs_the_chain_once_per_beta(tmp_path, monkeypatch):
    calls = []
    point = experiments.analytic_point
    monkeypatch.setattr(
        experiments, "analytic_point", lambda spec: calls.append(spec.beta) or point(spec)
    )
    spec = ExperimentSpec(
        command="optimize-bandwidth",
        sweep_name="mu_bps",
        sweep_values=_SPLIT_MUS,
        out=str(tmp_path / "split.csv"),
    )
    for beta in _SPLIT_BETAS:
        cmd_optimize_bandwidth(replace(spec, beta=beta))
        assert len(read_csv(tmp_path / "split.csv")[2]) == len(_SPLIT_MUS)
    assert calls == list(_SPLIT_BETAS)


def test_cmd_optimize_bandwidth_rows_match_the_point_at_each_floor(tmp_path):
    spec = ExperimentSpec(command="optimize-bandwidth", sweep_name="mu_bps", sweep_values=_SPLIT_MUS)
    feasible = set()
    for beta in _SPLIT_BETAS:
        out = tmp_path / ("split_%r.csv" % beta)
        cmd_optimize_bandwidth(replace(spec, beta=beta, out=str(out)))
        _, _, rows = read_csv(out)
        assert len(rows) == len(_SPLIT_MUS)
        for mu, row in zip(_SPLIT_MUS, rows):
            pt = analytic_point(replace(spec, beta=beta, mu_bps=mu))
            sol = pt.solution
            grid = grid_search_eta(
                pt.pc, pt.rate_coop, pt.rate_noncoop, spec.bandwidth_hz,
                pt.plan.n_clusters, pt.nc_bar, pt.nn_bar, float(mu),
            )
            floats = (
                beta, mu, pt.pc, pt.rate_coop, pt.rate_noncoop, pt.nc_bar, pt.nn_bar,
                sol.eta_star, grid, sol.objective, sol.mu_max,
            )
            expected = [repr(float(v)) for v in floats]
            expected[9:9] = ["true" if sol.feasible else "false", sol.binding]
            assert list(row.values()) == expected
            feasible.add(sol.feasible)
    assert feasible == {True, False}


def test_cmd_simulate_emits_per_trial_rows(tmp_path):
    out = tmp_path / "trials.csv"
    spec = ExperimentSpec(command="simulate", trials=40, out=str(out))
    cmd_simulate(spec)
    schema, header, rows = read_csv(out)
    assert schema == "# schema=coopd2d.campaign_trials.v6"
    assert len(rows) == 40
    assert [r["trial"] for r in rows] == [str(t) for t in range(40)]
    assert {r["strategy"] for r in rows} == {"coop"}
    assert {r["K"] for r in rows} == {"15"}
    assert {r["B"] for r in rows} == {"9"}
    # the optimized split of the reference point was applied
    assert rows[0]["eta"] == "0.8743356794583542"
    for r in rows:
        total = int(r["n_coop"]) + int(r["n_noncoop"]) + int(r["n_cellular"])
        assert total == 135


def test_cmd_simulate_fixed_eta_and_strategy(tmp_path):
    out = tmp_path / "nocoop.csv"
    spec = ExperimentSpec(
        command="simulate",
        strategy="nocoop",
        trials=10,
        out=str(out),
    )
    cmd_simulate(spec)
    _, _, rows = read_csv(out)
    assert {r["eta"] for r in rows} == {"0.0"}


def test_cmd_compare_smoke(tmp_path):
    out = tmp_path / "compare.csv"
    spec = ExperimentSpec(
        command="compare",
        trials=10,
        out=str(out),
    )
    cmd_compare(spec)
    schema, header, rows = read_csv(out)
    assert schema == "# schema=coopd2d.strategy_compare.v6"
    assert [r["strategy"] for r in rows] == [
        "optimized", "eta0.5", "etaK", "nocoop", "tdma",
    ]
    # the reference population admits a single grid-feasible factorization,
    # so every strategy runs 15-user clusters here
    assert {r["users_per_cluster"] for r in rows} == {"15"}
    for r in rows:
        assert float(r["throughput_mean_bps"]) > 0.0


def test_compare_runs_every_strategy_at_each_beta(tmp_path):
    spec = ExperimentSpec(
        command="compare",
        trials=4,
        sweep_name="beta",
        sweep_values=(0.0, 1.0),
        out=str(tmp_path / "compare.csv"),
    )
    cmd_compare(spec)
    rows = read_csv(tmp_path / "compare.csv")[2]
    assert [(r["beta"], r["strategy"]) for r in rows] == [
        (beta, strategy) for beta in ("0.0", "1.0")
        for strategy in ("optimized", "eta0.5", "etaK", "nocoop", "tdma")
    ]


def test_cmd_validate_default_passes():
    lines = []
    spec = ExperimentSpec(command="validate")
    assert cmd_validate(spec, report=lines.append) is True
    assert lines[-1] == "validation passed (12 gated checks)"
    assert sum(line.startswith("PASS ") for line in lines) == 12
    assert not any(line.startswith("FAIL ") for line in lines)
    assert any(line.startswith("PASS popularity-normalization") for line in lines)
    (info,) = [line for line in lines if line.startswith("INFO link-rate-gap")]
    ratios = [float(r) for r in re.findall(r"\(ratio ([^)]+)\)", info)]
    assert len(ratios) == 2
    # the line may only call the ratios below 1 when both printed ones are
    assert "below 1" not in info or max(ratios) < 1.0


def test_validate_snapshot_gates_ignore_the_seed():
    spec = ExperimentSpec(command="validate")
    records = _snapshot_checks(spec, 300)
    assert [name for name, _, _ in records] == ["mode-frequency", "coop-count"]
    assert _snapshot_checks(replace(spec, seed=7), 300) == records


def test_link_rate_gap_is_reproducible():
    spec = ExperimentSpec(command="simulate", trials=20, seed=3)
    config = campaign_config(spec, analytic_point(spec), "coop", 0.5)
    gap = link_rate_gap(config)
    assert link_rate_gap(config) == gap
    zf_mean, zf_links, nc_mean, nc_links = gap
    assert 0 < zf_links <= 9 * 20 and 0 < nc_links <= 9 * 20
    assert zf_mean > nc_mean > 0.0
