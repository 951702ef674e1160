"""Closed-form bandwidth split against its defining program."""

import math

import numpy as np
import pytest
from pytest import approx

from coopd2d.bandwidth import optimize_eta
from coopd2d.errors import ConfigurationError
from coopd2d.rates import network_throughput

import oracles

# reference operating point (frozen analytic pipeline outputs)
REF = dict(
    pc=0.9999787380676235,
    rc=15.288348744652652,
    rn=2.4065033112793515,
    bandwidth_hz=20e6,
    n_clusters=9,
    nc_bar=80.54069,
    nn_bar=54.45931,
)


def test_reference_split_frozen():
    solution = optimize_eta(mu=1e6, **REF)
    assert solution.feasible
    assert solution.eta_star == approx(0.8742774544276946, rel=1e-12)
    assert solution.binding == "noncoop-constraint"
    assert solution.mu_max == approx(6452036.712103439, rel=1e-12)
    assert solution.objective == approx(2460342759.6040964, rel=1e-12)


def test_no_floor_takes_whole_band():
    solution = optimize_eta(mu=0.0, **REF)
    assert solution.eta_star == 1.0
    assert solution.binding == "upper-bound"
    assert solution.objective == approx(
        network_throughput(REF["pc"], 1.0, REF["rc"], REF["rn"], 20e6, 9), rel=1e-15
    )


def test_equal_rates_prefer_largest_feasible():
    # flat objective: the documented tie-break picks the largest eta
    solution = optimize_eta(0.9, 2.0, 2.0, 1e6, 9, 40.0, 40.0, mu=50.0)
    hi = 1.0 - 50.0 * 40.0 / (9e6 * 2.0)
    assert solution.feasible
    assert solution.eta_star == approx(hi, rel=1e-12)
    assert solution.binding == "noncoop-constraint"


def test_slower_coop_rate_pushes_eta_down():
    solution = optimize_eta(0.9, 1.0, 3.0, 1e6, 9, 40.0, 40.0, mu=50.0)
    lo = 50.0 * 40.0 / (9e6 * 1.0)
    assert solution.eta_star == approx(lo, rel=1e-12)
    assert solution.binding == "coop-constraint"


def test_floor_tightening_shrinks_eta():
    loose = optimize_eta(mu=1e6, **REF)
    tight = optimize_eta(mu=2e6, **REF)
    assert tight.feasible
    assert tight.eta_star < loose.eta_star


def test_feasible_solution_satisfies_constraints():
    for mu in (0.0, 5e5, 1e6, 3e6, 6e6):
        solution = optimize_eta(mu=mu, **REF)
        assert solution.feasible
        wb = REF["bandwidth_hz"] * REF["n_clusters"]
        eta = solution.eta_star
        assert wb * eta * REF["rc"] >= mu * REF["nc_bar"] * (1.0 - 1e-9)
        assert wb * (1.0 - eta) * REF["rn"] >= mu * REF["nn_bar"] * (1.0 - 1e-9)
        assert solution.objective == approx(
            network_throughput(REF["pc"], eta, REF["rc"], REF["rn"], 20e6, 9),
            rel=1e-15,
        )


def test_infeasible_floor_reports_violated_bound():
    solution = optimize_eta(mu=7e6, **REF)  # above mu_max
    assert not solution.feasible
    assert math.isnan(solution.eta_star)
    assert math.isnan(solution.objective)
    assert solution.binding in ("coop-constraint", "noncoop-constraint")
    assert solution.mu_max == approx(6452036.712103439, rel=1e-12)
    # a floor only the cooperative class can violate
    coop_only = optimize_eta(0.9, 0.5, 50.0, 1e6, 9, 100.0, 1.0, mu=1e5)
    assert not coop_only.feasible
    assert coop_only.binding == "coop-constraint"


def test_mu_max_marks_the_feasibility_edge():
    solution = optimize_eta(mu=1e6, **REF)
    below = optimize_eta(mu=solution.mu_max * (1.0 - 1e-9), **REF)
    above = optimize_eta(mu=solution.mu_max * (1.0 + 1e-9), **REF)
    assert below.feasible
    assert not above.feasible


def test_feasibility_monotone_in_floor():
    rng = np.random.default_rng(0xFEA51B)
    for _ in range(50):
        pc = rng.uniform(0.05, 1.0)
        rc, rn = rng.uniform(0.05, 25.0, size=2)
        nc, nn = rng.uniform(0.5, 120.0, size=2)
        base = optimize_eta(pc, rc, rn, 20e6, 9, nc, nn, mu=0.0)
        mus = np.sort(rng.uniform(0.0, 2.0 * base.mu_max, size=6))
        feas = [optimize_eta(pc, rc, rn, 20e6, 9, nc, nn, mu=m).feasible for m in mus]
        assert feas == sorted(feas, reverse=True), (mus, feas)


def test_vacuous_constraints():
    # no cooperative users: only the non-cooperative floor binds
    solution = optimize_eta(0.9, 15.0, 2.4, 20e6, 9, 0.0, 54.0, mu=1e6)
    assert solution.feasible
    # no users at all: any floor is satisfiable
    empty = optimize_eta(0.9, 15.0, 2.4, 20e6, 9, 0.0, 0.0, mu=1e9)
    assert empty.feasible
    assert empty.mu_max == math.inf


def test_zero_rate_with_positive_floor_is_infeasible():
    solution = optimize_eta(0.9, 0.0, 2.4, 20e6, 9, 10.0, 54.0, mu=1e6)
    assert not solution.feasible


def test_input_validation():
    with pytest.raises(ValueError):
        optimize_eta(-0.1, 15.0, 2.4, 20e6, 9, 80.0, 54.0, mu=1e6)
    with pytest.raises(ValueError):
        optimize_eta(0.9, 15.0, 2.4, 0.0, 9, 80.0, 54.0, mu=1e6)
    # each derived input is refused by name, also where the floor is infeasible;
    # a bool is no number here, as for every named quantity
    for name, args in (
        ("pc", (1.5, 10.0, 2.0, 1.0, 1.0)),
        ("pc", (True, 10.0, 2.0, 1.0, 1.0)),
        ("rc", (0.5, math.nan, 2.0, 1.0, 1.0)),
        ("rn", (0.5, 10.0, -1.0, 1.0, 1.0)),
        ("nc_bar", (0.5, 10.0, 2.0, math.inf, 1.0)),
        ("nn_bar", (0.5, 10.0, 2.0, 1.0, math.nan)),
    ):
        pc, rc, rn, nc, nn = args
        with pytest.raises(ConfigurationError, match="^%s must" % name):
            optimize_eta(pc, rc, rn, 20e6, 9, nc, nn, mu=1e12)


def test_closed_form_matches_grid_oracle_sample():
    # light version of the acceptance sweep: 100 random instances
    rng = np.random.default_rng(0x9121D)
    for _ in range(100):
        pc = rng.uniform(0.05, 1.0)
        rc, rn = rng.uniform(0.05, 25.0, size=2)
        nc, nn = rng.uniform(0.5, 120.0, size=2)
        mu_max = optimize_eta(pc, rc, rn, 20e6, 9, nc, nn, mu=0.0).mu_max
        mu = rng.uniform(0.0, 1.5 * mu_max)
        solution = optimize_eta(pc, rc, rn, 20e6, 9, nc, nn, mu=mu)
        grid = oracles.dense_grid_search_eta(pc, rc, rn, 20e6, 9, nc, nn, mu)
        if not solution.feasible:
            assert math.isnan(grid)
        elif math.isnan(grid):
            # a feasible sliver narrower than the grid spacing can hide
            wb = 20e6 * 9
            width = min(1.0 - mu * nn / (wb * rn), 1.0) - mu * nc / (wb * rc)
            assert 0.0 <= width < 2e-5, (solution, width)
        else:
            assert abs(solution.eta_star - grid) <= 1e-4, (solution, grid)
