"""User-class populations: closed form, exact enumeration, snapshots, class split."""

import math

import pytest
from pytest import approx

from coopd2d import ExperimentSpec, analytic_point, population
from coopd2d.bandwidth import optimize_eta
from coopd2d.catalog import build_popularity, cumulative_cached_prob
from coopd2d.clusters import (
    ClusterPlan,
    coop_probability,
    expected_active_coop,
    make_plan,
    optimize_cluster_size,
)
from coopd2d.errors import CoopD2DError, EnumerationBudgetError
from coopd2d.geometry import interference_pdf, path_gain_moments, signal_pdf
from coopd2d.netsim import SimConfig, link_rate_gap, snapshot_counts
from coopd2d.population import expected_coop_users_closed, expected_coop_users_exact
from coopd2d.rates import RadioParams, coop_link_rate, network_throughput

import oracles


def sim_config(model, **changes):
    """A 4-cluster, 2-user campaign on ``model`` with ``changes`` applied."""
    radio = analytic_point(ExperimentSpec(command="simulate")).radio
    fields = dict(
        plan=make_plan(75.0, 4, 2), radio=radio, popularity=model,
        strategy="coop", trials=10, seed=1, eta=0.5,
    )
    return SimConfig(**{**fields, **changes})


def test_exact_two_cluster_single_user(two_group):
    assert expected_coop_users_exact(two_group, 1, 2) == approx(0.98, rel=1e-12)
    summary = expected_coop_users_closed(two_group, 1, 2)
    assert summary.coop_mean == approx(0.98, rel=1e-12)
    assert summary.cellular_mean == approx(0.6, rel=1e-12)
    assert summary.noncoop_mean == approx(0.42, rel=1e-12)
    assert summary.coop_mean + summary.cellular_mean + summary.noncoop_mean == approx(
        2.0, abs=1e-9
    )


def test_exact_degenerate_single_cluster():
    model = oracles.make_synthetic_model([1.0])
    assert expected_coop_users_exact(model, 1, 1) == 1.0
    summary = expected_coop_users_closed(model, 1, 1)
    assert summary.coop_mean == 1.0
    assert summary.cellular_mean == 0.0
    assert summary.noncoop_mean == 0.0


def test_exact_matches_brute_force_small():
    model = build_popularity(60, 20, 1.0)
    for k, b in ((1, 2), (2, 2), (3, 2), (2, 3)):
        lib = expected_coop_users_exact(model, k, b)
        assert lib == oracles.brute_force_coop_mean(model, k, b)  # bit-for-bit


def test_exact_matches_linearity_closed_form():
    model = build_popularity(40, 20, 1.0)
    exact = expected_coop_users_exact(model, 2, 2)
    assert exact == approx(3.4647956692347037, rel=1e-15)
    assert exact == approx(
        oracles.closed_form_coop_mean(model, 2, 2), rel=1e-12
    )


def test_closed_form_matches_enumeration_and_oracle():
    model = build_popularity(60, 20, 1.0)
    for k, b in ((1, 2), (2, 2), (3, 2), (2, 3), (3, 4)):
        closed = expected_coop_users_closed(model, k, b)
        exact = expected_coop_users_exact(model, k, b)
        cellular = k * b * (1.0 - cumulative_cached_prob(model, k))
        assert closed.coop_mean == approx(exact, rel=1e-12)
        assert closed.noncoop_mean == approx(k * b - exact - cellular, rel=1e-12)
        assert closed.cellular_mean == cellular
        assert closed.coop_mean == approx(
            oracles.closed_form_coop_mean(model, k, b), rel=1e-15
        )


def snapshot_coop_mean(config):
    """Mean and standard error of the cooperative count over ``config``'s snapshots."""
    _, coops = snapshot_counts(config)
    return float(coops.mean()), float(coops.std(ddof=1)) / math.sqrt(coops.size)


def test_closed_form_covers_the_full_size_catalog(ref_model, ref_plan):
    # far past the enumeration budget; the simulator's snapshots bracket it
    closed = expected_coop_users_closed(ref_model, 15, 9)
    mean, se = snapshot_coop_mean(
        sim_config(ref_model, plan=ref_plan, trials=20_000, seed=5)
    )
    assert abs(closed.coop_mean - mean) <= 3.0 * se
    total = closed.coop_mean + closed.cellular_mean + closed.noncoop_mean
    assert total == approx(135.0, abs=1e-9)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: expected_coop_users_closed(m, 3, 2),
        lambda m: expected_coop_users_exact(m, 0, 2),
        lambda m: expected_coop_users_exact(m, 1, 0),
        lambda m: expected_coop_users_closed(m, 1, 0),
        lambda m: optimize_eta(1.5, 10.0, 2.0, 20e6, 9, 1.0, 1.0, 1e12),
        lambda m: path_gain_moments(-1.0, 0.1),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, 9, 80.0, -1.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, 0, 80.0, 50.0, 1e6),
        lambda m: cumulative_cached_prob(m, 3),
        lambda m: coop_probability(m, 1, 0),
        lambda m: expected_active_coop(m, 1, 2),
        lambda m: optimize_cluster_size(m, 0),
        lambda m: signal_pdf(-1.0),
        lambda m: interference_pdf([0.5, -0.5]),
        lambda m: signal_pdf(math.nan),
        lambda m: interference_pdf([0.5, math.nan]),
        lambda m: path_gain_moments(math.inf, 0.04),
        lambda m: path_gain_moments(1e308, 0.04),
        lambda m: coop_link_rate(path_gain_moments(3.68, 0.04), None, 25.0, 0),
        lambda m: coop_link_rate(path_gain_moments(3.68, 0.04), None, 0.0, 9),
        lambda m: network_throughput(0.5, 1.5, 10.0, 2.0, 20e6, 9),
        lambda m: network_throughput(-0.1, 0.5, 10.0, 2.0, 20e6, 9),
        lambda m: sim_config(m, trials=2.5),
        lambda m: sim_config(m, trials=True),
        lambda m: sim_config(m, seed=-1),
        lambda m: sim_config(m, min_pairing_distance_m=math.nan),
        lambda m: snapshot_counts(sim_config(m, trials=0)),
        lambda m: link_rate_gap(sim_config(m, trials=0)),
        lambda m: build_popularity(300, 20, "1"),
        lambda m: build_popularity(300.0, 20, 1.0),
        lambda m: ClusterPlan(75.0, "9", 15),
        lambda m: expected_coop_users_closed(build_popularity(300, 20, 1.0), 2.5, 4),
        lambda m: build_popularity(300, 20, math.inf),
        lambda m: build_popularity(True, 1, 1.0),
        lambda m: make_plan(math.inf, 9, 15),
        lambda m: make_plan(75, 9.5, 15),
        lambda m: RadioParams(20.0, -95.0, 37.6, math.nan, 20e6),
        lambda m: RadioParams(20.0, -95.0, 37.6, 3.68, -1),
        lambda m: coop_probability(m, 1, math.nan),
        lambda m: optimize_eta(0.5, 10.0, 2.0, math.nan, 9, 80.0, 50.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, "9", 80.0, 50.0, 1e6),
        lambda m: coop_probability(m, 1, "2"),
        lambda m: coop_probability(m, 1, math.inf),
        lambda m: cumulative_cached_prob(m, 1.5),
        lambda m: cumulative_cached_prob(m, "1"),
        lambda m: cumulative_cached_prob(m, True),
        lambda m: optimize_eta(math.nan, 10.0, 2.0, 20e6, 9, 1.0, 1.0, 1e12),
        lambda m: optimize_eta(0.5, math.nan, 2.0, 20e6, 9, 1.0, 1.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, math.inf, 20e6, 9, 1.0, 1.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, 9, math.inf, 1.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, 9, math.nan, 1.0, 1e6),
        lambda m: optimize_eta(0.5, 10.0, 2.0, 20e6, 9, 1.0, math.nan, 1e6),
        lambda m: network_throughput(0.5, 0.5, math.nan, 2.0, 20e6, 9),
        lambda m: network_throughput(0.5, 0.5, 10.0, math.inf, 20e6, 9),
        lambda m: network_throughput(0.5, 0.5, -1.0, 2.0, 20e6, 9),
    ],
)
def test_api_argument_errors_are_package_errors(two_group, call):
    with pytest.raises(CoopD2DError):
        call(two_group)


def test_exact_budget_refusal(ref_model, monkeypatch):
    with pytest.raises(EnumerationBudgetError):
        expected_coop_users_exact(ref_model, 15, 9)
    small = build_popularity(60, 20, 1.0)  # multichoose(3, 3) ** 2 = 100 terms
    expected_coop_users_exact(small, 3, 2)
    monkeypatch.setattr(population, "_ENUMERATION_BUDGET", 10)
    with pytest.raises(EnumerationBudgetError):
        expected_coop_users_exact(small, 3, 2)


def test_exact_input_checks(two_group):
    with pytest.raises(ValueError):
        expected_coop_users_exact(two_group, 0, 2)
    with pytest.raises(ValueError):
        expected_coop_users_exact(two_group, 3, 2)
    with pytest.raises(ValueError):
        expected_coop_users_exact(two_group, 1, 0)


def test_coop_mean_nondecreasing_in_skew(ref_plan):
    # larger skew concentrates requests on cached groups; verified CI-aware
    means = []
    errs = []
    for beta in (0.0, 0.3, 0.6, 0.9, 1.2):
        model = build_popularity(300, 20, beta)
        mean, se = snapshot_coop_mean(
            sim_config(model, plan=ref_plan, trials=20_000, seed=0xBE7A)
        )
        means.append(mean)
        errs.append(se)
    for i in range(len(means) - 1):
        assert means[i + 1] - means[i] > -3.0 * math.hypot(errs[i], errs[i + 1]), (
            means,
            errs,
        )


def test_cellular_and_noncoop_split():
    # the closed route states the class split once: the cellular mean is the
    # uncached mass bit for bit, the three means sum to M, none is negative
    cases = [(build_popularity(300, 20, beta), k, b)
             for beta in (0.0, 0.5, 1.0) for k, b in ((1, 1), (2, 4), (15, 9))]
    cases.append((oracles.make_synthetic_model([1.0]), 1, 1))
    for model, k, b in cases:
        split = expected_coop_users_closed(model, k, b)
        assert split.cellular_mean == k * b * (1.0 - cumulative_cached_prob(model, k))
        assert split.coop_mean + split.cellular_mean + split.noncoop_mean == approx(k * b, abs=1e-9)
        assert split.noncoop_mean >= 0.0
    # a remainder that roundoff puts below zero is clamped to zero
    split = expected_coop_users_closed(build_popularity(300, 20, 0.0), 3, 1)
    assert 3 - split.coop_mean - split.cellular_mean < 0.0
    assert split.noncoop_mean == 0.0


def test_cellular_vanishes_when_catalog_fully_cached(ref_model):
    assert expected_coop_users_closed(ref_model, 15, 9).cellular_mean == approx(0.0, abs=1e-9)
