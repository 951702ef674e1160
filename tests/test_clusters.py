"""Cluster planning, hit/cooperation probabilities, and the cluster-size search."""

import numpy as np
import pytest
from pytest import approx

from coopd2d.catalog import build_popularity
from coopd2d.clusters import (
    coop_probability,
    expected_active_coop,
    hit_probability,
    make_plan,
    optimize_cluster_size,
)
from coopd2d.errors import ConfigurationError

import oracles


def test_make_plan_reference():
    plan = make_plan(75.0, 9, 15)
    assert plan.cluster_side_m == 25.0
    assert plan.n_users == 135
    assert plan.hotspot_side_m == 75.0


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        make_plan(75.0, 0, 15)
    with pytest.raises(ConfigurationError):
        make_plan(-1.0, 9, 15)


def test_hit_probability_single_user_is_group_prob(ref_model):
    np.testing.assert_allclose(
        hit_probability(ref_model, 1), ref_model.group_probs[:1], rtol=1e-13
    )


def test_hit_probability_uniform(uniform_model):
    hit = hit_probability(uniform_model, 15)
    expected = 1.0 - (1.0 - 1.0 / 15.0) ** 15
    assert hit.shape == (15,)
    np.testing.assert_allclose(hit, expected, rtol=1e-12)
    assert expected == approx(0.6447, abs=5e-5)


def test_hit_probability_reference_top_group(ref_model):
    hit = hit_probability(ref_model, 15)
    assert float(hit[0]) == approx(0.999997, abs=5e-7)
    assert np.all(np.diff(hit) < 0.0)  # ranked groups stay ranked


def test_hit_probability_grows_with_cluster_size(ref_model):
    # P(group 0 hit) is monotone in the number of requesting users
    values = [float(hit_probability(ref_model, k)[0]) for k in range(1, 16)]
    assert np.all(np.diff(values) > 0.0)


def test_hit_probability_range_check(ref_model):
    with pytest.raises(ValueError):
        hit_probability(ref_model, 0)
    with pytest.raises(ValueError):
        hit_probability(ref_model, 16)


def test_coop_probability_two_group_example(two_group):
    # hand expansion: hit = (0.91, 0.51); 1 - (1 - .91^2)(1 - .51^2)
    hand = 1.0 - (1.0 - 0.91**2) * (1.0 - 0.51**2)
    pc = coop_probability(two_group, 2, 2)
    assert pc == approx(0.8728, abs=5e-5)
    assert pc == approx(hand, rel=1e-12)
    assert pc == approx(0.8728111899999998, rel=1e-13)


def test_coop_probability_single_cluster_whole_catalog(ref_model):
    # one cluster, every group cached: some group is always requested
    assert coop_probability(ref_model, 15, 1) == approx(1.0, abs=1e-7)


def test_coop_probability_reference_frozen(ref_model):
    assert coop_probability(ref_model, 15, 9) == approx(0.9999787380676235, rel=1e-12)


def test_coop_probability_monotone_in_cluster_size(ref_model):
    # at fixed M, enlarging clusters raises the cooperation chance
    values = [coop_probability(ref_model, k, 135.0 / k) for k in range(1, 16)]
    assert np.all(np.diff(values) > 0.0)


def test_coop_probability_accepts_real_cluster_counts(ref_model):
    # the analytic search evaluates non-integer B = M / K
    a = coop_probability(ref_model, 4, 33.75)
    assert 0.0 < a < 1.0
    with pytest.raises(ValueError):
        coop_probability(ref_model, 4, 0.5)


def test_expected_active_coop_examples(ref_model, two_group):
    assert expected_active_coop(two_group, 4, 2) == approx(1.7456, abs=5e-5)
    assert expected_active_coop(ref_model, 15, 15) == approx(1.0, abs=1e-7)
    assert expected_active_coop(ref_model, 135, 15) == approx(
        9.0 * coop_probability(ref_model, 15, 9.0), rel=1e-12
    )


def test_optimize_cluster_size_trivial_and_profile(ref_model):
    k_star, objective, profile = optimize_cluster_size(ref_model, 1)
    assert (k_star, objective) == (1, approx(float(ref_model.group_probs[0])))

    k_star, objective, profile = optimize_cluster_size(ref_model, 135)
    assert profile.shape == (15, 2)
    assert list(profile[:, 0]) == list(range(1, 16))
    best = int(np.argmax(profile[:, 1]))
    assert k_star == int(profile[best, 0])
    assert objective == float(profile[best, 1])
    # profile values re-derived through the chained public operations
    for k, value in profile:
        assert value == approx(expected_active_coop(ref_model, 135, int(k)), rel=1e-12)


def test_optimize_cluster_size_two_group_oracle(two_group):
    _, _, profile = optimize_cluster_size(two_group, 4)
    for k, value in profile:
        b = 4.0 / k
        hit = 1.0 - (1.0 - two_group.group_probs[: int(k)]) ** int(k)
        pc = 1.0 - np.prod(1.0 - hit**b)
        assert value == approx(b * pc, rel=1e-12)


def test_optimal_size_reaches_catalog_at_large_populations(ref_model):
    # K* climbs with M and saturates at the group count once the cluster
    # count per size is large enough that cooperation is near-certain anyway
    stars = [optimize_cluster_size(ref_model, m)[0] for m in (135, 13_500, 1_000_000)]
    assert np.all(np.diff(stars) >= 0)
    assert stars[-1] == 15


def test_optimal_size_nonincreasing_in_skew():
    for m in (45, 135, 450):
        stars = [
            optimize_cluster_size(build_popularity(300, 20, beta), m)[0]
            for beta in (0.6, 0.8, 1.0, 1.2)
        ]
        assert np.all(np.diff(stars) <= 0), (m, stars)


def test_optimize_cluster_size_input_check(ref_model):
    with pytest.raises(ValueError):
        optimize_cluster_size(ref_model, 0)
