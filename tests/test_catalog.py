"""Catalog construction: Zipf group probabilities and the cached-mass prefix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from coopd2d.catalog import build_popularity, cumulative_cached_prob
from coopd2d.errors import ConfigurationError

import oracles


def test_uniform_catalog_has_equal_groups():
    model = build_popularity(300, 20, 0.0)
    assert model.group_count == 15
    assert np.all(model.group_probs == 1.0 / 15.0)


def test_reference_skew_values():
    model = build_popularity(300, 20, 1.0)
    assert float(model.group_probs[0]) == approx(0.5726, abs=1e-4)
    assert float(model.group_probs[1]) == approx(0.1084, abs=1e-4)
    # frozen full-precision values, cross-checked against the rational oracle
    assert float(model.group_probs[0]) == approx(0.5726455729113703, rel=1e-13)
    assert float(model.group_probs[1]) == approx(0.10836221621333006, rel=1e-13)


def test_group_probs_match_rational_oracle():
    for n_files, cache, beta in ((300, 20, 1.0), (300, 20, 0.78), (120, 10, 2.3)):
        model = build_popularity(n_files, cache, beta)
        expected = oracles.zipf_group_probs(n_files, cache, beta)
        np.testing.assert_allclose(model.group_probs, expected, rtol=1e-13)


def test_whole_catalog_cached_is_certain():
    model = build_popularity(20, 20, 1.0)
    assert model.group_count == 1
    assert float(model.group_probs[0]) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    cache=st.integers(min_value=1, max_value=30),
    groups=st.integers(min_value=1, max_value=40),
    beta=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_normalization_property(cache, groups, beta):
    model = build_popularity(cache * groups, cache, beta)
    assert abs(math.fsum(model.group_probs) - 1.0) < 1e-12
    assert np.all(model.group_probs > 0.0)


def test_probabilities_strictly_decrease_with_rank():
    for beta in (0.1, 0.78, 1.0, 2.0):
        model = build_popularity(300, 20, beta)
        assert np.all(np.diff(model.group_probs) < 0.0)
    flat = build_popularity(300, 20, 0.0)
    assert np.all(np.diff(flat.group_probs) == 0.0)


def test_skew_concentrates_mass_on_first_group():
    masses = [
        float(build_popularity(300, 20, beta).group_probs[0])
        for beta in (0.0, 0.4, 0.78, 1.0, 1.4)
    ]
    assert np.all(np.diff(masses) > 0.0)


def test_cumulative_cached_prob_examples(ref_model, uniform_model):
    assert cumulative_cached_prob(ref_model, 15) == approx(1.0, abs=1e-12)
    assert cumulative_cached_prob(uniform_model, 3) == approx(0.2, abs=1e-15)
    assert cumulative_cached_prob(ref_model, 2) == approx(0.6810, abs=5e-5)
    assert cumulative_cached_prob(ref_model, 2) == approx(
        float(ref_model.group_probs[0]) + float(ref_model.group_probs[1]), rel=1e-15
    )


def test_cumulative_cached_prob_is_nondecreasing(ref_model):
    values = [cumulative_cached_prob(ref_model, k) for k in range(1, 16)]
    assert np.all(np.diff(values) > 0.0)


def test_cumulative_cached_prob_range_check(ref_model):
    with pytest.raises(ValueError):
        cumulative_cached_prob(ref_model, 0)
    with pytest.raises(ValueError):
        cumulative_cached_prob(ref_model, 16)


@pytest.mark.parametrize(
    "n_files, cache, beta",
    [
        (301, 20, 1.0),  # not a multiple of the cache size
        (300, 0, 1.0),
        (10, 20, 1.0),
        (300, 20, -0.5),
        (300, 20, math.nan),
    ],
)
def test_build_popularity_rejects_bad_inputs(n_files, cache, beta):
    with pytest.raises(ConfigurationError):
        build_popularity(n_files, cache, beta)


def test_group_probs_are_read_only(ref_model):
    with pytest.raises(ValueError):
        ref_model.group_probs[0] = 0.5


def test_build_popularity_is_memoized():
    model = build_popularity(300, 20, 0.7)
    assert build_popularity(300, 20, 0.7) is model
    assert not model.group_probs.flags.writeable
    # typed: an np.float64 skew gets its own entry, with the same numbers
    other = build_popularity(300, 20, np.float64(0.7))
    assert other is not model
    assert other.beta == model.beta and np.array_equal(other.group_probs, model.group_probs)


@pytest.mark.parametrize(
    "n_files, cache, beta", [(301, 20, 1.0), (300, 20, -0.5), (300, 20, math.nan)]
)
def test_build_popularity_refuses_on_every_call(n_files, cache, beta):
    # a refusal is an exception, which the cache does not keep
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            build_popularity(n_files, cache, beta)
