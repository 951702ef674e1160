"""Closed-form link rates and throughput accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from coopd2d.errors import ConfigurationError
from coopd2d.geometry import GeometryTable, path_gain_moments
from coopd2d.rates import (
    RadioParams,
    coop_link_rate,
    dbm_to_watts,
    network_throughput,
    noncoop_link_rate,
)

import oracles

REF_RN = 2.4065033112793515
REF_RC = 15.288348744652652


def test_dbm_to_watts():
    assert dbm_to_watts(20.0) == approx(0.1, rel=1e-15)
    assert dbm_to_watts(30.0) == approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == approx(1e-3, rel=1e-15)
    assert dbm_to_watts(-95.0) == approx(10.0**-12.5, rel=1e-15)


def test_radio_params_derived_quantities(ref_radio):
    assert ref_radio.tx_power_w == approx(0.1, rel=1e-15)
    assert ref_radio.noise_w == approx(10.0**-12.5, rel=1e-15)
    assert ref_radio.intercept_linear == approx(10.0**-3.76, rel=1e-15)
    assert ref_radio.path_gain(25.0) == approx(
        10.0**-3.76 * 25.0**-3.68, rel=1e-14
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("tx_power_dbm", 1.0e300),  # overflows to an infinite power
        ("noise_dbm", 1.0e300),
        ("noise_dbm", -1.0e300),  # underflows to 0 W
        ("path_loss_intercept_db", -1.0e300),
        ("path_loss_intercept_db", 1.0e300),  # a gain of 0
        ("noise_dbm", math.nan),
        ("tx_power_dbm", "20"),
    ],
)
def test_radio_params_refuse_db_values_without_a_linear_value(ref_radio, field, value):
    with pytest.raises(ConfigurationError, match=field):
        replace(ref_radio, **{field: value})


def test_noncoop_rate_free_space_anchor():
    # q1 = 9, q2 = 1: log2(9) - log2(1) - 3 = log2(9/8)
    table = path_gain_moments(0.0, 0.0)
    assert noncoop_link_rate(table) == approx(math.log2(9.0 / 8.0), rel=1e-6)


def test_noncoop_rate_reference_frozen(ref_geom):
    assert noncoop_link_rate(ref_geom) == approx(REF_RN, rel=1e-12)


def test_noncoop_rate_grows_with_path_loss_exponent():
    # steeper attenuation hurts the (further) interferers more than the
    # in-cell transmitter, so the interference-limited rate improves
    low = noncoop_link_rate(path_gain_moments(2.5, 0.04))
    high = noncoop_link_rate(path_gain_moments(3.68, 0.04))
    assert high > low


def test_noncoop_rate_clamp_and_warning():
    # q1 < 8 q2 cannot arise from real moment tables (q1 = s + 8 q2 with
    # s >= 0), so drive the clamp with a synthetic table
    bad = GeometryTable(alpha=3.68, r_min=0.04, q1=6.0, q2=1.0)
    raw = math.log2(6.0) - 3.0
    with pytest.warns(RuntimeWarning, match="%.6g" % raw):
        assert noncoop_link_rate(bad) == 0.0


def test_coop_rate_reference_frozen(ref_geom, ref_radio):
    assert coop_link_rate(ref_geom, ref_radio, 25.0, 9) == approx(REF_RC, rel=1e-12)


def test_coop_rate_single_cluster_reduces_to_point_to_point(ref_geom, ref_radio):
    # B = 1: no neighbors, so the aggregate moment is the signal moment alone
    solo = GeometryTable(
        alpha=ref_geom.alpha, r_min=ref_geom.r_min, q1=ref_geom.signal_moment, q2=0.0
    )
    expected = math.log2(
        1.0
        + ref_radio.tx_power_w
        * ref_radio.intercept_linear
        * 25.0**-3.68
        * ref_geom.signal_moment
        / ref_radio.noise_w
    )
    assert coop_link_rate(solo, ref_radio, 25.0, 1) == approx(expected, rel=1e-12)


def test_coop_rate_vanishes_with_noise(ref_geom, ref_radio):
    loud = RadioParams(
        tx_power_dbm=ref_radio.tx_power_dbm,
        noise_dbm=ref_radio.noise_dbm + 60.0,  # noise power times 1e6
        path_loss_intercept_db=ref_radio.path_loss_intercept_db,
        alpha=ref_radio.alpha,
        bandwidth_hz=ref_radio.bandwidth_hz,
    )
    quiet_rate = coop_link_rate(ref_geom, ref_radio, 25.0, 9)
    loud_rate = coop_link_rate(ref_geom, loud, 25.0, 9)
    assert loud_rate < 0.01 * quiet_rate


def test_coop_rate_input_checks(ref_geom, ref_radio):
    with pytest.raises(ValueError):
        coop_link_rate(ref_geom, ref_radio, 25.0, 0)
    with pytest.raises(ValueError):
        coop_link_rate(ref_geom, ref_radio, 0.0, 9)


def test_network_throughput_arithmetic():
    # W(pc eta rc + (1 - pc eta) rn) per cluster: 1*(0.25*2 + 0.75*1) = 1.25
    assert network_throughput(0.5, 0.5, 2.0, 1.0, 1.0, 9) == approx(11.25, rel=1e-15)
    assert network_throughput(0.3, 0.0, 5.0, 1.5, 2.0, 4) == approx(12.0, rel=1e-15)
    assert network_throughput(1.0, 1.0, 5.0, 1.5, 2.0, 4) == approx(40.0, rel=1e-15)


def test_network_throughput_affine_in_eta():
    w, b, pc, rc, rn = 20e6, 9, 0.7, 15.0, 2.4
    t0 = network_throughput(pc, 0.0, rc, rn, w, b)
    t1 = network_throughput(pc, 1.0, rc, rn, w, b)
    slope = w * b * pc * (rc - rn)
    assert t1 - t0 == approx(slope, rel=1e-12)
    mid = network_throughput(pc, 0.5, rc, rn, w, b)
    assert mid == approx(0.5 * (t0 + t1), rel=1e-12)


def test_network_throughput_scales_with_bandwidth():
    one = network_throughput(0.9, 0.6, 15.0, 2.4, 20e6, 9)
    two = network_throughput(0.9, 0.6, 15.0, 2.4, 40e6, 9)
    assert two == 2.0 * one


def test_network_throughput_input_checks():
    with pytest.raises(ValueError):
        network_throughput(0.5, 1.5, 2.0, 1.0, 1.0, 9)
    with pytest.raises(ValueError):
        network_throughput(-0.1, 0.5, 2.0, 1.0, 1.0, 9)


def test_noncoop_rate_against_sampled_sir(ref_geom):
    """Known-failing: the closed form overshoots the sampled average rate.

    The formula evaluates log2(1 + E[signal] / E[interference]); sampling the
    same marginal-distance model and averaging log2(1 + SIR) directly sits
    far below it because the truncated r^-alpha moments are heavy-tailed, so
    the expectation is dominated by rare near-field draws that the log
    compresses.  The 15 percent consistency tolerance is not attainable for
    this operating point; the gap is documented in the README.
    """
    sampled = oracles.mean_sir_rate(
        np.random.default_rng(0x11E0), 200_000, 3.68, 0.04
    )
    closed = noncoop_link_rate(ref_geom)
    assert sampled == approx(closed, rel=0.15), (
        "sampled mean rate %.4f vs closed form %.4f (ratio %.3f)"
        % (sampled, closed, sampled / closed)
    )


def test_coop_rate_against_sampled_aggregate_snr(ref_geom, ref_radio):
    """Known-failing: same Jensen-gap mechanism as the non-cooperative rate.

    Sampling the aggregate 9-cell received power with unit-mean fading and
    averaging log2(1 + SNR) lands well under log2(1 + E[SNR]); the heavy
    near-field tail of the truncated moments again carries E[SNR].  The 15
    percent tolerance fails; see the README for the measured gap.
    """
    sampled = oracles.mean_aggregate_snr_rate(
        np.random.default_rng(0x11E1),
        200_000,
        3.68,
        0.04,
        ref_radio.tx_power_w,
        ref_radio.intercept_linear,
        ref_radio.noise_w,
        9,
        25.0,
    )
    closed = coop_link_rate(ref_geom, ref_radio, 25.0, 9)
    assert sampled == approx(closed, rel=0.15), (
        "sampled mean rate %.4f vs closed form %.4f (ratio %.3f)"
        % (sampled, closed, sampled / closed)
    )
