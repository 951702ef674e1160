"""Distance densities and truncated path-gain moments."""

import math

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from coopd2d import geometry
from coopd2d.geometry import (
    SQRT2,
    SQRT5,
    GeometryTable,
    interference_pdf,
    path_gain_moments,
    signal_pdf,
)
from coopd2d.errors import ConfigurationError, DivergenceError

import oracles

# interior piece boundaries of the two densities
_G_BREAKS = (1.0,)
_F_BREAKS = (1.0, SQRT2, 2.0)


def test_support_endpoints():
    assert signal_pdf(0.0) == 0.0
    assert abs(signal_pdf(SQRT2)) < 1e-12
    assert interference_pdf(0.0) == 0.0
    assert abs(interference_pdf(SQRT5)) < 1e-12
    assert signal_pdf(2.0) == 0.0
    assert interference_pdf(3.0) == 0.0


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        signal_pdf(-0.1)
    with pytest.raises(ValueError):
        interference_pdf(np.array([0.5, -0.5]))


# float.hex of (q1, q2) per (alpha, r_min): the reference floor (1 m at
# 25 m cells, every command's default), validate's alpha = 0 anchor, the
# 1 m floor at 1, 4, 16 and 25 cells of the 75 m hotspot, and corners of a
# 7-alpha x 25-floor scan.  Changes to the densities or the quadrature must
# keep these bits.
_PINNED_MOMENTS = {
    (3.68, 0.04): ("0x1.c8f436ff3feb1p+9", "0x1.58bfb12762f2cp+4"),
    (0.0, 0.0): ("0x1.1ffffffffff2bp+3", "0x1.0000000000011p+0"),
    (3.68, 1 / 37.5): ("0x1.b842da314061fp+10", "0x1.dbe9c0c00f0f3p+4"),
    (3.68, 1 / 18.75): ("0x1.200a43eba47f0p+9", "0x1.0fd8bb0d9ab77p+4"),
    (3.68, 1 / 15): ("0x1.9392a544af6c0p+8", "0x1.c1581f9a2317ap+3"),
    (3.68, 1 / 75): ("0x1.566370f365b6ap+12", "0x1.92fcc92733629p+5"),
    (3.68, 1.0): ("0x1.0061829a5fe42p+1", "0x1.fbbd40ed2fbdfp-3"),
    (2.5, 1.5): ("0x1.6a31c35519555p-2", "0x1.6a31c35519555p-5"),
    (2.0, 0.0002): ("0x1.eab30b022b912p+5", "0x1.d9908206c52b4p+0"),
    (4.5, 0.0002): ("0x1.08edc5e1999cep+32", "0x1.cc37febf48081p+18"),
    (2.0, 2.2): ("0x1.905212ea00081p-20", "0x1.905212ea00081p-23"),
    (4.5, 2.2): ("0x1.ba8561f2f3273p-23", "0x1.ba8561f2f3273p-26"),
}


@pytest.mark.parametrize("alpha, r_min", sorted(_PINNED_MOMENTS))
def test_moment_bits_pinned(alpha, r_min):
    table = path_gain_moments(alpha, r_min)
    assert (table.q1.hex(), table.q2.hex()) == _PINNED_MOMENTS[alpha, r_min]


def test_densities_nonnegative_on_dense_grid():
    # the closed forms round below 0 within about 1e-5 of their support's
    # end (down to -2.5e-15 for g, -7e-15 for f); -0.0 is clamped to +0.0
    near_end = np.geomspace(1e-16, 1e-4, 4001)
    grid = np.concatenate(
        ([-0.0], np.linspace(0.0, SQRT5, 20_001), SQRT2 - near_end, SQRT5 - near_end)
    )
    for pdf in (signal_pdf, interference_pdf):
        values = pdf(grid)
        assert np.all(values >= 0.0) and not np.any(np.signbit(values)), pdf.__name__
        assert all(math.copysign(1.0, pdf(float(x))) == 1.0 for x in grid[::7])


def test_densities_integrate_to_one():
    g_total, _ = quad(signal_pdf, 0.0, SQRT2, points=list(_G_BREAKS), limit=200)
    f_total, _ = quad(interference_pdf, 0.0, SQRT5, points=list(_F_BREAKS), limit=200)
    assert g_total == approx(1.0, abs=1e-8)
    assert f_total == approx(1.0, abs=1e-6)


def test_continuity_at_piece_boundaries():
    # evaluate a hair on both sides of every interior break
    step = 1e-12
    for pdf, breaks in ((signal_pdf, _G_BREAKS), (interference_pdf, _F_BREAKS)):
        for b in breaks:
            left = pdf(b - step)
            right = pdf(b + step)
            assert abs(left - right) < 1e-9, (pdf.__name__, b, left, right)


def test_histograms_track_densities_quickly():
    # light version of the acceptance check: 1e6 samples, loose tolerances
    rng = np.random.default_rng(0xC0FFEE)
    rg = oracles.sample_distances(rng, 1_000_000)
    rf = oracles.sample_distances(rng, 1_000_000, adjacent=True)
    assert oracles.histogram_sup_norm(signal_pdf, rg, SQRT2, 20) < 1.5e-2
    assert oracles.histogram_sup_norm(interference_pdf, rf, SQRT5, 40) < 3e-2


def test_free_space_moment_anchors():
    table = path_gain_moments(0.0, 0.0)
    assert table.q1 == approx(9.0, abs=1e-6)
    assert table.q2 == approx(1.0, abs=1e-6)
    assert table.signal_moment == approx(1.0, abs=1e-6)


def test_reference_moments_frozen():
    table = path_gain_moments(3.68, 0.04)
    assert table.q1 == approx(913.9079283773518, rel=1e-9)
    assert table.q2 == approx(21.546799806455212, rel=1e-9)
    assert table.signal_moment == approx(741.5335299257101, rel=1e-9)
    assert table.q1 == approx(table.signal_moment + 8.0 * table.q2, rel=1e-15)


def test_moments_match_direct_sampling():
    table = path_gain_moments(3.68, 0.04)
    s_mc, s_se = oracles.empirical_truncated_moment(
        np.random.default_rng(0x5EED1), 10_000_000, 3.68, 0.04
    )
    q2_mc, q2_se = oracles.empirical_truncated_moment(
        np.random.default_rng(0x5EED2), 30_000_000, 3.68, 0.04, adjacent=True
    )
    assert s_mc == approx(table.signal_moment, rel=1e-2), (s_mc, s_se)
    assert q2_mc == approx(table.q2, rel=1e-2), (q2_mc, q2_se)


def test_moments_decrease_with_truncation_radius():
    tables = [path_gain_moments(3.68, r) for r in (0.02, 0.04, 0.1, 0.5, 1.0)]
    q1 = [t.q1 for t in tables]
    q2 = [t.q2 for t in tables]
    assert np.all(np.diff(q1) < 0.0)
    assert np.all(np.diff(q2) < 0.0)


def test_moments_increase_as_alpha_decreases_beyond_unit_radius():
    # with the whole integration range at r >= 1, smaller exponents attenuate
    # less; below r = 1 the near-field region flips the ordering, so the
    # comparison is only meaningful here
    low = path_gain_moments(2.5, 1.0)
    high = path_gain_moments(3.68, 1.0)
    assert low.q1 > high.q1
    assert low.q2 > high.q2


def test_divergence_reporting():
    with pytest.raises(DivergenceError):
        path_gain_moments(2.0, 0.0)  # signal moment diverges
    with pytest.raises(DivergenceError):
        path_gain_moments(3.68, 0.0)  # both diverge
    finite = path_gain_moments(1.5, 0.0)  # integrable near 0
    assert math.isfinite(finite.q1) and math.isfinite(finite.q2)
    with pytest.raises(ValueError):
        path_gain_moments(-1.0, 0.1)
    with pytest.raises(ValueError):
        path_gain_moments(3.68, -0.1)


@pytest.mark.parametrize(
    "alpha, match",
    [
        (math.inf, "alpha must be"),
        (math.nan, "alpha must be"),
        (True, "alpha must be"),
        (np.True_, "alpha must be"),
        ("3.68", "alpha must be"),
        # r^-alpha overflows a float near the floor
        (1e308, "overflows"),
        (300.0, "overflows"),
    ],
)
def test_bad_alpha_refused(alpha, match):
    path_gain_moments(1.0, 0.04)  # a cached equal float must not admit True
    with pytest.raises(ConfigurationError, match=match):
        path_gain_moments(alpha, 0.04)


def test_bool_or_infinite_floor_refused():
    with pytest.raises(ConfigurationError, match="r_min must be"):
        path_gain_moments(3.68, True)
    with pytest.raises(ConfigurationError, match="r_min must be"):
        path_gain_moments(3.68, math.inf)


def test_non_finite_moment_refused(monkeypatch):
    monkeypatch.setattr(geometry, "quad", lambda *args, **kwargs: (math.inf, 0.0, {}))
    with pytest.raises(ConfigurationError, match=r"r_min=0\.0123.*alpha=3\.21"):
        path_gain_moments(3.21, 0.0123)


@pytest.mark.parametrize(
    "r", [math.nan, np.float64(math.nan), np.array(math.nan), [0.5, math.nan]]
)
def test_nan_distance_rejected(r):
    for pdf in (signal_pdf, interference_pdf):
        with pytest.raises(ConfigurationError, match="non-negative"):
            pdf(r)


def test_infinite_distance_has_zero_density():
    assert signal_pdf(math.inf) == 0.0
    assert interference_pdf(math.inf) == 0.0
    assert interference_pdf([0.5, math.inf]).tolist() == [0.375, 0.0]
    assert signal_pdf(np.array([0.5, math.inf]))[1] == 0.0
    assert signal_pdf(np.zeros((2, 3))).shape == (2, 3)


def test_truncation_beyond_signal_support():
    # the signal integral vanishes once r_min passes sqrt(2)
    table = path_gain_moments(3.68, 1.5)
    assert table.signal_moment == 0.0
    assert table.q1 == approx(8.0 * table.q2, rel=1e-15)
    # past sqrt(5) every moment would vanish, so the floor is refused
    for r_min in (SQRT5, 2.4):
        with pytest.raises(ConfigurationError, match="pairing floor"):
            path_gain_moments(3.68, r_min)


@pytest.mark.parametrize("r_min", [1e-6, 2e-6, 4e-8, 3e-300])
def test_unconverged_quadrature_is_refused(r_min):
    # floors this short leave quad an integrand it cannot resolve; at 1e-6
    # its unconverged result used to be a negative signal moment
    with pytest.raises(ConfigurationError, match="pairing floor"):
        path_gain_moments(3.68, r_min)


def test_geometry_table_is_frozen():
    table = GeometryTable(alpha=3.68, r_min=0.04, q1=10.0, q2=1.0)
    with pytest.raises(AttributeError):
        table.q1 = 11.0

