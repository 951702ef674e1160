"""Distance densities and truncated path-gain moments."""

import math

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from coopd2d import geometry
from coopd2d.checks import _density_moments
from coopd2d.geometry import (
    SQRT2,
    SQRT5,
    GeometryTable,
    interference_pdf,
    offset_moment,
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
# 7-alpha x 25-floor scan.  The bits are the cell-offset kernel's
# (geometry.offset_moment); a change to the kernel must keep them.
_PINNED_MOMENTS = {
    (3.68, 0.04): ("0x1.c8f436ff3fef9p+9", "0x1.58bfb12762e74p+4"),
    (0.0, 0.0): ("0x1.2000000000000p+3", "0x1.0000000000000p+0"),
    (3.68, 1 / 37.5): ("0x1.b842da3140750p+10", "0x1.dbe9c0c00f03dp+4"),
    (3.68, 1 / 18.75): ("0x1.200a43eba4835p+9", "0x1.0fd8bb0d9aac0p+4"),
    (3.68, 1 / 15): ("0x1.9392a544af748p+8", "0x1.c1581f9a23009p+3"),
    (3.68, 1 / 75): ("0x1.566370f365b86p+12", "0x1.92fcc927332dbp+5"),
    (3.68, 1.0): ("0x1.0061829a5b6e6p+1", "0x1.fbbd40ed265fap-3"),
    (2.5, 1.5): ("0x1.6a31c355205f4p-2", "0x1.6a31c355205f4p-5"),
    (2.0, 0.0002): ("0x1.eab30b022baaep+5", "0x1.d9908206c5416p+0"),
    (4.5, 0.0002): ("0x1.08edc5e1999cdp+32", "0x1.cc37febf4806cp+18"),
    (2.0, 2.2): ("0x1.905212e9ff9d7p-20", "0x1.905212e9ff9d7p-23"),
    (4.5, 2.2): ("0x1.ba8561f2efff4p-23", "0x1.ba8561f2efff4p-26"),
}


@pytest.mark.parametrize("alpha, r_min", sorted(_PINNED_MOMENTS))
def test_moment_bits_pinned(alpha, r_min):
    table = path_gain_moments(alpha, r_min)
    assert (table.q1.hex(), table.q2.hex()) == _PINNED_MOMENTS[alpha, r_min]


# float.hex of the kernel at offsets (1, 1) and (2, 1), whose rays cross
# kink lines of both axes; a change to how the kernel finds a ray's pieces
# must keep them.
_PINNED_OFFSETS = {
    (3.68, 0.04): ("0x1.3ed209da3c1eep+0", "0x1.133f07df6df24p-4"),
    (2.5, 1.5): ("0x1.da74a0fd791a5p-4", "0x1.19202385e1361p-3"),
    (4.5, 2.2): ("0x1.6a025490846a1p-11", "0x1.2ff7e8e017d52p-7"),
}


@pytest.mark.parametrize("alpha, r_min", sorted(_PINNED_OFFSETS))
def test_diagonal_offset_bits_pinned(alpha, r_min):
    bits = tuple(offset_moment(alpha, r_min, i, j).hex() for i, j in ((1, 1), (2, 1)))
    assert bits == _PINNED_OFFSETS[alpha, r_min]


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
    # the third route: the density quadrature, deterministic and far tighter
    s_quad, q2_quad = _density_moments(3.68, 0.04)
    assert s_quad == approx(table.signal_moment, rel=1e-12)
    assert q2_quad == approx(table.q2, rel=1e-12)
    assert s_mc == approx(s_quad, rel=1e-2), (s_mc, s_se)
    assert q2_mc == approx(q2_quad, rel=1e-2), (q2_mc, q2_se)


def _kernel_gap_ok(kernel, quadrature):
    """The window of validate's moment-kernel gate."""
    return abs(kernel - quadrature) <= 1e-8 * quadrature + 1e-9


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 3.0, 3.68, 4.0, 20.0, 60.0, 120.0, 200.0])
def test_offset_kernel_matches_quadrature(alpha):
    for r_min in (0.0, 1e-4, 0.04, 0.5, 0.999, 1.0, 1.1, 1.5, 2.0, 2.23):
        if r_min == 0.0 and alpha >= 2.0:
            continue  # the moments diverge
        if r_min == 1e-4 and alpha >= 120.0:
            # r^-alpha overflows a float at this floor: both routes refuse
            with pytest.raises(ConfigurationError, match="density quadrature"):
                _density_moments(alpha, r_min)
            with pytest.raises(ConfigurationError, match="pairing floor"):
                offset_moment(alpha, r_min, 0, 0)
            continue
        kernel = offset_moment(alpha, r_min, 0, 0), offset_moment(alpha, r_min, 1, 0)
        table = path_gain_moments(alpha, r_min)
        assert (table.q1, table.q2) == (kernel[0] + 8.0 * kernel[1], kernel[1])
        for k, quadrature in zip(kernel, _density_moments(alpha, r_min)):
            assert _kernel_gap_ok(k, quadrature), (r_min, k, quadrature)
        if r_min > SQRT2:
            assert kernel[0] == 0.0  # no in-cell distance reaches the floor


def test_offset_kernel_converges_where_quadrature_refuses():
    # a quad over the whole support does not converge at these floors; below
    # one cell side the signal density is 2 r^3 - 8 r^2 + 2 pi r, so the
    # moment is a sum of power integrals; at alpha = 20 the part past r = 1
    # is below 1e-60 of it
    for r_min in (1e-4, 2e-4):
        near = sum(c * (r_min ** (p - 19.0) - 1.0) / (19.0 - p)
                   for c, p in ((2.0 * math.pi, 1.0), (-8.0, 2.0), (2.0, 3.0)))
        assert offset_moment(20.0, r_min, 0, 0) == approx(near, rel=1e-12)
        assert path_gain_moments(20.0, r_min).signal_moment == approx(near, rel=1e-12)


@pytest.mark.parametrize("r_min", [1e-6, 2e-6, 4e-8, 1e-12])
def test_moments_match_the_near_field_oracle(r_min):
    # floors far below the cluster side, against the closed-form near field
    for alpha in (2.0, 3.0, 3.68, 4.5):
        table = path_gain_moments(alpha, r_min)
        signal = oracles.near_field_moment(alpha, r_min)
        q2 = oracles.near_field_moment(alpha, r_min, adjacent=True)
        assert abs(table.signal_moment - signal) <= 1e-13 * signal, (alpha, table, signal)
        assert abs(table.q2 - q2) <= 1e-13 * q2, (alpha, table, q2)


def test_every_short_floor_converges():
    # 300 log-spaced pairing floors from 1e-15 to 2e-4 m at the reference
    # 25 m cells: the kernel matches the near-field oracle, and validate's
    # density route converges and agrees within its gate's window
    for floor_m in np.geomspace(1e-15, 2e-4, 300).tolist():
        r_min = floor_m / 25.0
        table = path_gain_moments(3.68, r_min)
        signal = oracles.near_field_moment(3.68, r_min)
        q2 = oracles.near_field_moment(3.68, r_min, adjacent=True)
        assert abs(table.signal_moment - signal) <= 1e-13 * signal, (floor_m, table)
        assert abs(table.q2 - q2) <= 1e-13 * q2, (floor_m, table)
        density_signal, density_q2 = _density_moments(3.68, r_min)
        assert _kernel_gap_ok(table.signal_moment, density_signal), (floor_m, table)
        assert _kernel_gap_ok(table.q2, density_q2), (floor_m, table)


def test_offset_kernel_refuses_an_overflow():
    with pytest.raises(ConfigurationError, match="r_min=0.0001 cluster sides at alpha=120"):
        offset_moment(120.0, 1e-4, 0, 0)


_OFFSETS = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 2), (-1, 2), (3, -1)]


@pytest.mark.parametrize("cell", _OFFSETS)
def test_offset_kernel_free_space_is_a_probability(cell):
    # at alpha = 0 and no floor the moment is the total mass of the kernel
    assert abs(offset_moment(0.0, 0.0, *cell) - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha, r_min", [(0.0, 0.0), (2.0, 0.5), (3.68, 0.04), (60.0, 1.1)])
def test_offset_kernel_is_symmetric(alpha, r_min):
    for i, j in _OFFSETS:
        moment = offset_moment(alpha, r_min, i, j)
        assert offset_moment(alpha, r_min, j, i) == approx(moment, rel=1e-13)
        assert offset_moment(alpha, r_min, -i, j) == approx(moment, rel=1e-13)


def test_dominant_interference_simplification_measured():
    # the closed forms model all 8 neighbours with the edge-adjacent moment
    # q2; the simulator's interferers sit at every offset of a 3 x 3 grid
    def digits4(values):
        return [float("%.4g" % v) for v in values]

    moment = {(i, j): offset_moment(3.68, 0.04, i, j) for i in range(3) for j in range(3)}
    offsets = ((0, 1), (1, 1), (0, 2), (1, 2), (2, 2))
    assert digits4(moment[c] for c in offsets) == [21.55, 1.245, 0.1064, 0.0672, 0.02552]
    neighbours = 4.0 * moment[(0, 1)] + 4.0 * moment[(1, 1)]
    cells = [(x, y) for x in range(3) for y in range(3)]
    grid_mean = sum(
        moment[(abs(x - u), abs(y - v))] for x, y in cells for u, v in cells if (x, y) != (u, v)
    ) / len(cells)
    q2_total = 8.0 * path_gain_moments(3.68, 0.04).q2
    # 8 q2 overstates the interference the simulator draws, against the
    # direction of the Jensen gap
    assert digits4([neighbours, grid_mean, q2_total, q2_total / grid_mean]) == [
        91.17, 59.94, 172.4, 2.876
    ]


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


@pytest.mark.parametrize("r_min", [3e-300])
def test_unconverged_quadrature_is_refused(r_min):
    # at a floor this short r^-alpha overflows a float; longer short floors
    # converge (test_moments_match_the_near_field_oracle)
    with pytest.raises(ConfigurationError, match="pairing floor.*overflows"):
        path_gain_moments(3.68, r_min)


def test_geometry_table_is_frozen():
    table = GeometryTable(alpha=3.68, r_min=0.04, q1=10.0, q2=1.0)
    with pytest.raises(AttributeError):
        table.q1 = 11.0

