"""Distance densities and truncated path-gain moments."""

import csv
import math

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from coopd2d.geometry import (
    SQRT2,
    SQRT5,
    GeometryTable,
    dump_pdf_table,
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


def test_vectorized_evaluation_matches_scalar():
    grid = np.linspace(0.0, SQRT5, 257)
    g = signal_pdf(grid)
    f = interference_pdf(grid)
    assert g.shape == f.shape == grid.shape
    for i in (0, 64, 200, 256):
        assert g[i] == signal_pdf(float(grid[i]))
        assert f[i] == interference_pdf(float(grid[i]))


def test_densities_nonnegative_on_dense_grid():
    grid = np.linspace(0.0, SQRT5, 20_001)
    assert np.all(signal_pdf(grid) >= 0.0)
    assert np.all(interference_pdf(grid) >= 0.0)


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


def test_dump_pdf_table(tmp_path):
    path = tmp_path / "pdfs.csv"
    dump_pdf_table(path, n_points=128)
    first = path.read_bytes()
    dump_pdf_table(path, n_points=128)
    assert path.read_bytes() == first  # byte-deterministic rewrite

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "g", "f"]
    assert len(rows) == 129
    r, g, f = (float(v) for v in rows[64])
    assert g == signal_pdf(r)
    assert f == interference_pdf(r)
