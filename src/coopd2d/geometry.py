"""Link-distance distributions and truncated path-gain moments.

All distances here are normalized by the cluster side ``D``; densities are per
unit normalized distance.  Two densities cover every link in the 3x3-cell
neighborhood picture used by the closed-form rates:

* ``signal_pdf``: distance between two independent uniform points of the same
  unit cell (square line picking), support ``[0, sqrt(2)]``.
* ``interference_pdf``: distance between uniform points of two edge-adjacent
  unit cells, support ``[0, sqrt(5)]``.  All eight neighbors are modeled with
  this one density (the dominant-interference simplification; the corner
  neighbors' true support would extend past ``sqrt(5)``).

The rate formulas consume the truncated moments

    q2 = integral_{r_min}^{sqrt 5} r^-alpha f(r) dr
    q1 = integral_{r_min}^{sqrt 2} r^-alpha g(r) dr + 8 * q2

with ``r_min`` a near-field exclusion radius (physical distance ``d0``
normalized by ``D``).  Without truncation the moments diverge for the
path-loss exponents of interest, which is surfaced as an explicit error
rather than an inf.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConfigurationError, DivergenceError

__all__ = [
    "SQRT2",
    "SQRT5",
    "GeometryTable",
    "signal_pdf",
    "interference_pdf",
    "path_gain_moments",
    "dump_pdf_table",
]

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# Interior piece boundaries of the two densities.
_G_BREAKS = (1.0,)
_F_BREAKS = (1.0, SQRT2, 2.0)


def _as_checked_array(r) -> tuple[np.ndarray, bool]:
    arr = np.asarray(r, dtype=np.float64)
    if np.any(arr < 0):
        raise ConfigurationError("distances must be non-negative")
    return arr, np.isscalar(r) or arr.ndim == 0


def signal_pdf(r):
    """Density of the distance between two uniform points in a unit square.

    Parameters
    ----------
    r : float or array_like
        Normalized distance(s), ``r >= 0``.  Values beyond ``sqrt(2)`` get
        density 0.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    ConfigurationError
        If any input is negative.

    Notes
    -----
    Piecewise closed form (square line picking)::

        2 r (r^2 - 4 r + pi)                                  0 <= r < 1
        2 r (4 sqrt(r^2-1) - (r^2+2) + pi - 4 acos(1/r))      1 <= r < sqrt(2)
    """
    arr, scalar = _as_checked_array(r)
    out = np.zeros_like(arr)

    near = arr < 1.0
    rn = arr[near]
    out[near] = 2.0 * rn * (rn * rn - 4.0 * rn + math.pi)

    far = (arr >= 1.0) & (arr < SQRT2)
    rf = arr[far]
    eps = np.sqrt(rf * rf - 1.0)
    out[far] = 2.0 * rf * (4.0 * eps - (rf * rf + 2.0) + math.pi - 4.0 * np.arccos(1.0 / rf))

    return float(out) if scalar else out


def interference_pdf(r):
    """Density of the distance between uniform points of edge-adjacent unit squares.

    One square is ``[0,1]^2``, the other ``[1,2] x [0,1]``; the support is
    ``[0, sqrt(5)]``.

    Parameters
    ----------
    r : float or array_like
        Normalized distance(s), ``r >= 0``.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    ConfigurationError
        If any input is negative.

    Notes
    -----
    With ``e = sqrt(r^2-1)`` and ``x = sqrt(r^2-4)``::

        2 r^2 - r^3                                           0 <= r < 1
        3 r - 4 r^2 + 2 r^3 - 4 r e + 4 r asin(e/r)           1 <= r < sqrt(2)
        4 r e + 4 r asin(1/r) - r - 4 r^2                     sqrt(2) <= r < 2
        -5 r - r^3 + 4 r e + 2 r x - 4 r (asin(x/r) - asin(1/r))   2 <= r <= sqrt(5)

    The four pieces are continuous at 1, sqrt(2), and 2, and integrate to 1;
    both facts are exercised by the test suite against a direct Monte Carlo
    histogram of the two-square geometry.
    """
    arr, scalar = _as_checked_array(r)
    out = np.zeros_like(arr)

    p1 = arr < 1.0
    r1 = arr[p1]
    out[p1] = 2.0 * r1 * r1 - r1 ** 3

    p2 = (arr >= 1.0) & (arr < SQRT2)
    r2 = arr[p2]
    e2 = np.sqrt(r2 * r2 - 1.0)
    out[p2] = 3.0 * r2 - 4.0 * r2 * r2 + 2.0 * r2 ** 3 - 4.0 * r2 * e2 + 4.0 * r2 * np.arcsin(e2 / r2)

    p3 = (arr >= SQRT2) & (arr < 2.0)
    r3 = arr[p3]
    e3 = np.sqrt(r3 * r3 - 1.0)
    out[p3] = 4.0 * r3 * e3 + 4.0 * r3 * np.arcsin(1.0 / r3) - r3 - 4.0 * r3 * r3

    p4 = (arr >= 2.0) & (arr <= SQRT5)
    r4 = arr[p4]
    e4 = np.sqrt(r4 * r4 - 1.0)
    # clip: roundoff can push r*r - 4.0 to -1e-16 at the boundary
    x4 = np.sqrt(np.clip(r4 * r4 - 4.0, 0.0, None))
    out[p4] = (
        -5.0 * r4
        - r4 ** 3
        + 4.0 * r4 * e4
        + 2.0 * r4 * x4
        - 4.0 * r4 * (np.arcsin(x4 / r4) - np.arcsin(1.0 / r4))
    )

    return float(out) if scalar else out


@dataclass(frozen=True)
class GeometryTable:
    """Truncated path-gain moments for one ``(alpha, r_min)`` pair.

    Attributes
    ----------
    alpha : float
        Path-loss exponent.
    r_min : float
        Truncation radius in units of the cluster side.
    q1 : float
        Signal moment plus 8 times the interference moment; the aggregate
        received-gain moment of a 9-cell joint transmission.
    q2 : float
        Single-neighbor interference moment.
    """

    alpha: float
    r_min: float
    q1: float
    q2: float

    @property
    def signal_moment(self) -> float:
        """Own-cell moment ``q1 - 8 * q2`` (non-negative by construction)."""
        return self.q1 - 8.0 * self.q2


def _moment(pdf, alpha: float, r_min: float, upper: float, breaks) -> float:
    pts = [p for p in breaks if r_min < p < upper]
    # full_output: quad appends a message, instead of warning, when it fails
    value, _, _, *failure = quad(
        lambda r: r ** (-alpha) * pdf(r),
        r_min,
        upper,
        points=pts or None,
        limit=200,
        epsabs=1e-9,
        epsrel=1e-10,
        full_output=1,
    )
    if failure:
        raise ConfigurationError(
            "path-gain quadrature did not converge for pairing floor r_min=%g "
            "cluster sides at alpha=%g (%s); raise the pairing floor"
            % (r_min, alpha, failure[0].splitlines()[0].strip())
        )
    return value


@functools.lru_cache(maxsize=64)
def path_gain_moments(alpha: float, r_min: float = 0.0) -> GeometryTable:
    """Compute the truncated moments ``q1`` and ``q2``.

    Memoized (a pure function returning a frozen table): a sweep pays for
    each ``(alpha, r_min)`` quadrature once.

    Parameters
    ----------
    alpha : float
        Path-loss exponent, ``alpha >= 0``.
    r_min : float, optional
        Truncation radius in units of the cluster side (default 0).  The
        physical choice is ``d0 / D`` for a near-field exclusion ``d0``.

    Returns
    -------
    GeometryTable

    Raises
    ------
    DivergenceError
        If ``r_min = 0`` and the requested moment diverges: the signal
        integrand behaves like ``r^(1-alpha)`` near 0 (divergent for
        ``alpha >= 2``) and the interference integrand like ``r^(2-alpha)``
        (divergent for ``alpha >= 3``).
    ConfigurationError
        For negative ``alpha`` or ``r_min``, or for ``r_min >= sqrt(5)``: a
        pairing floor that long excludes every signal and interference
        distance, so no link rate exists.

    Examples
    --------
    >>> t = path_gain_moments(0.0, 0.0)
    >>> round(t.q1, 6), round(t.q2, 6)
    (9.0, 1.0)
    """
    if not alpha >= 0.0:
        raise ConfigurationError("alpha must be >= 0, got %r" % (alpha,))
    if not r_min >= 0.0:
        raise ConfigurationError("r_min must be >= 0, got %r" % (r_min,))
    if r_min >= SQRT5:
        raise ConfigurationError(
            "pairing floor r_min=%g cluster sides is not below sqrt(5), the "
            "longest link distance: every path-gain moment would be 0" % r_min
        )
    if r_min == 0.0 and alpha >= 2.0:
        if alpha >= 3.0:
            raise DivergenceError(
                "moments diverge at r_min=0 for alpha=%g (signal integrand "
                "~ r^(1-alpha), interference ~ r^(2-alpha)); set r_min > 0, "
                "e.g. a 1 m exclusion normalized by the cluster side" % alpha
            )
        raise DivergenceError(
            "signal moment diverges at r_min=0 for alpha=%g (integrand "
            "~ r^(1-alpha)); set r_min > 0, e.g. a 1 m exclusion normalized "
            "by the cluster side" % alpha
        )

    s = _moment(signal_pdf, alpha, r_min, SQRT2, _G_BREAKS) if r_min < SQRT2 else 0.0
    q2 = _moment(interference_pdf, alpha, r_min, SQRT5, _F_BREAKS)
    return GeometryTable(alpha=float(alpha), r_min=float(r_min), q1=s + 8.0 * q2, q2=q2)


def dump_pdf_table(path, n_points: int = 512) -> None:
    """Write both densities on a uniform grid over ``[0, sqrt(5)]`` as CSV.

    Columns: ``r``, ``g`` (signal density), ``f`` (interference density).
    Intended for eyeballing the curves against histograms; nothing in the
    package reads the file back.
    """
    grid = np.linspace(0.0, SQRT5, n_points)
    g = signal_pdf(grid)
    f = interference_pdf(grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "g", "f"])
        for row in zip(grid, g, f):
            writer.writerow([repr(float(v)) for v in row])
