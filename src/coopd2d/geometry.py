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

Each density piece is written once, as a function of a float or an array.
A scalar distance (``quad`` passes one per node, about 840 for the
reference moments) picks its piece by bisecting the break points; an array
applies the pieces under masks.  Both paths return the same bits, which
the tests check on 10^5 points and at every break point.  Within about
1e-5 of the end of its support a piece rounds to a few 1e-15 below 0; both
paths clamp it to +0.0 (``-0.0`` included).  Only ``+ - * /``
use Python operators inside a piece: with numpy's SIMD loops,
``math.acos``/``math.asin`` differ from ``np.arccos``/``np.arcsin`` by an
ulp at 9-10 % of points, and ``r ** 3`` on a float differs from the array
loop at 5 % (uniform points on [0, 2.3]), so the pieces call ufuncs for
the rest, ``np.power(r, 3)`` included.  The first
``path_gain_moments(3.68, 0.04)`` call in a fresh interpreter took 53 ms
when scalars went through the masked array code, and takes 3.6 ms now
(medians of 5 interpreters, 2 cores, numpy 2.4).
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConfigurationError, DivergenceError

__all__ = [
    "SQRT2",
    "SQRT5",
    "SIGNAL_BREAKS",
    "INTERFERENCE_BREAKS",
    "GeometryTable",
    "signal_pdf",
    "interference_pdf",
    "path_gain_moments",
    "dump_pdf_table",
]

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# Density pieces, shared by the scalar and the array path (see the module
# docstring): Python operators only for + - * /, numpy ufuncs for the rest.


def _g_near(r):
    return 2.0 * r * (r * r - 4.0 * r + math.pi)


def _g_far(r):
    eps = np.sqrt(r * r - 1.0)
    return 2.0 * r * (4.0 * eps - (r * r + 2.0) + math.pi - 4.0 * np.arccos(1.0 / r))


def _f_near(r):
    return 2.0 * r * r - np.power(r, 3)


def _f_mid(r):
    e = np.sqrt(r * r - 1.0)
    return 3.0 * r - 4.0 * r * r + 2.0 * np.power(r, 3) - 4.0 * r * e + 4.0 * r * np.arcsin(e / r)


def _f_far(r):
    e = np.sqrt(r * r - 1.0)
    return 4.0 * r * e + 4.0 * r * np.arcsin(1.0 / r) - r - 4.0 * r * r


def _f_tail(r):
    e = np.sqrt(r * r - 1.0)
    # r >= 2 gives r*r >= 4 exactly (rounding is monotone), so no clamp
    x = np.sqrt(r * r - 4.0)
    return (
        -5.0 * r
        - np.power(r, 3)
        + 4.0 * r * e
        + 2.0 * r * x
        - 4.0 * r * (np.arcsin(x / r) - np.arcsin(1.0 / r))
    )


# Piece i covers [edges[i], edges[i + 1]); the density is 0 from the last
# edge on.  The interference support is closed, so its last edge is the
# float after sqrt(5).
_G_EDGES = (0.0, 1.0, SQRT2)
_G_PIECES = (_g_near, _g_far)
_F_EDGES = (0.0, 1.0, SQRT2, 2.0, math.nextafter(SQRT5, math.inf))
_F_PIECES = (_f_near, _f_mid, _f_far, _f_tail)
# Interior piece boundaries, where the quadrature splits its range.
SIGNAL_BREAKS = _G_EDGES[1:-1]
INTERFERENCE_BREAKS = _F_EDGES[1:-1]

_REAL_SCALARS = (float, int, np.floating, np.integer)


def _piecewise(r, edges, pieces):
    if isinstance(r, _REAL_SCALARS):
        x = float(r)
        if not x >= 0.0:
            raise ConfigurationError("distances must be non-negative, got %r" % r)
        i = bisect.bisect_right(edges, x) - 1
        value = float(pieces[i](x)) if i < len(pieces) else 0.0
        return value if value > 0.0 else 0.0
    arr = np.asarray(r, dtype=np.float64)
    if not np.all(arr >= 0.0):  # NaN fails the comparison too
        raise ConfigurationError("distances must be non-negative, not NaN")
    out = np.zeros_like(arr)
    for lo, hi, piece in zip(edges, edges[1:], pieces):
        mask = (arr >= lo) & (arr < hi)
        out[mask] = piece(arr[mask])
    out = np.where(out > 0.0, out, 0.0)
    return float(out) if arr.ndim == 0 else out


def signal_pdf(r):
    """Density of the distance between two uniform points in a unit square.

    Parameters
    ----------
    r : float or array_like
        Normalized distance(s), ``r >= 0``.  Values from ``sqrt(2)`` on
        (``+inf`` included) get density 0.

    Returns
    -------
    float or numpy.ndarray
        A float for a scalar input, bit for bit the array path's value.

    Raises
    ------
    ConfigurationError
        If any input is negative or NaN.

    Notes
    -----
    Piecewise closed form (square line picking)::

        2 r (r^2 - 4 r + pi)                                  0 <= r < 1
        2 r (4 sqrt(r^2-1) - (r^2+2) + pi - 4 acos(1/r))      1 <= r < sqrt(2)
    """
    return _piecewise(r, _G_EDGES, _G_PIECES)


def interference_pdf(r):
    """Density of the distance between uniform points of edge-adjacent unit squares.

    One square is ``[0,1]^2``, the other ``[1,2] x [0,1]``; the support is
    ``[0, sqrt(5)]``.

    Parameters
    ----------
    r : float or array_like
        Normalized distance(s), ``r >= 0``.  Values beyond ``sqrt(5)``
        (``+inf`` included) get density 0.

    Returns
    -------
    float or numpy.ndarray
        A float for a scalar input, bit for bit the array path's value.

    Raises
    ------
    ConfigurationError
        If any input is negative or NaN.

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
    return _piecewise(r, _F_EDGES, _F_PIECES)


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
    try:
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
    except OverflowError:  # r ** -alpha beyond the float range
        value, failure = math.inf, []
    if failure:
        raise ConfigurationError(
            "path-gain quadrature did not converge for pairing floor r_min=%g "
            "cluster sides at alpha=%g (%s); raise the pairing floor"
            % (r_min, alpha, failure[0].splitlines()[0].strip())
        )
    if not math.isfinite(value):
        raise ConfigurationError(
            "path-gain moment overflows the float range for pairing floor "
            "r_min=%g cluster sides at alpha=%g (r^-alpha reaches "
            "r_min^-alpha); raise the pairing floor or lower alpha"
            % (r_min, alpha)
        )
    return value


# typed: a bool must not hit the entry of the equal float and skip its refusal
@functools.lru_cache(maxsize=64, typed=True)
def path_gain_moments(alpha: float, r_min: float = 0.0) -> GeometryTable:
    """Compute the truncated moments ``q1`` and ``q2``.

    Memoized (a pure function returning a frozen table): a sweep pays for
    each ``(alpha, r_min)`` quadrature once.

    Parameters
    ----------
    alpha : float
        Path-loss exponent, finite and ``>= 0``.
    r_min : float, optional
        Truncation radius in units of the cluster side (default 0), finite
        and ``>= 0``.  The physical choice is ``d0 / D`` for a near-field
        exclusion ``d0``.

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
        For an ``alpha`` or ``r_min`` that is negative, non-finite or a
        bool; for ``r_min >= sqrt(5)``: a pairing floor that long excludes
        every signal and interference distance, so no link rate exists; and
        when a quadrature fails: it does not converge, ``r^-alpha``
        overflows, or a moment comes out non-finite.

    Examples
    --------
    >>> t = path_gain_moments(0.0, 0.0)
    >>> round(t.q1, 6), round(t.q2, 6)
    (9.0, 1.0)
    """
    for name, value in (("alpha", alpha), ("r_min", r_min)):
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not 0.0 <= value < math.inf
        ):
            raise ConfigurationError(
                "%s must be a finite number >= 0, got %r" % (name, value)
            )
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

    s = _moment(signal_pdf, alpha, r_min, SQRT2, SIGNAL_BREAKS) if r_min < SQRT2 else 0.0
    q2 = _moment(interference_pdf, alpha, r_min, SQRT5, INTERFERENCE_BREAKS)
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
