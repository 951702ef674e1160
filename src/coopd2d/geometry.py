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

Both moments come from :func:`offset_moment`, which integrates the
difference of two uniform points of cells ``(0, 0)`` and ``(i, j)``: the
signal moment is offset ``(0, 0)`` and ``q2`` offset ``(1, 0)``.  It never
reads the densities, so no moment bit depends on how a density is
evaluated; the densities serve the demos and ``validate``, whose
``moment-kernel`` gate integrates them as a cross-check (their polynomial
pieces below ``r = 1`` by :func:`power_integral`, the rest by ``quad``).  Each
density piece is written once and evaluated on one float at a time, picked
by bisecting the break points.  Within about 1e-5 of the end of its support
a piece rounds to a few 1e-15 below 0; it is clamped to +0.0 (``-0.0``
included).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ConfigurationError, DivergenceError, check_number

__all__ = [
    "SQRT2",
    "SQRT5",
    "SIGNAL_BREAKS",
    "INTERFERENCE_BREAKS",
    "GeometryTable",
    "signal_pdf",
    "interference_pdf",
    "power_integral",
    "offset_moment",
    "path_gain_moments",
]

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

# Density pieces (see the module docstring)


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
    if not isinstance(r, _REAL_SCALARS):
        arr = np.asarray(r, dtype=np.float64)
        values = [_piecewise(x, edges, pieces) for x in arr.ravel().tolist()]
        return np.array(values).reshape(arr.shape)
    x = float(r)
    if not x >= 0.0:  # NaN fails the comparison too
        raise ConfigurationError("distances must be non-negative, got %r" % r)
    i = bisect.bisect_right(edges, x) - 1
    value = float(pieces[i](x)) if i < len(pieces) else 0.0
    return value if value > 0.0 else 0.0


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
        A float for a scalar input, else an array of the input's shape.

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
        A float for a scalar input, else an array of the input's shape.

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


def power_integral(a: float, b: float, e: float) -> float:
    """``int_a^b rho^(e-1) d rho`` for ``0 <= a < b``, accurate as ``e`` nears 0."""
    if e == 0.0:
        return math.log(b / a)
    log_ratio = math.log(b / a) if a else math.inf
    return -((a if e < 0.0 else b) ** e) * math.expm1(-abs(e) * log_ratio) / abs(e)


def offset_moment(alpha: float, r_min: float, i: int, j: int) -> float:
    """``E[r^-alpha 1{r >= r_min}]``, ``r`` between uniform points of unit cells
    ``(0, 0)`` and ``(i, j)``.

    Their difference has density ``k(u - i) k(v - j)``, ``k(t) = max(0, 1 - |t|)``:
    along a ray, ``rho^(1-alpha)`` times a quadratic between kinks, integrated in
    closed form.  One angular ``quad`` remains, split at the cell-corner
    directions, at multiples of pi/4 and where ``rho = r_min`` crosses a kink
    line.  The density's symmetry folds the circle: offset ``(0, 0)`` integrates
    ``[0, pi/4]`` eight times over, an offset ``(i, 0)`` ``[0, pi]`` twice.
    Needs ``r_min > 0`` or ``alpha < 2``; a failed ``quad`` or an overflow
    raises :class:`ConfigurationError`."""

    def pieces(theta):  # the in-support pieces of the ray along theta
        # a kink is (n, axis): the line u = n (axis 0) or v = n (axis 1), at
        # rho = n / cos or n / sin; past the last kink the ray has left the support
        c, s = math.cos(theta), math.sin(theta)
        kinks = sorted(((n + t) / d, n + t, axis)
                       for axis, (n, d) in enumerate(((i, c), (j, s))) if d for t in (-1, 0, 1))
        rho = [(r_min, None, None)] + [k for k in kinks if k[0] > r_min]
        found = []
        for (a, *start), (b, *stop) in zip(rho, rho[1:]):
            tu, tv = 0.5 * (a + b) * c - i, 0.5 * (a + b) * s - j
            if abs(tu) < 1.0 and abs(tv) < 1.0:
                found.append((start, stop, math.copysign(1.0, tu), math.copysign(1.0, tv)))
        return found

    def ray(theta, found, part=sum):  # the radial integral along theta over ``found``
        d = math.cos(theta), math.sin(theta)
        total = 0.0
        for (na, axis_a), (nb, axis_b), su, sv in found:
            a = r_min if axis_a is None else na / d[axis_a]
            b = nb / d[axis_b]
            u0, u1, v0, v1 = 1.0 + su * i, -su * d[0], 1.0 + sv * j, -sv * d[1]
            terms = [w * power_integral(a, b, e - alpha) for w, e in
                     ((u0 * v0, 2.0), (u0 * v1 + u1 * v0, 3.0), (u1 * v1, 4.0))]
            total += part(terms)
        return total

    def magnitude(terms):  # with ray, the terms' size, which bounds their rounding
        return sum(map(abs, terms))

    lo, hi, fold = ((0.0, math.pi / 4.0, 8.0) if i == j == 0
                    else (0.0, math.pi, 2.0) if j == 0 else (-math.pi, math.pi, 1.0))
    pts = [(i + u, j + v) for u in (-1, 0, 1) for v in (-1, 0, 1)]
    for t in (-1, 0, 1):  # where the circle rho = r_min crosses a kink line
        h = math.sqrt(max((r_min - i - t) * (r_min + i + t), 0.0))
        g = math.sqrt(max((r_min - j - t) * (r_min + j + t), 0.0))
        pts += [(i + t, h), (i + t, -h), (g, j + t), (-g, j + t)]
    cuts = sorted({lo, hi} | {x for x in [k * math.pi / 4.0 for k in range(-4, 5)]
                              + [math.atan2(y, x) for x, y in pts if x or y] if lo < x < hi})
    try:
        # within a span the kinks keep their order and the pieces their signs
        spans = [(a, b, pieces(0.5 * (a + b))) for a, b in zip(cuts, cuts[1:])]
        spans = [(a, b, found, ray(0.5 * (a + b), found, magnitude)) for a, b, found in spans]
        # near a kernel zero the terms cancel: ask no more than their rounding allows
        floor = 1e-15 * sum(size * (b - a) for a, b, _, size in spans)
        parts = [quad(ray, a, b, args=(found,), epsabs=floor, epsrel=1e-13, limit=50,
                      full_output=1) for a, b, found, size in spans if size]
    except OverflowError:
        parts = [(math.inf, 0.0, {}, "r^-alpha overflows the float range")]
    total = fold * sum(part[0] for part in parts)
    failure = [part[3].splitlines()[0] for part in parts if len(part) > 3]
    if failure or not math.isfinite(total):
        raise ConfigurationError(
            "path-gain moment for pairing floor r_min=%g cluster sides at alpha=%g: %s; "
            "raise the pairing floor or lower alpha"
            % (r_min, alpha, (failure or ["the sum overflows the float range"])[0]))
    return total


# typed: a bool must not hit the entry of the equal float and skip its refusal
@functools.lru_cache(maxsize=64, typed=True)
def path_gain_moments(alpha: float, r_min: float = 0.0) -> GeometryTable:
    """Compute the truncated moments ``q1`` and ``q2``.

    Both come from :func:`offset_moment`.  Memoized (a pure function
    returning a frozen table): a sweep pays for each ``(alpha, r_min)`` once.

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
        For an ``alpha`` or ``r_min`` that breaks its rule
        (:func:`coopd2d.errors.check_number`: a finite number ``>= 0``,
        not a bool); for ``r_min >= sqrt(5)``: a pairing floor that long
        excludes every signal and interference distance, so no link rate
        exists; and when the kernel's ``quad`` does not converge,
        ``r^-alpha`` overflows, a moment comes out non-finite, or the
        interference moment underflows to 0.

    Examples
    --------
    >>> t = path_gain_moments(0.0, 0.0)
    >>> round(t.q1, 6), round(t.q2, 6)
    (9.0, 1.0)
    """
    check_number("alpha", alpha)
    check_number("r_min", r_min)
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

    s = offset_moment(alpha, r_min, 0, 0)
    q2 = offset_moment(alpha, r_min, 1, 0)
    if q2 == 0.0:
        raise ConfigurationError(
            "path-gain moment underflows to 0 for pairing floor r_min=%g cluster "
            "sides at alpha=%g (r^-alpha falls below the float range); lower "
            "the pairing floor or alpha" % (r_min, alpha)
        )
    return GeometryTable(alpha=float(alpha), r_min=float(r_min), q1=s + 8.0 * q2, q2=q2)

