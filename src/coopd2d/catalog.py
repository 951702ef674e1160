"""Zipf file popularity and file-group request probabilities.

The content catalog holds ``n_files`` files ranked by popularity under a Zipf
law with skew ``beta``.  Files are partitioned into consecutive groups of
``cache_size`` files each (the cache placement unit: user ``k`` of every
cluster caches group ``k``), so the request process is fully described by the
per-group probabilities

    P_k = (sum of i^-beta over ranks in group k) / (sum over all ranks),

for k = 0..group_count-1 (0-based group indices throughout the package).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = ["PopularityModel", "build_popularity", "cumulative_cached_prob"]


@dataclass(frozen=True)
class PopularityModel:
    """Immutable Zipf catalog with per-group request probabilities.

    Attributes
    ----------
    n_files : int
        Catalog size (number of ranked files).
    cache_size : int
        Files per group, equal to the per-user cache capacity.
    beta : float
        Zipf skew; ``beta = 0`` is uniform popularity.
    group_count : int
        Number of groups, ``n_files // cache_size`` (exact division).
    group_probs : numpy.ndarray
        Shape ``(group_count,)``; ``group_probs[k]`` is the probability that
        a request falls in group ``k``.  Read-only, sums to 1.
    """

    n_files: int
    cache_size: int
    beta: float
    group_count: int
    group_probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.group_probs.shape != (self.group_count,):
            raise ConfigurationError(
                "group_probs has shape %s, expected (%d,)"
                % (self.group_probs.shape, self.group_count)
            )
        self.group_probs.setflags(write=False)


# typed: an argument of another type (300.0 files, an np.float64 skew) gets
# its own entry, so every call returns what an uncached call would
@functools.lru_cache(maxsize=1, typed=True)
def build_popularity(n_files: int, cache_size: int, beta: float) -> PopularityModel:
    """Build the per-group request distribution of a Zipf catalog.

    Memoized (a pure function returning a frozen model with read-only
    probabilities), as :func:`coopd2d.geometry.path_gain_moments` is, but
    for the last catalog only: the commands sweep the skew outermost with
    the catalog size fixed, so consecutive calls repeat one catalog (an
    ``optimize-bandwidth`` sweep's rate floors, ``compare``'s strategies at
    one skew), and one entry serves them without holding a large catalog
    per skew.  A refusal raises on every call.

    Parameters
    ----------
    n_files : int
        Catalog size.  Must be a positive multiple of ``cache_size``.
    cache_size : int
        Files per group (per-user cache capacity), at least 1.
    beta : float
        Zipf skew, ``beta >= 0``.

    Returns
    -------
    PopularityModel

    Raises
    ------
    ConfigurationError
        If ``n_files`` is not divisible by ``cache_size``, bounds are
        violated, or ``beta`` is negative.

    Notes
    -----
    Group sums use :func:`math.fsum`, which is exactly rounded independent of
    summation order; the catalog is small (thousands of terms) so no
    asymptotic expansion of the harmonic sums is ever needed.

    Examples
    --------
    >>> m = build_popularity(300, 20, 0.0)
    >>> float(m.group_probs[0])
    0.06666666666666667
    """
    if cache_size < 1:
        raise ConfigurationError("cache_size must be >= 1, got %r" % (cache_size,))
    if n_files < cache_size:
        raise ConfigurationError(
            "n_files (%r) must be >= cache_size (%r)" % (n_files, cache_size)
        )
    if n_files % cache_size != 0:
        raise ConfigurationError(
            "n_files (%r) must be an exact multiple of cache_size (%r)"
            % (n_files, cache_size)
        )
    if not (beta >= 0.0):
        raise ConfigurationError("beta must be >= 0, got %r" % (beta,))

    group_count = n_files // cache_size
    ranks = np.arange(1, n_files + 1, dtype=np.float64)
    weights = ranks ** (-float(beta))
    total = math.fsum(weights)
    probs = np.array(
        [
            math.fsum(weights[k * cache_size : (k + 1) * cache_size]) / total
            for k in range(group_count)
        ]
    )
    return PopularityModel(
        n_files=int(n_files),
        cache_size=int(cache_size),
        beta=float(beta),
        group_count=group_count,
        group_probs=probs,
    )


def cumulative_cached_prob(model: PopularityModel, n_cached_groups: int) -> float:
    """Probability that a request falls in the first ``n_cached_groups`` groups.

    With ``K`` users per cluster caching groups ``0..K-1``, this is the
    probability that a request is servable from some in-cluster cache; its
    complement drives the expected cellular-user count.

    Parameters
    ----------
    model : PopularityModel
    n_cached_groups : int
        Usually the cluster size ``K``; must satisfy
        ``1 <= n_cached_groups <= model.group_count``.

    Returns
    -------
    float
        ``sum(group_probs[:n_cached_groups])``.

    Raises
    ------
    ConfigurationError
        If ``n_cached_groups`` is out of range.
    """
    if not 1 <= n_cached_groups <= model.group_count:
        raise ConfigurationError(
            "n_cached_groups must be in [1, %d], got %r"
            % (model.group_count, n_cached_groups)
        )
    return math.fsum(model.group_probs[:n_cached_groups])
