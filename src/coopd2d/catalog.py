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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, check_number

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


def build_popularity(n_files: int, cache_size: int, beta: float) -> PopularityModel:
    """Build the per-group request distribution of a Zipf catalog.

    Parameters
    ----------
    n_files : int
        Catalog size, a positive integer multiple of ``cache_size``.
    cache_size : int
        Files per group (per-user cache capacity), a positive integer.
    beta : float
        Zipf skew, finite and ``>= 0``.

    Returns
    -------
    PopularityModel

    Raises
    ------
    ConfigurationError
        If an argument breaks its rule (:func:`coopd2d.errors.check_number`:
        a bool, a float count, a negative or non-finite skew) or ``n_files``
        is not a multiple of ``cache_size``.

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
    for name, value in (("n_files", n_files), ("cache_size", cache_size), ("beta", beta)):
        check_number(name, value)
    if n_files < cache_size:
        raise ConfigurationError(
            "n_files (%r) must be >= cache_size (%r)" % (n_files, cache_size)
        )
    if n_files % cache_size != 0:
        raise ConfigurationError(
            "n_files (%r) must be an exact multiple of cache_size (%r)"
            % (n_files, cache_size)
        )

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
        If ``n_cached_groups`` is not an integer (a bool included) or is out
        of range.
    """
    check_number("n_cached_groups", n_cached_groups)
    if n_cached_groups > model.group_count:
        raise ConfigurationError(
            "n_cached_groups must be in [1, %d], got %r"
            % (model.group_count, n_cached_groups)
        )
    return math.fsum(model.group_probs[:n_cached_groups])
