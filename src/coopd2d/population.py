"""Request-outcome distribution and expected user-class sizes.

Per snapshot, each of the ``M = K * B`` users draws one file group from the
full catalog.  A user is

* cooperative if its group is hit by every cluster (joint transmission
  serves these),
* non-cooperative if its group is cached in-cluster (index ``< K``) but not
  network-wide hit,
* cellular otherwise (group index ``>= K``; only counted, never rated).

The pipeline takes the cooperative mean from linearity of expectation, exact
for i.i.d. requests at any size.  An enumeration of per-cluster request
compositions in exact rational arithmetic (bit for bit against brute force)
cross-checks it; the sampled counterpart is the snapshot simulator's
:func:`coopd2d.netsim.snapshot_counts`, which classifies requests as the
campaigns do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import PopularityModel, cumulative_cached_prob
from .clusters import hit_probability
from .errors import (
    ConfigurationError, ConsistencyError, EnumerationBudgetError, check_cached_groups, check_number
)

__all__ = [
    "PopulationSummary",
    "expected_coop_users_closed",
    "expected_coop_users_exact",
    "expected_cellular_and_noncoop",
]

# Largest raw configuration space exact enumeration stands in for.
_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class PopulationSummary:
    """Expected user-class sizes."""

    coop_mean: float
    cellular_mean: float
    noncoop_mean: float


def _summary(model: PopularityModel, k: int, b: int, coop_mean: float) -> PopulationSummary:
    cellular_mean, noncoop_mean = expected_cellular_and_noncoop(
        model, k * b, k, coop_mean
    )
    return PopulationSummary(coop_mean, cellular_mean, noncoop_mean)


def expected_coop_users_closed(
    model: PopularityModel, users_per_cluster: int, n_clusters: int
) -> PopulationSummary:
    """Exact expected user-class sizes by linearity of expectation.

    A user is cooperative iff its request falls in a cached group ``k`` that
    the other ``B - 1`` clusters hit too, so ``coop_mean = K B sum_k P_k
    hit_k^(B-1)`` with ``hit_k = 1 - (1 - P_k)^K``.
    """
    k, b = users_per_cluster, n_clusters
    check_number("n_clusters", b)
    ph = hit_probability(model, k)
    coop_mean = k * b * float(np.sum(model.group_probs[:k] * ph ** (b - 1)))
    return _summary(model, k, b, coop_mean)


def _multichoose(n: int, k: int) -> int:
    """Number of compositions of k into n non-negative parts."""
    return math.comb(n + k - 1, k)


def _compositions(total: int, parts: int):
    """Yield all tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def expected_coop_users_exact(
    model: PopularityModel,
    users_per_cluster: int,
    n_clusters: int,
) -> PopulationSummary:
    """Exact expected cooperative-user count by composition enumeration.

    Enumerates the per-cluster composition space once, accumulating for every
    cached group ``k`` the hit probability ``A_k`` and the expected request
    count ``S_k`` as exact rationals; cluster independence and
    exchangeability then give

        coop_mean = B * sum_k S_k * A_k^(B-1).

    Requests to uncached groups are lumped into a single remainder part,
    which is exact (multinomial merging) and keeps the enumeration at
    ``multichoose(K+1, K)`` terms.

    Parameters
    ----------
    model : PopularityModel
    users_per_cluster, n_clusters : int
        ``K`` and ``B``.
    Returns
    -------
    PopulationSummary

    Raises
    ------
    EnumerationBudgetError
        When ``multichoose(group_count, K) ** B`` (the raw configuration
        space this computation stands in for) exceeds
        ``_ENUMERATION_BUDGET`` (10 million); use
        :func:`expected_coop_users_closed` instead.
    """
    k0 = model.group_count
    k, b = users_per_cluster, n_clusters
    check_cached_groups("users_per_cluster", k, k0)
    check_number("n_clusters", b)
    space = _multichoose(k0, k) ** b
    if space > _ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            "configuration space holds %d terms (budget %d); use "
            "expected_coop_users_closed for this instance"
            % (space, _ENUMERATION_BUDGET)
        )

    # Exact rationals of the stored float probabilities.  The remainder part
    # must be the SUM of the uncached entries, not 1 minus the cached sum:
    # the floats do not sum to exactly 1 as rationals, and bit-for-bit
    # agreement with raw outcome enumeration depends on using the same values.
    p = [Fraction(float(x)) for x in model.group_probs]
    parts = p[:k] + ([sum(p[k:], Fraction(0))] if k < k0 else [])
    n_parts = len(parts)

    hit_prob = [Fraction(0)] * k  # A_k
    mean_count = [Fraction(0)] * k  # S_k
    fact_k = math.factorial(k)
    for comp in _compositions(k, n_parts):
        coeff = fact_k
        for n in comp:
            coeff //= math.factorial(n)
        mass = Fraction(coeff)
        for n, prob in zip(comp, parts):
            if n:
                mass *= prob**n
        for g in range(k):
            if comp[g]:
                hit_prob[g] += mass
                mean_count[g] += mass * comp[g]

    nc = b * sum(
        (s * a ** (b - 1) for s, a in zip(mean_count, hit_prob)), Fraction(0)
    )
    return _summary(model, k, b, float(nc))


def expected_cellular_and_noncoop(
    model: PopularityModel,
    n_users: int,
    users_per_cluster: int,
    coop_mean: float,
) -> tuple[float, float]:
    """Expected cellular and non-cooperative counts given the coop mean.

    The cellular count is binomial with success probability equal to the
    uncached tail mass, so its mean is closed-form; the non-cooperative mean
    is the remainder.

    Raises
    ------
    ConsistencyError
        If the implied non-cooperative mean is negative beyond roundoff,
        which signals an inconsistent ``coop_mean``.
    """
    check_number("n_users", n_users)
    check_cached_groups("users_per_cluster", users_per_cluster, model.group_count)
    if not 0.0 <= coop_mean <= n_users:
        raise ConfigurationError(
            "coop_mean must be in [0, n_users], got %r" % (coop_mean,)
        )
    cellular_mean = n_users * (1.0 - cumulative_cached_prob(model, users_per_cluster))
    noncoop_mean = n_users - coop_mean - cellular_mean
    if noncoop_mean < -1e-9 * max(1.0, float(n_users)):
        raise ConsistencyError(
            "negative non-cooperative mean (%r): coop_mean inconsistent with "
            "the catalog" % (noncoop_mean,)
        )
    return cellular_mean, max(0.0, noncoop_mean)
