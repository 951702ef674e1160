"""Request-outcome distribution and expected user-class sizes.

Per snapshot, each of the ``M = K * B`` users draws one file group from the
full catalog.  A user is

* cooperative if its group is hit by every cluster (joint transmission
  serves these),
* non-cooperative if its group is cached in-cluster (index ``< K``) but not
  network-wide hit,
* cellular otherwise (group index ``>= K``; only counted, never rated).

:func:`expected_coop_users_closed` states the class split once, in closed
form.  :func:`expected_coop_users_exact` cross-checks its cooperative mean by
enumerating per-cluster request compositions in exact rational arithmetic
(bit for bit against brute force); the sampled counterpart is
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
from .errors import EnumerationBudgetError, check_cached_groups, check_number

__all__ = [
    "PopulationSummary",
    "expected_coop_users_closed",
    "expected_coop_users_exact",
]

# Largest raw configuration space exact enumeration stands in for.
_ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class PopulationSummary:
    """Expected user-class sizes."""

    coop_mean: float
    cellular_mean: float
    noncoop_mean: float


def expected_coop_users_closed(
    model: PopularityModel, users_per_cluster: int, n_clusters: int
) -> PopulationSummary:
    """Exact expected user-class sizes of the ``M = K B`` users.

    A user is cooperative iff its request falls in a cached group ``k`` that
    the other ``B - 1`` clusters hit too, so by linearity of expectation
    ``coop_mean = M sum_k P_k hit_k^(B-1)`` with ``hit_k = 1 - (1 - P_k)^K``.
    ``cellular_mean = M (1 - sum_{k<K} P_k)`` and the non-cooperative mean is
    the remainder, a roundoff below zero clamped to zero.
    """
    k, b = users_per_cluster, n_clusters
    check_number("n_clusters", b)
    ph = hit_probability(model, k)
    m = k * b
    coop_mean = m * float(np.sum(model.group_probs[:k] * ph ** (b - 1)))
    cellular_mean = m * (1.0 - cumulative_cached_prob(model, k))
    noncoop_mean = max(0.0, m - coop_mean - cellular_mean)
    return PopulationSummary(coop_mean, cellular_mean, noncoop_mean)


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
) -> float:
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
    float
        ``coop_mean``; the other class means are the closed form's.

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
    space = math.comb(k0 + k - 1, k) ** b
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

    return float(b * sum((s * a ** (b - 1) for s, a in zip(mean_count, hit_prob)), Fraction(0)))

