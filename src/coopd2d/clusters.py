"""Hit and cooperation probabilities, and the optimal cluster-size search.

A hotspot square of side ``hotspot_side_m`` holding ``n_users`` users is split
into ``n_clusters`` equal square cells of side ``hotspot_side_m / sqrt(B)``,
each with ``users_per_cluster`` users.  User ``k`` of every cluster caches
file group ``k``, so a group is "hit" by a cluster when at least one of its
users requests that group, and the network can run a cooperative joint
transmission whenever some group is hit by every cluster simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .catalog import PopularityModel
from .errors import ConfigurationError, check_number

__all__ = [
    "ClusterPlan",
    "make_plan",
    "hit_probability",
    "coop_probability",
    "expected_active_coop",
    "optimize_cluster_size",
]


@dataclass(frozen=True)
class ClusterPlan:
    """Hotspot partition geometry.

    Attributes
    ----------
    hotspot_side_m : float
        Side length of the hotspot square, meters.
    n_clusters : int
        Number of square cells ``B``.
    users_per_cluster : int
        Users per cell ``K``.
    """

    hotspot_side_m: float
    n_clusters: int
    users_per_cluster: int

    def __post_init__(self) -> None:
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))
        if not self.cluster_side_m > 0:
            raise ConfigurationError(
                "hotspot_side_m (%r) gives a cell side over %d clusters that underflows to 0"
                % (self.hotspot_side_m, self.n_clusters)
            )

    @property
    def cluster_side_m(self) -> float:
        """Cell side, ``hotspot_side_m / sqrt(n_clusters)``."""
        return self.hotspot_side_m / math.sqrt(self.n_clusters)

    @property
    def n_users(self) -> int:
        """Total users ``M = K * B``."""
        return self.users_per_cluster * self.n_clusters


def make_plan(hotspot_side_m: float, n_clusters: int, users_per_cluster: int) -> ClusterPlan:
    """Construct a :class:`ClusterPlan` from plain numbers, checked before the
    casts (``int`` would truncate 9.5 clusters to 9)."""
    for f, value in zip(fields(ClusterPlan), (hotspot_side_m, n_clusters, users_per_cluster)):
        check_number(f.name, value)
    return ClusterPlan(
        hotspot_side_m=float(hotspot_side_m),
        n_clusters=int(n_clusters),
        users_per_cluster=int(users_per_cluster),
    )


def hit_probability(model: PopularityModel, users_per_cluster: int) -> np.ndarray:
    """Per-group probability that a cluster hits each cached group.

    Group ``k`` is hit when at least one of the ``K`` independent requests in
    the cluster falls in it:  ``1 - (1 - P_k)^K``.

    Parameters
    ----------
    model : PopularityModel
    users_per_cluster : int
        Cluster size ``K``, ``1 <= K <= model.group_count``.

    Returns
    -------
    numpy.ndarray
        Shape ``(K,)``: hit probabilities for the cached groups ``0..K-1``.

    Raises
    ------
    ConfigurationError
        If ``users_per_cluster`` is out of range.
    """
    k = users_per_cluster
    check_number("users_per_cluster", k)
    if k > model.group_count:
        raise ConfigurationError(
            "users_per_cluster must be in [1, %d], got %r" % (model.group_count, k)
        )
    return 1.0 - (1.0 - model.group_probs[:k]) ** k


def coop_probability(model: PopularityModel, users_per_cluster: int, n_clusters: float) -> float:
    """Probability that at least one cached group is hit by every cluster.

    Treating per-group hits as independent across groups and clusters,

        P_coop = 1 - prod_k (1 - hit_k ** B).

    Evaluated fully in log domain: ``hit_k ** B`` as ``exp(B * log hit_k)``
    (safe for the huge real-valued ``B`` of the analytic search) and the
    complement product via ``log1p``/``expm1`` so factors below 1e-300 cannot
    flush the product to a rounded 0 or 1.

    Parameters
    ----------
    model : PopularityModel
    users_per_cluster : int
        Cluster size ``K``.
    n_clusters : float
        Cluster count ``B``, a finite number >= 1; real values are allowed
        (the analytic cluster-size search uses ``B = M / K``).

    Returns
    -------
    float
        Probability in [0, 1].
    """
    check_number("n_clusters (real)", n_clusters)
    ph = hit_probability(model, users_per_cluster)
    # hit_k == 1 would send log through -0.0; the exact value is then 1.
    if np.any(ph >= 1.0):
        return 1.0
    log_pow = float(n_clusters) * np.log(ph)
    # 0.0 - x, not -x: when every hit_k ** B underflows the sum is 0.0, and
    # -expm1(0.0) would be -0.0
    return 0.0 - math.expm1(math.fsum(np.log1p(-np.exp(log_pow))))


def expected_active_coop(model: PopularityModel, n_users: int, users_per_cluster: int) -> float:
    """Expected number of simultaneously active cooperative links.

    One cooperative link runs per cluster whenever cooperation is possible,
    so the expectation is ``B * P_coop`` with ``B = n_users / K`` taken as a
    real number (integer divisibility is not required here; the simulator is
    the component that insists on integral grids).

    Returns
    -------
    float
        Value in ``[0, B]``.
    """
    check_number("n_users", n_users)
    check_number("users_per_cluster", users_per_cluster)
    if n_users < users_per_cluster:
        raise ConfigurationError("n_users must be >= users_per_cluster")
    b = n_users / users_per_cluster
    return b * coop_probability(model, users_per_cluster, b)


def optimize_cluster_size(model: PopularityModel, n_users: int):
    """Exhaustive search for the cluster size maximizing active coop links.

    Evaluates ``K`` over ``1..min(group_count, n_users)`` with real-valued
    ``B = n_users / K`` and returns the argmax of ``B * P_coop``.

    Parameters
    ----------
    model : PopularityModel
    n_users : int
        Total user count ``M >= 1``.

    Returns
    -------
    k_star : int
        Maximizing cluster size; ties broken toward the smaller ``K``
        (more active links for the same objective).
    objective : float
        ``B * P_coop`` at ``k_star``.
    profile : numpy.ndarray
        Shape ``(n_candidates, 2)``; column 0 the candidate ``K``, column 1
        its objective.  Useful for plotting the whole curve.
    """
    check_number("n_users", n_users)
    candidates = range(1, min(model.group_count, n_users) + 1)
    profile = np.array(
        [[k, expected_active_coop(model, n_users, k)] for k in candidates]
    )
    best = int(np.argmax(profile[:, 1]))  # argmax takes the first = smallest K
    return int(profile[best, 0]), float(profile[best, 1]), profile
