"""Optimal split of the D2D band between cooperative and other links.

Choose the fraction ``eta`` of the band given to cooperative links to
maximize average network throughput subject to per-user quality floors:

    maximize    W B (pc eta rc + (1 - pc eta) rn)
    subject to  W B eta rc / nc_bar      >= mu      (coop users)
                W B (1 - eta) rn / nn_bar >= mu     (non-coop users)
                0 <= eta <= 1

The objective is affine in ``eta``, so the optimum sits on a constraint
boundary and has a closed form.  A search of a 100,001-point grid that
shares no code with this module, :func:`coopd2d.experiments.grid_search_eta`,
cross-checks it in ``optimize-bandwidth`` (the ``eta_star_grid`` column) and
``validate``.  That search returns what a scan of every grid point returns,
but finds the feasible points by bisection and evaluates the objective only
in an error-bounded window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_split_program
from .rates import network_throughput

__all__ = ["BandwidthSolution", "optimize_eta"]


@dataclass(frozen=True)
class BandwidthSolution:
    """Outcome of the bandwidth-split optimization.

    Attributes
    ----------
    eta_star : float
        Optimal cooperative band fraction (nan when infeasible).
    objective : float
        Network throughput at ``eta_star`` in bits/s (nan when infeasible).
    binding : str
        Which bound the optimum sits on: ``"upper-bound"`` (eta=1),
        ``"noncoop-constraint"`` or ``"coop-constraint"``.  For infeasible
        problems, names the violated bound.
    feasible : bool
    mu_max : float
        Largest per-user floor for which the constraint set is non-empty,
        ``W B / (nc_bar / rc + nn_bar / rn)``; feasibility is monotone in
        ``mu`` so this is the actionable diagnostic when infeasible.
    """

    eta_star: float
    objective: float
    binding: str
    feasible: bool
    mu_max: float


def optimize_eta(
    pc: float,
    rc: float,
    rn: float,
    bandwidth_hz: float,
    n_clusters: int,
    nc_bar: float,
    nn_bar: float,
    mu: float,
) -> BandwidthSolution:
    """Closed-form solution of the bandwidth-partition program.

    Parameters
    ----------
    pc : float
        Cooperation probability (Mode-1 probability).
    rc, rn : float
        Cooperative / non-cooperative spectral efficiencies, bits/s/Hz.
    bandwidth_hz : float
        D2D band ``W``.
    n_clusters : int
        Cluster count ``B``.
    nc_bar, nn_bar : float
        Average cooperative / non-cooperative user counts.  A zero count
        makes the corresponding constraint vacuous.
    mu : float
        Per-user throughput floor, bits/s (the quantity ``mu_bps``).

    Returns
    -------
    BandwidthSolution

    Notes
    -----
    With ``lo = mu nc_bar / (W B rc)`` and ``hi = 1 - mu nn_bar / (W B rn)``
    the feasible set is ``[lo, min(hi, 1)]``.  A positive objective slope
    (``rc >= rn``) pushes ``eta`` up to ``min(hi, 1)``; a negative slope
    pushes it down to ``lo``.  The ``rc = rn`` tie returns the largest
    feasible ``eta``.  The analytically convenient open bound ``eta > 0`` is
    treated as its closure: ``mu = 0`` with ``rc < rn`` legitimately returns
    ``eta = 0``.
    """
    check_split_program(pc, rc, rn, bandwidth_hz, n_clusters, nc_bar, nn_bar, mu)

    wb = bandwidth_hz * n_clusters
    # Vacuous constraints: no users in a class, or no floor to honor.
    if mu == 0.0 or nc_bar == 0.0:
        lo = 0.0
    elif wb * rc > 0.0:
        lo = mu * nc_bar / (wb * rc)
    else:
        lo = math.inf  # positive floor, zero throughput (or one that underflows): unsatisfiable
    if mu == 0.0 or nn_bar == 0.0:
        hi = 1.0
    elif wb * rn > 0.0:
        hi = 1.0 - mu * nn_bar / (wb * rn)
    else:
        hi = -math.inf

    if rc > 0.0 and rn > 0.0 and (nc_bar > 0.0 or nn_bar > 0.0):
        mu_max = wb / (nc_bar / rc + nn_bar / rn)
    else:
        mu_max = math.inf if (nc_bar == 0.0 and nn_bar == 0.0) else 0.0

    upper = min(hi, 1.0)
    if lo > upper or lo > 1.0:
        violated = "coop-constraint" if lo > 1.0 else "noncoop-constraint"
        return BandwidthSolution(
            eta_star=math.nan,
            objective=math.nan,
            binding=violated,
            feasible=False,
            mu_max=mu_max,
        )

    if rc >= rn:
        # Non-decreasing objective: take the largest feasible eta.  This
        # branch also covers the rc == rn tie (flat objective, documented
        # tie-break toward the largest feasible value).
        eta = upper
        binding = "upper-bound" if eta == 1.0 else "noncoop-constraint"
    else:
        eta = min(lo, 1.0)
        binding = "upper-bound" if eta == 1.0 and lo >= 1.0 else "coop-constraint"

    return BandwidthSolution(
        eta_star=eta,
        objective=network_throughput(pc, eta, rc, rn, bandwidth_hz, n_clusters),
        binding=binding,
        feasible=True,
        mu_max=mu_max,
    )
