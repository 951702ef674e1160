"""Analysis and simulation of cache-enabled cooperative D2D hotspots.

A dense hotspot is partitioned into square clusters; users cache disjoint
popular-file groups and serve each other device-to-device.  When every
cluster holds a locally requested copy of the same group, the per-cluster
transmitters form a zero-forcing broadcast set over a dedicated band.  The
package provides the analytic chain (popularity, cooperation probability,
truncated distance-moment link rates, user-class populations, optimal band
split, cluster sizing) and a Monte Carlo network simulator that measures
what the closed forms predict.

The package namespace holds the names of the README's quick start; every
other name is imported from its own module (``coopd2d.netsim``,
``coopd2d.population``, ...).
"""

from .catalog import build_popularity
from .clusters import optimize_cluster_size
from .experiments import ExperimentSpec, analytic_point
from .netsim import SimConfig, run_campaign

__version__ = "0.1.0"

__all__ = [
    "build_popularity",
    "optimize_cluster_size",
    "ExperimentSpec",
    "analytic_point",
    "SimConfig",
    "run_campaign",
    "__version__",
]
