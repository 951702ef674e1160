"""Analysis and simulation of cache-enabled cooperative D2D hotspots.

A dense hotspot is partitioned into square clusters; users cache disjoint
popular-file groups and serve each other device-to-device.  When every
cluster holds a locally requested copy of the same group, the per-cluster
transmitters form a zero-forcing broadcast set over a dedicated band.  The
package provides the analytic chain (popularity, cooperation probability,
truncated distance-moment link rates, user-class populations, optimal band
split, cluster sizing) and a Monte Carlo network simulator that measures
what the closed forms predict.
"""

from . import defaults
from .bandwidth import BandwidthSolution, optimize_eta
from .catalog import PopularityModel, build_popularity, cumulative_cached_prob
from .clusters import (
    ClusterPlan,
    coop_probability,
    expected_active_coop,
    hit_probability,
    make_plan,
    optimize_cluster_size,
)
from .errors import (
    ConfigurationError,
    ConsistencyError,
    CoopD2DError,
    DivergenceError,
    EnumerationBudgetError,
    SingularChannelError,
)
from .experiments import (
    ExperimentSpec,
    analytic_point,
    grid_search_eta,
    sim_feasible_cluster_sizes,
    spec_from_mapping,
)
from .geometry import (
    SQRT2,
    SQRT5,
    GeometryTable,
    dump_pdf_table,
    interference_pdf,
    path_gain_moments,
    signal_pdf,
)
from .netsim import (
    TRIAL_DTYPE,
    SimConfig,
    SimResult,
    Snapshot,
    drop_snapshot,
    noncoop_rates,
    run_campaign,
    schedule,
    zf_rates,
)
from .population import (
    PopulationSummary,
    expected_cellular_and_noncoop,
    expected_coop_users_closed,
    expected_coop_users_exact,
    expected_coop_users_mc,
)
from .rates import (
    RadioParams,
    coop_link_rate,
    dbm_to_watts,
    network_throughput,
    noncoop_link_rate,
)

__version__ = "0.1.0"

__all__ = [
    "defaults",
    "BandwidthSolution",
    "optimize_eta",
    "PopularityModel",
    "build_popularity",
    "cumulative_cached_prob",
    "ClusterPlan",
    "make_plan",
    "hit_probability",
    "coop_probability",
    "expected_active_coop",
    "optimize_cluster_size",
    "CoopD2DError",
    "ConfigurationError",
    "DivergenceError",
    "EnumerationBudgetError",
    "ConsistencyError",
    "SingularChannelError",
    "ExperimentSpec",
    "spec_from_mapping",
    "analytic_point",
    "grid_search_eta",
    "sim_feasible_cluster_sizes",
    "SQRT2",
    "SQRT5",
    "GeometryTable",
    "signal_pdf",
    "interference_pdf",
    "path_gain_moments",
    "dump_pdf_table",
    "SimConfig",
    "Snapshot",
    "SimResult",
    "TRIAL_DTYPE",
    "drop_snapshot",
    "schedule",
    "zf_rates",
    "noncoop_rates",
    "run_campaign",
    "PopulationSummary",
    "expected_coop_users_closed",
    "expected_coop_users_exact",
    "expected_coop_users_mc",
    "expected_cellular_and_noncoop",
    "RadioParams",
    "dbm_to_watts",
    "noncoop_link_rate",
    "coop_link_rate",
    "network_throughput",
    "__version__",
]
