"""Exception types shared across the package, and the input rule of each named quantity.

The split mirrors how failures surface at the command line: configuration
problems (bad inputs, impossible parameter combinations) versus consistency
problems detected while computing.

:func:`check_number` is the one statement of the type and range each named
quantity must have: config files, flags and every public entry point that
takes one of these names check it here.  This module imports no other
module of the package, so every module can import it.
"""

import math
import numbers

__all__ = [
    "CoopD2DError",
    "ConfigurationError",
    "DivergenceError",
    "EnumerationBudgetError",
    "ConsistencyError",
    "NUMERIC_RULES",
    "check_number",
]


class CoopD2DError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CoopD2DError, ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class DivergenceError(ConfigurationError):
    """A requested moment integral does not converge.

    Raised instead of returning inf/nan so callers can distinguish a
    mathematically divergent request from a numerical failure.
    """


class EnumerationBudgetError(CoopD2DError):
    """Exact enumeration refused because the term count exceeds the budget."""


class ConsistencyError(CoopD2DError):
    """Derived quantities violate an internal conservation law."""


# Named quantities as (type, bound, bound test, names).  Floats must also be
# finite; bools are refused although Python counts them as ints.  The dB
# fields have no bound here: RadioParams checks their linear values.
# ``r_min`` is the pairing floor in cluster sides; ``n_clusters (real)`` is
# the cluster count B = M / K that the analytic chain takes as a real number.
NUMERIC_RULES = (
    (int, "> 0", lambda v: v > 0, ("n_clusters", "users_per_cluster", "n_users",
                                   "n_files", "cache_size", "trials", "n_jobs",
                                   "n_cached_groups")),
    (int, ">= 0", lambda v: v >= 0, ("seed",)),
    (float, ">= 1", lambda v: v >= 1, ("n_clusters (real)",)),
    (float, "> 0", lambda v: v > 0, ("hotspot_side_m", "bandwidth_hz")),
    (float, ">= 0", lambda v: v >= 0, ("beta", "alpha", "mu_bps",
                                       "min_pairing_distance_m", "r_min")),
    (float, "in [0, 1]", lambda v: 0 <= v <= 1, ("eta",)),
    (float, "", lambda v: True, ("tx_power_dbm", "noise_dbm", "path_loss_intercept_db")),
)
_RULE_OF = {name: rule[:3] for rule in NUMERIC_RULES for name in rule[3]}


def check_number(name: str, value) -> None:
    """Refuse a ``value`` of the quantity ``name`` that breaks its rule in
    :data:`NUMERIC_RULES`, with a :class:`ConfigurationError` naming it."""
    kind, bound, holds = _RULE_OF[name]
    try:
        ok = (
            not isinstance(value, bool)
            and isinstance(value, numbers.Integral if kind is int else numbers.Real)
            and math.isfinite(value)
            and holds(value)
        )
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigurationError("%s must be %s, got %r" % (name, (noun + " " + bound).strip(), value))
