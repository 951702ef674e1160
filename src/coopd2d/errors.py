"""Exception types shared across the package, and the input rule of each named quantity.

Two kinds of failure: configuration problems (bad inputs, impossible
parameter combinations, divergent moments) and an exact enumeration refused
for exceeding its term budget.

:func:`check_number` is the one statement of the type and range each named
quantity must have: config files, flags and every public entry point that
takes one of these names check it here.  :func:`check_cached_groups` is the
one statement of the model's structural rule, a cluster of at most as many
users as there are cacheable file groups, and :func:`check_split_inputs` the
rule of the band split's derived inputs.  This module imports no other
module of the package, so every module can import it.
"""

import math
import numbers

__all__ = [
    "CoopD2DError",
    "ConfigurationError",
    "DivergenceError",
    "EnumerationBudgetError",
    "NUMERIC_RULES",
    "check_number",
    "check_cached_groups",
    "check_split_inputs",
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


def check_cached_groups(name: str, value, group_count: int) -> None:
    """Refuse a count ``value`` of cached groups (``users_per_cluster`` or
    ``n_cached_groups``) that breaks its rule or exceeds ``group_count``: user
    ``k`` of every cluster caches file group ``k``, so ``K`` users need ``K``
    distinct cacheable groups."""
    check_number(name, value)
    if value > group_count:
        raise ConfigurationError(
            "%s must be at most the %d cacheable file groups, got %r" % (name, group_count, value)
        )


def check_split_inputs(pc, *named) -> None:
    """Refuse, naming it, a cooperation probability ``pc`` outside [0, 1] or a
    NaN, infinite or negative value of a ``(name, value)`` pair in ``named``
    (rates, class means).  Plain comparisons, cheaper than :func:`check_number`,
    as the band split is solved once per rate floor."""
    if not 0.0 <= pc <= 1.0:
        raise ConfigurationError("pc must be in [0, 1], got %r" % (pc,))
    for name, value in named:
        if not 0.0 <= value < math.inf:
            raise ConfigurationError("%s must be a finite number >= 0, got %r" % (name, value))
