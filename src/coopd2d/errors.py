"""Exception types shared across the package, and the input rule of each named quantity.

Two kinds of failure: configuration problems (bad inputs, impossible
parameter combinations, divergent moments) and an exact enumeration refused
for exceeding its term budget.

:func:`check_number` is the one statement of the type and range each named
quantity must have: config files, flags and every public entry point that
takes one of these names check it here.  :func:`check_cached_groups` is the
one statement of the model's structural rule, a cluster of at most as many
users as there are cacheable file groups, and :func:`check_split_program`
applies the rules of every input of the band-split program.  This module
imports no other module of the package, so every module can import it.
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
    "check_split_program",
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
# The band split's derived inputs are ``pc``, ``rc``, ``rn``, ``nc_bar`` and ``nn_bar``.
NUMERIC_RULES = (
    (int, "> 0", lambda v: v > 0, ("n_clusters", "users_per_cluster", "n_users",
                                   "n_files", "cache_size", "trials", "n_jobs",
                                   "n_cached_groups")),
    (int, ">= 0", lambda v: v >= 0, ("seed",)),
    (float, ">= 1", lambda v: v >= 1, ("n_clusters (real)",)),
    (float, "> 0", lambda v: v > 0, ("hotspot_side_m", "bandwidth_hz")),
    (float, ">= 0", lambda v: v >= 0, ("beta", "alpha", "mu_bps",
                                       "min_pairing_distance_m", "r_min",
                                       "rc", "rn", "nc_bar", "nn_bar")),
    (float, "in [0, 1]", lambda v: 0 <= v <= 1, ("eta", "pc")),
    (float, "", lambda v: True, ("tx_power_dbm", "noise_dbm", "path_loss_intercept_db")),
)
_RULE_OF = {name: rule[:3] for rule in NUMERIC_RULES for name in rule[3]}


def check_number(name: str, value) -> None:
    """Refuse a ``value`` of the quantity ``name`` that breaks its rule in
    :data:`NUMERIC_RULES`, with a :class:`ConfigurationError` naming it."""
    kind, bound, holds = _RULE_OF[name]
    cls = type(value)
    try:
        if cls is float or cls is int:  # the common types, without the ``numbers`` lookups
            typed = cls is int or kind is float
        else:
            typed = not isinstance(value, bool) and isinstance(
                value, numbers.Integral if kind is int else numbers.Real
            )
        ok = typed and math.isfinite(value) and holds(value)
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


def check_split_program(pc, rc, rn, bandwidth_hz, n_clusters, nc_bar, nn_bar, mu) -> None:
    """Refuse, naming it, a bad input of the band-split program (``mu`` is ``mu_bps``)."""
    for name, value in (("bandwidth_hz", bandwidth_hz), ("n_clusters", n_clusters), ("mu_bps", mu),
                        ("pc", pc), ("rc", rc), ("rn", rn), ("nc_bar", nc_bar), ("nn_bar", nn_bar)):
        check_number(name, value)
