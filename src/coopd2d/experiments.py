"""Experiment orchestration: specs, the analytic pipeline, sweeps, CSV emission.

This layer glues the analytic modules to the simulator for the commands the
command line exposes (:data:`COMMANDS`): cluster-size profiles,
bandwidth-split sweeps, strategy comparisons, and raw campaign dumps.
:func:`analytic_point` is the one place the closed-form chain runs and
:func:`campaign_config` the one place a campaign is configured from it;
:mod:`coopd2d.checks` (``validate``) reads both instead of recomputing them.
All CSV output is byte-deterministic: floats are serialized with ``repr``
(shortest round trip), row order is fixed by the sweep definition, and a
schema tag line precedes the header.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import BandwidthSolution, optimize_eta
from .catalog import PopularityModel, build_popularity
from .clusters import (
    ClusterPlan,
    coop_probability,
    expected_active_coop,
    make_plan,
    optimize_cluster_size,
)
from .errors import (
    NUMERIC_RULES,
    ConfigurationError,
    check_cached_groups,
    check_number,
    check_split_program,
)
from .geometry import GeometryTable, path_gain_moments
from .netsim import SimConfig, SimResult, rate_sums, run_campaign, summarize
from .population import expected_coop_users_closed
from .rates import RadioParams, coop_link_rate, noncoop_link_rate

__all__ = [
    "COMMANDS",
    "ExperimentSpec",
    "spec_from_mapping",
    "analytic_point",
    "campaign_config",
    "grid_search_eta",
    "split_bandwidth",
    "sim_feasible_cluster_sizes",
    "cmd_optimize_cluster",
    "cmd_optimize_bandwidth",
    "cmd_compare",
    "cmd_simulate",
]

logger = logging.getLogger(__name__)

# Each command line command: the spec fields its flags set beyond --config and
# --seed, and the axes it may sweep.  A command refuses every other flag and
# axis, and a strategy or eta that its flags do not set.
COMMANDS = {
    "optimize-cluster": (("beta", "out"), ("beta", "n_users")),
    "optimize-bandwidth": (("beta", "mu_bps", "out"), ("beta", "mu_bps")),
    "compare": (("trials", "beta", "mu_bps", "out", "n_jobs"), ("beta",)),
    "validate": (("beta",), ()),
    "simulate": (("trials", "beta", "mu_bps", "out", "n_jobs", "strategy", "eta"), ()),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one command invocation.

    Field defaults are the reference scenario, declared nowhere else: a
    75 m square hotspot with 135 users in a 3x3 cluster grid (15 users per
    25 m cell), a 300-file catalog cached 20 files per user under Zipf
    skew 1, 20 MHz of D2D bandwidth at 20 dBm transmit power over a
    ``37.6 + 36.8 log10(r [m])`` path-loss law with -95 dBm noise, a 1 m
    pairing floor and a 1 Mbps per-user floor; campaigns run 10,000 trials
    from seed 20230817.  Every command and demo starts from these values
    (a default reads as ``ExperimentSpec.seed``); a config file and flags
    override them field by field, and code varies a field with
    ``dataclasses.replace``.  The population ``n_users`` is derived
    (``n_clusters * users_per_cluster``), so it is a property, not a field.

    ``command`` names the command line command the spec is for, a key of
    :data:`COMMANDS`; its row lists the axes ``sweep_name``/``sweep_values``
    may sweep and whether ``strategy`` (``None`` means ``"coop"``) and
    ``eta`` may be set.
    Every field and sweep value is type- and range-checked here, so bad
    input surfaces as a :class:`ConfigurationError`.
    """

    command: str
    hotspot_side_m: float = 75.0
    n_clusters: int = 9
    users_per_cluster: int = 15
    n_files: int = 300
    cache_size: int = 20
    beta: float = 1.0
    tx_power_dbm: float = 20.0
    noise_dbm: float = -95.0
    path_loss_intercept_db: float = 37.6
    alpha: float = 3.68
    bandwidth_hz: float = 20e6
    mu_bps: float = 1e6
    min_pairing_distance_m: float = 1.0
    strategy: str | None = None
    eta: float | None = None
    trials: int = 10_000
    seed: int = 20230817
    n_jobs: int = 1
    sweep_name: str | None = None
    sweep_values: tuple = ()
    out: str | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigurationError(
                "command must be one of %s, got %r" % (tuple(COMMANDS), self.command)
            )
        flags, axes = COMMANDS[self.command]
        for name in _NUMERIC_FIELDS:
            if name != "eta" or self.eta is not None:
                check_number(name, getattr(self, name))
        for name in ("strategy", "eta"):
            if getattr(self, name) is not None and name not in flags:
                raise ConfigurationError("%s does not read %s" % (self.command, name))
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError("out must be a path, got %r" % (self.out,))
        if (self.sweep_name is None) != (len(self.sweep_values) == 0):
            raise ConfigurationError("a sweep needs a name and non-empty values")
        if self.sweep_name is not None and self.sweep_name not in axes:
            raise ConfigurationError(
                "%s cannot sweep %r; it sweeps %s"
                % (self.command, self.sweep_name, " or ".join(axes))
                if axes else "%s takes no sweep" % self.command
            )
        for value in self.sweep_values:
            check_number(self.sweep_name, value)
        check_cached_groups("users_per_cluster", self.users_per_cluster,
                            self.n_files // self.cache_size)

    @property
    def n_users(self) -> int:
        """Hotspot population ``n_clusters * users_per_cluster``."""
        return self.n_clusters * self.users_per_cluster


# The spec fields a config file sets directly; a sweep is the nested ``sweep`` key.
_SWEEP_FIELDS = ("sweep_name", "sweep_values")
_CONFIG_KEYS = set(ExperimentSpec.__dataclass_fields__) - {"command", *_SWEEP_FIELDS}
# The numeric fields, checked in the order of their rules.
_NUMERIC_FIELDS = [name for *_, names in NUMERIC_RULES for name in names if name in _CONFIG_KEYS]


def _as_tuple(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError("sweep values must be a list, got %r" % (values,))
    return tuple(values)


def spec_from_mapping(command: str, mapping: dict) -> ExperimentSpec:
    """Build ``command``'s spec from a flat mapping (config file contents).

    A sweep is spelled only as the nested ``sweep: {name, values}``
    mapping; every other key must name an :class:`ExperimentSpec` field
    other than ``command``, ``sweep_name`` and ``sweep_values``.
    """
    kwargs = {}
    for key, value in mapping.items():
        if key == "sweep":
            if not isinstance(value, dict) or set(value) - {"name", "values"}:
                raise ConfigurationError(
                    "sweep must be a mapping with keys 'name' and 'values'"
                )
            kwargs["sweep_name"] = value.get("name")
            kwargs["sweep_values"] = _as_tuple(value.get("values", ()))
        elif key in _CONFIG_KEYS:
            kwargs[key] = value
        elif key in _SWEEP_FIELDS:
            raise ConfigurationError(
                "config key %r: spell a sweep as 'sweep: {name: ..., values: [...]}'" % key
            )
        else:
            raise ConfigurationError("unknown config key %r" % (key,))
    return ExperimentSpec(command=command, **kwargs)


@dataclass(frozen=True)
class AnalyticPoint:
    """Analytic pipeline output for one ``(beta, mu, K, B)`` operating point."""

    model: PopularityModel
    plan: ClusterPlan
    radio: RadioParams
    geom: GeometryTable
    pc: float
    rate_coop: float
    rate_noncoop: float
    nc_bar: float
    nn_bar: float
    nb_bar: float
    solution: BandwidthSolution


def analytic_point(spec: ExperimentSpec) -> AnalyticPoint:
    """Run the full analytic pipeline at the operating point ``spec`` describes.

    Another point is ``analytic_point(dataclasses.replace(spec, ...))``.
    Popularity, cooperation probability, truncated moments, link rates, user
    populations (closed form, exact for i.i.d. requests), then the bandwidth
    split.  Nothing here draws random numbers, so the point does not depend
    on ``spec.seed``.  A pairing floor (``min_pairing_distance_m`` over the
    cluster side), a link budget's rate or a band's throughput
    (``bandwidth_hz * B`` times the faster link rate) that overflows to
    infinity raises :class:`ConfigurationError`.
    """
    model = build_popularity(spec.n_files, spec.cache_size, spec.beta)
    plan = make_plan(spec.hotspot_side_m, spec.n_clusters, spec.users_per_cluster)
    radio = RadioParams(
        tx_power_dbm=spec.tx_power_dbm,
        noise_dbm=spec.noise_dbm,
        path_loss_intercept_db=spec.path_loss_intercept_db,
        alpha=spec.alpha,
        bandwidth_hz=spec.bandwidth_hz,
    )
    k, b = plan.users_per_cluster, plan.n_clusters
    r_min = spec.min_pairing_distance_m / plan.cluster_side_m
    if not math.isfinite(r_min):
        raise ConfigurationError(
            "min_pairing_distance_m, hotspot_side_m and n_clusters (%r, %r, %r) give a "
            "pairing floor of %r cluster sides; it must be below sqrt(5)"
            % (spec.min_pairing_distance_m, spec.hotspot_side_m, spec.n_clusters, r_min)
        )
    geom = path_gain_moments(spec.alpha, r_min)
    pc = coop_probability(model, k, b)
    rn = noncoop_link_rate(geom)
    rc = coop_link_rate(geom, radio, plan.cluster_side_m, b)
    if not (math.isfinite(rc) and math.isfinite(rn)):
        raise ConfigurationError(
            "tx_power_dbm, noise_dbm, path_loss_intercept_db, alpha and hotspot_side_m "
            "(%r, %r, %r, %r, %r) give a link budget with an infinite rate"
            % (spec.tx_power_dbm, spec.noise_dbm, spec.path_loss_intercept_db, spec.alpha,
               spec.hotspot_side_m)
        )
    if not math.isfinite(spec.bandwidth_hz * b * max(rc, rn)):
        raise ConfigurationError(
            "bandwidth_hz (%r) gives a throughput that overflows to infinity"
            % (spec.bandwidth_hz,)
        )

    pop = expected_coop_users_closed(model, k, b)
    solution = optimize_eta(
        pc,
        rc,
        rn,
        spec.bandwidth_hz,
        b,
        pop.coop_mean,
        pop.noncoop_mean,
        spec.mu_bps,
    )
    return AnalyticPoint(
        model=model,
        plan=plan,
        radio=radio,
        geom=geom,
        pc=pc,
        rate_coop=rc,
        rate_noncoop=rn,
        nc_bar=pop.coop_mean,
        nn_bar=pop.noncoop_mean,
        nb_bar=pop.cellular_mean,
        solution=solution,
    )


def grid_search_eta(
    pc: float,
    rc: float,
    rn: float,
    bandwidth_hz: float,
    n_clusters: int,
    nc_bar: float,
    nn_bar: float,
    mu: float,
) -> float:
    """Grid maximizer of the bandwidth-split program.

    Brute-force cross-check of the closed form (the grid, not a solver, so
    it shares no code with :func:`coopd2d.bandwidth.optimize_eta`).  Ties
    resolve toward the largest feasible ``eta``, matching the closed form's
    tie-break.  Returns ``nan`` when no grid point is feasible.

    The grid is ``np.linspace(0, 1, n)`` with ``n = 100,001``: point ``i``
    is ``i * (1 / (n - 1))``, which for this ``n`` is exactly 1.0 at the
    last point, where ``linspace`` puts 1.0 itself.  For the inputs callers
    pass (band, rates, ``pc``, floors and ``mu`` non-negative, and no
    underflow or overflow in the objective) the result is the float a scan
    of every point returns, but only O(log n + window) points are evaluated:

    * Feasibility.  Rounding is monotone, so each floor, evaluated as
      written, holds on one run of indices (or none): the coop floor from
      some index on, the non-coop floor up to some index.  Bisection finds
      the feasible run ``[lo, hi]``.
    * Argmax.  The objective is affine in ``eta``, with slope
      ``wb pc (rc - rn)`` (``wb`` the whole band), so the exact optimum is
      the end of the run the slope favours.  With ``u = 2**-53`` and
      ``M = wb (pc rc + (1 + pc) rn)``, the six rounded operations of a
      point put it within ``5.1 u M`` of the exact objective at its grid
      value, and grid values stray at most ``2.01 u`` from ``i / (n - 1)``,
      which moves the exact objective by at most ``2.01 u M``.  With
      ``D = |wb pc (rc - rn)|``, a point ``k`` steps from the favoured end
      thus ties or beats it only if
      ``k D / (n - 1) <= 2 (5.1 + 2.01) u M < 14.3 u M``.  The scan's
      expression and tie-break run over the ``(n - 1) 16 u M / D`` points
      nearest that end, or over the whole run when ``D`` is 0 or the
      window is wider.

    Its inputs are refused as :func:`coopd2d.bandwidth.optimize_eta`
    refuses them (:func:`coopd2d.errors.check_split_program`).
    """
    check_split_program(pc, rc, rn, bandwidth_hz, n_clusters, nc_bar, nn_bar, mu)
    n = 100_001  # another n breaks the exact last point argued above
    step = 1.0 / (n - 1)
    wb = bandwidth_hz * n_clusters
    lo, hi = 0, n - 1
    if mu > 0 and nc_bar > 0:
        lo = bisect_left(range(n), True, key=lambda i: wb * (i * step) * rc >= mu * nc_bar)
    if mu > 0 and nn_bar > 0:
        hi = bisect_left(
            range(n), True, key=lambda i: not wb * (1.0 - i * step) * rn >= mu * nn_bar
        ) - 1
    if lo > hi:
        return math.nan
    slope = wb * pc * (rc - rn)
    bound = 16 * 2.0**-53 * wb * (pc * rc + (1.0 + pc) * rn)
    window = (n - 1) * bound / abs(slope) if slope else math.inf
    if window < hi - lo:
        if slope > 0:
            lo = hi - int(window) - 1
        else:
            hi = lo + int(window) + 1
    eta = np.arange(lo, hi + 1) * step
    objective = wb * (pc * eta * rc + (1.0 - pc * eta) * rn)
    # argmax of the reversed array prefers the largest eta among exact ties
    return float(eta[hi - lo - int(np.argmax(objective[::-1]))])


def sim_feasible_cluster_sizes(n_users: int, group_count: int) -> list[tuple[int, int]]:
    """All ``(K, B)`` with ``K * B = n_users``, ``B`` a perfect square, ``K <= K0``.

    In ascending ``B``, found by trying each ``K`` up to ``K0``, not each ``B``.
    """
    out = []
    for k in range(min(group_count, n_users), 0, -1):
        b, rest = divmod(n_users, k)
        if not rest and math.isqrt(b) ** 2 == b:
            out.append((k, b))
    return out


def _best_sim_cluster_size(model: PopularityModel, n_users: int) -> tuple[int, int]:
    """Sim-feasible ``(K, B)`` maximizing expected active links; smaller K on ties."""
    feasible = sim_feasible_cluster_sizes(n_users, model.group_count)
    if not feasible:
        raise ConfigurationError(
            "no grid-feasible cluster size for n_users=%d with %d groups"
            % (n_users, model.group_count)
        )
    return max(feasible, key=lambda kb: (expected_active_coop(model, n_users, kb[0]), -kb[0]))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | None, schema: str, rows: list[dict]) -> str:
    """Write records under a ``# schema=coopd2d.<name>.v<N>`` line; returns the path.

    Each record maps column name to value in column order; the first
    record's keys are the header.  ``path`` defaults to ``<name>.csv``.
    Byte-deterministic.
    """
    path = path or schema.split(".")[0] + ".csv"
    with open(path, "w", newline="") as fh:
        fh.write("# schema=coopd2d.%s\n" % schema)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
    return path


def _sweep_or(spec: ExperimentSpec, name: str, fallback) -> list:
    if spec.sweep_name == name:
        return list(spec.sweep_values)
    return [fallback]


def cmd_optimize_cluster(spec: ExperimentSpec) -> str:
    """Cluster-size profiles and the optimal size per (beta, n_users).

    One row per candidate ``K``; the ``k_star`` column repeats the winner of
    that ``(beta, n_users)`` block so both the profile and the optimum curve
    come out of a single schema.
    """
    betas = _sweep_or(spec, "beta", spec.beta)
    ms = [int(v) for v in _sweep_or(spec, "n_users", spec.n_users)]
    rows = []
    for beta in betas:
        model = build_popularity(spec.n_files, spec.cache_size, beta)
        for m in ms:
            k_star, _, profile = optimize_cluster_size(model, m)
            for k, objective in profile:
                rows.append(
                    {
                        "beta": float(beta),
                        "n_users": m,
                        "users_per_cluster": int(k),  # profile is a float array
                        "objective_links": objective,
                        "k_star": k_star,
                    }
                )
    return write_csv(spec.out, "cluster_profile.v2", rows)


def split_bandwidth(spec: ExperimentSpec, beta: float) -> list[dict]:
    """The band split at one beta for each of the spec's rate floors; returns
    CSV records.

    The rate floor enters only the split's two floor constraints, so the
    closed-form chain (:func:`analytic_point`) runs once, and the split
    (:func:`coopd2d.bandwidth.optimize_eta`) and its grid cross-check once
    per floor.
    """
    pt = analytic_point(replace(spec, beta=beta))
    split = (pt.pc, pt.rate_coop, pt.rate_noncoop, spec.bandwidth_hz, pt.plan.n_clusters,
             pt.nc_bar, pt.nn_bar)  # the program's inputs but the floor
    rows = []
    for mu in _sweep_or(spec, "mu_bps", spec.mu_bps):
        sol = optimize_eta(*split, mu)
        eta_grid = grid_search_eta(*split, float(mu))
        rows.append(
            {
                "beta": float(beta),
                "mu_bps": float(mu),
                "pc": pt.pc,
                "rate_coop": pt.rate_coop,
                "rate_noncoop": pt.rate_noncoop,
                "nc_bar": pt.nc_bar,
                "nn_bar": pt.nn_bar,
                "eta_star": sol.eta_star,
                "eta_star_grid": eta_grid,
                "feasible": sol.feasible,
                "binding": sol.binding,
                "throughput_bps": sol.objective,
                "mu_max_bps": sol.mu_max,
            }
        )
    return rows


def cmd_optimize_bandwidth(spec: ExperimentSpec) -> str:
    """Bandwidth split versus beta and mu, closed form plus grid column."""
    rows = []
    for beta in _sweep_or(spec, "beta", spec.beta):
        rows.extend(split_bandwidth(spec, beta))
    return write_csv(spec.out, "bandwidth_split.v4", rows)


def campaign_config(
    spec: ExperimentSpec, pt: AnalyticPoint, strategy: str, eta: float | None
) -> SimConfig:
    """The campaign ``spec`` describes, at the analytic point ``pt``.

    Trial count, seed and pairing floor come from ``spec``; plan, radio and
    catalog from ``pt``.  ``coop`` runs at ``eta``, or at the point's
    optimal split when ``eta`` is None (the whole band when the split is
    infeasible); the other strategies run at ``eta = 0``.
    """
    if strategy != "coop":
        eta = 0.0
    elif eta is None:
        eta = pt.solution.eta_star if pt.solution.feasible else 1.0
    return SimConfig(
        plan=pt.plan,
        radio=pt.radio,
        popularity=pt.model,
        strategy=strategy,
        trials=spec.trials,
        seed=spec.seed,
        eta=eta,
        min_pairing_distance_m=spec.min_pairing_distance_m,
    )


def compare_strategies(spec: ExperimentSpec, beta: float) -> list[dict]:
    """Run the five compared strategies at one beta; returns CSV records.

    Strategies: ``optimized`` (best grid-feasible cluster size with its
    optimal split), ``eta0.5`` (best size, fixed even split), ``etaK``
    (the configured cluster size with its optimal split), ``nocoop``, and
    ``tdma`` (the last two at the configured size).  Each schedule is
    rated once per cluster size, and each row summarizes its table.
    """
    model = build_popularity(spec.n_files, spec.cache_size, beta)
    best = _best_sim_cluster_size(model, spec.n_users)
    own = (spec.users_per_cluster, spec.n_clusters)
    tables = {}  # the rate-sum table of each (schedule, K, B)

    @functools.cache  # one analytic point per (K, B)
    def point(k: int, b: int) -> AnalyticPoint:
        return analytic_point(replace(spec, beta=beta, n_clusters=b, users_per_cluster=k))

    def campaign(strategy: str, eta: float | None, k: int, b: int) -> tuple[SimConfig, SimResult]:
        cfg = campaign_config(spec, point(k, b), strategy, eta)
        if (cfg.schedule, k, b) not in tables:
            tables[cfg.schedule, k, b] = rate_sums(cfg, spec.n_jobs)
        return cfg, summarize(cfg, tables[cfg.schedule, k, b])

    # the configured size first, so a refusal names the config's own plan
    configured = [
        ("etaK", campaign("coop", None, *own)),
        ("nocoop", campaign("nocoop", 0.0, *own)),
        ("tdma", campaign("tdma", 0.0, *own)),
    ]
    at_best = [
        ("optimized", campaign("coop", None, *best)),
        ("eta0.5", campaign("coop", 0.5, *best)),
    ]
    rows = []
    for label, (cfg, result) in at_best + configured:
        rows.append(
            {
                "strategy": label,
                "beta": float(beta),
                "users_per_cluster": cfg.plan.users_per_cluster,
                "n_clusters": cfg.plan.n_clusters,
                "eta": cfg.eta,
                "trials": result.n_trials,
                "throughput_mean_bps": result.throughput_mean,
                "throughput_ci95_bps": result.throughput_ci95,
                "mode1_frequency": result.mode1_frequency,
                "mean_coop": result.mean_counts[0],
                "mean_noncoop": result.mean_counts[1],
                "mean_cellular": result.mean_counts[2],
                "user_coop_bps": result.user_throughput_coop,
                "user_noncoop_bps": result.user_throughput_noncoop,
                "discarded_trials": result.discarded_trials,
                "degenerate_mode1_trials": result.degenerate_mode1_trials,
                "dropped_link_fraction": result.dropped_link_fraction,
                "silent_cluster_fraction": result.silent_cluster_fraction,
            }
        )
    return rows


def cmd_compare(spec: ExperimentSpec) -> str:
    betas = _sweep_or(spec, "beta", spec.beta)
    rows = []
    for beta in betas:
        rows.extend(compare_strategies(spec, float(beta)))
    return write_csv(spec.out, "strategy_compare.v6", rows)


def cmd_simulate(spec: ExperimentSpec) -> str:
    """One campaign, per-trial records to CSV."""
    strategy = "coop" if spec.strategy is None else spec.strategy
    config = campaign_config(spec, analytic_point(spec), strategy, spec.eta)
    result = run_campaign(config, n_jobs=spec.n_jobs, keep_trials=True)
    k, b = config.plan.users_per_cluster, config.plan.n_clusters
    rows = [
        {
            "strategy": strategy,
            "beta": float(spec.beta),
            "K": k,
            "B": b,
            "eta": config.eta,
            "trial": trial,
            "mode": rec["mode"],
            "throughput_bps": rec["throughput"],
            "n_coop": rec["n_coop"],
            "n_noncoop": rec["n_noncoop"],
            "n_cellular": rec["n_cellular"],
            "dropped_links": rec["dropped_links"],
            "degenerate": rec["degenerate"],
            "silent_clusters": rec["silent_clusters"],
            "discarded": rec["discarded"],
        }
        for trial, rec in enumerate(result.trials)
    ]
    logger.info(
        "%s: mean %.4g bps (ci95 %.3g) over %d trials",
        strategy,
        result.throughput_mean,
        result.throughput_ci95,
        result.n_trials,
    )
    return write_csv(spec.out, "campaign_trials.v6", rows)
