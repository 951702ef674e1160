"""Experiment orchestration: sweeps, comparisons, validation, CSV emission.

This layer glues the analytic modules to the simulator for the scenarios the
command line exposes: cluster-size profiles, bandwidth-split sweeps,
strategy comparisons, self-validation, and raw campaign dumps.  All CSV
output is byte-deterministic: floats are serialized with ``repr`` (shortest
round trip), row order is fixed by the sweep definition, and a schema tag
line precedes the header.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import defaults
from .bandwidth import BandwidthSolution, optimize_eta
from .catalog import PopularityModel, build_popularity
from .clusters import ClusterPlan, coop_probability, make_plan, optimize_cluster_size
from .errors import ConfigurationError, EnumerationBudgetError, SingularChannelError
from .geometry import SQRT2, SQRT5, interference_pdf, path_gain_moments, signal_pdf
from .netsim import (
    _CHUNK,
    ROLE_COOP,
    SimConfig,
    _drop_block,
    _generators,
    drop_snapshot,
    noncoop_rates,
    run_campaign,
    schedule,
    zf_rates,
)
from .population import (
    expected_coop_users_closed,
    expected_coop_users_exact,
    expected_coop_users_mc,
)
from .rates import RadioParams, coop_link_rate, noncoop_link_rate

__all__ = [
    "ExperimentSpec",
    "spec_from_mapping",
    "popularity_of",
    "plan_of",
    "radio_of",
    "geometry_of",
    "analytic_point",
    "grid_search_eta",
    "sim_feasible_cluster_sizes",
    "link_rate_gap",
    "cmd_optimize_cluster",
    "cmd_optimize_bandwidth",
    "cmd_compare",
    "cmd_simulate",
    "cmd_validate",
]

_VALIDATE_SNAPSHOTS = 100_000

logger = logging.getLogger(__name__)

# Each scenario and the sweep axes its command reads; any other axis is refused.
_SWEEP_AXES = {
    "cluster-sweep": ("beta", "n_users"),
    "bandwidth-sweep": ("beta", "mu_bps"),
    "throughput-compare": ("beta",),
    "validate": (),
    "simulate": (),
}
# Numeric fields as (type, bound, bound test, fields).  Floats must also be
# finite; bools are refused although Python counts them as ints.
_NUMERIC_RULES = (
    (int, "> 0", lambda v: v > 0, ("n_clusters", "users_per_cluster", "n_users",
                                   "n_files", "cache_size", "trials",
                                   "population_trials", "n_jobs")),
    (int, ">= 0", lambda v: v >= 0, ("seed",)),
    (float, "> 0", lambda v: v > 0, ("hotspot_side_m", "bandwidth_hz")),
    (float, ">= 0", lambda v: v >= 0, ("beta", "alpha", "mu_bps",
                                       "min_pairing_distance_m")),
    (float, "in [0, 1]", lambda v: 0 <= v <= 1, ("eta",)),
    (float, "finite", lambda v: True, ("tx_power_dbm", "noise_dbm",
                                       "path_loss_intercept_db")),
)
_NUMERIC_FIELDS = {name: rule[:3] for rule in _NUMERIC_RULES for name in rule[3]}


def _check_number(name: str, value) -> None:
    kind, bound, holds = _NUMERIC_FIELDS[name]
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
        raise ConfigurationError(
            "%s must be %s %s, got %r"
            % (name, "an integer" if kind is int else "a finite number", bound, value)
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one command invocation.

    Field defaults are the reference scenario; a config file and flags
    override them.  ``sweep_name``/``sweep_values`` select the swept
    parameter among the axes the scenario's command reads: ``beta`` and
    ``n_users`` for ``cluster-sweep``, ``beta`` and ``mu_bps`` for
    ``bandwidth-sweep``, ``beta`` for ``throughput-compare``.  Only
    ``simulate`` reads ``strategy`` (``None`` means ``"coop"``) and ``eta``;
    ``population_trials`` only sizes the snapshot gates of ``validate``.
    Every field and sweep value is type- and range-checked here, so bad
    input surfaces as a :class:`ConfigurationError`.
    """

    scenario: str
    hotspot_side_m: float = defaults.HOTSPOT_SIDE_M
    n_clusters: int = defaults.N_CLUSTERS
    users_per_cluster: int = defaults.USERS_PER_CLUSTER
    n_users: int = defaults.N_USERS
    n_files: int = defaults.N_FILES
    cache_size: int = defaults.CACHE_SIZE
    beta: float = defaults.BETA
    tx_power_dbm: float = defaults.TX_POWER_DBM
    noise_dbm: float = defaults.NOISE_DBM
    path_loss_intercept_db: float = defaults.PATH_LOSS_INTERCEPT_DB
    alpha: float = defaults.ALPHA
    bandwidth_hz: float = defaults.BANDWIDTH_HZ
    mu_bps: float = defaults.MU_BPS
    min_pairing_distance_m: float = defaults.MIN_PAIRING_DISTANCE_M
    strategy: str | None = None
    eta: float | None = None
    trials: int = defaults.TRIALS
    population_trials: int = 100_000
    seed: int = defaults.SEED
    n_jobs: int = 1
    sweep_name: str | None = None
    sweep_values: tuple = ()
    out: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in _SWEEP_AXES:
            raise ConfigurationError(
                "scenario must be one of %s, got %r"
                % (tuple(_SWEEP_AXES), self.scenario)
            )
        for name in _NUMERIC_FIELDS:
            if name != "eta" or self.eta is not None:
                _check_number(name, getattr(self, name))
        for name in ("strategy", "eta"):
            if getattr(self, name) is not None and self.scenario != "simulate":
                raise ConfigurationError(
                    "only simulate reads %s, not %s" % (name, self.scenario)
                )
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigurationError("out must be a path, got %r" % (self.out,))
        if (self.sweep_name is None) != (len(self.sweep_values) == 0):
            raise ConfigurationError("a sweep needs a name and non-empty values")
        axes = _SWEEP_AXES[self.scenario]
        if self.sweep_name is not None and self.sweep_name not in axes:
            raise ConfigurationError(
                "scenario %s cannot sweep %r; sweepable: %s"
                % (self.scenario, self.sweep_name, axes)
            )
        for value in self.sweep_values:
            _check_number(self.sweep_name, value)
        if self.n_users != self.n_clusters * self.users_per_cluster:
            raise ConfigurationError(
                "n_users (%d) must equal n_clusters * users_per_cluster (%d)"
                % (self.n_users, self.n_clusters * self.users_per_cluster)
            )
        if self.users_per_cluster > self.n_files // self.cache_size:
            raise ConfigurationError(
                "users_per_cluster (%d) exceeds the %d cacheable file groups"
                % (self.users_per_cluster, self.n_files // self.cache_size)
            )


_SPEC_FIELDS = {f for f in ExperimentSpec.__dataclass_fields__}


def _as_tuple(values) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError("sweep values must be a list, got %r" % (values,))
    return tuple(values)


def spec_from_mapping(scenario: str, mapping: dict) -> ExperimentSpec:
    """Build a spec from a flat mapping (config file contents).

    The ``sweep`` key may be a nested ``{name, values}`` mapping; every
    other key must name an :class:`ExperimentSpec` field.
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
        elif key in _SPEC_FIELDS and key != "scenario":
            kwargs[key] = _as_tuple(value) if key == "sweep_values" else value
        else:
            raise ConfigurationError("unknown config key %r" % (key,))
    return ExperimentSpec(scenario=scenario, **kwargs)


def popularity_of(spec: ExperimentSpec, beta: float | None = None) -> PopularityModel:
    return build_popularity(
        spec.n_files, spec.cache_size, spec.beta if beta is None else beta
    )


def plan_of(
    spec: ExperimentSpec,
    n_clusters: int | None = None,
    users_per_cluster: int | None = None,
) -> ClusterPlan:
    return make_plan(
        spec.hotspot_side_m,
        spec.n_clusters if n_clusters is None else n_clusters,
        spec.users_per_cluster if users_per_cluster is None else users_per_cluster,
    )


def radio_of(spec: ExperimentSpec) -> RadioParams:
    return RadioParams(
        tx_power_dbm=spec.tx_power_dbm,
        noise_dbm=spec.noise_dbm,
        path_loss_intercept_db=spec.path_loss_intercept_db,
        alpha=spec.alpha,
        bandwidth_hz=spec.bandwidth_hz,
    )


def geometry_of(spec: ExperimentSpec, plan: ClusterPlan):
    return path_gain_moments(
        spec.alpha, spec.min_pairing_distance_m / plan.cluster_side_m
    )


@dataclass(frozen=True)
class AnalyticPoint:
    """Analytic pipeline output for one ``(beta, mu, K, B)`` operating point."""

    model: PopularityModel
    plan: ClusterPlan
    radio: RadioParams
    pc: float
    rate_coop: float
    rate_noncoop: float
    nc_bar: float
    nn_bar: float
    nb_bar: float
    solution: BandwidthSolution


def analytic_point(
    spec: ExperimentSpec,
    beta: float | None = None,
    mu: float | None = None,
    n_clusters: int | None = None,
    users_per_cluster: int | None = None,
) -> AnalyticPoint:
    """Run the full analytic pipeline at one operating point.

    Popularity, cooperation probability, truncated moments, link rates, user
    populations (closed form, exact for i.i.d. requests), then the bandwidth
    split.  Nothing here draws random numbers, so the point does not depend
    on ``spec.seed`` or ``spec.population_trials``.
    """
    model = popularity_of(spec, beta)
    plan = plan_of(spec, n_clusters, users_per_cluster)
    radio = radio_of(spec)
    k, b = plan.users_per_cluster, plan.n_clusters
    geom = geometry_of(spec, plan)
    pc = coop_probability(model, k, b)
    rn = noncoop_link_rate(geom)
    rc = coop_link_rate(geom, radio, plan.cluster_side_m, b)

    # Interference-dominance sufficient condition for rc >= rn: evaluated and
    # logged, never assumed.
    mean_interference = (
        radio.tx_power_w
        * radio.intercept_linear
        * plan.cluster_side_m ** (-spec.alpha)
        * 8.0
        * geom.q2
    )
    logger.debug(
        "mean interference %.3e W vs B*noise %.3e W: sufficient condition %s "
        "(rc=%.4f, rn=%.4f)",
        mean_interference,
        b * radio.noise_w,
        "holds" if mean_interference >= b * radio.noise_w else "does not hold",
        rc,
        rn,
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
        spec.mu_bps if mu is None else mu,
    )
    return AnalyticPoint(
        model=model,
        plan=plan,
        radio=radio,
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
    n_points: int = 100_001,
) -> float:
    """Dense-grid maximizer of the bandwidth-split program.

    Brute-force cross-check of the closed form (the grid, not a solver, so
    it shares no code with :func:`coopd2d.bandwidth.optimize_eta`).  Ties
    resolve toward the largest feasible ``eta``, matching the closed form's
    tie-break.  Returns ``nan`` when no grid point is feasible.
    """
    eta = np.linspace(0.0, 1.0, n_points)
    wb = bandwidth_hz * n_clusters
    ok = np.ones(n_points, dtype=bool)
    if mu > 0 and nc_bar > 0:
        ok &= wb * eta * rc >= mu * nc_bar
    if mu > 0 and nn_bar > 0:
        ok &= wb * (1.0 - eta) * rn >= mu * nn_bar
    if not ok.any():
        return math.nan
    objective = wb * (pc * eta * rc + (1.0 - pc * eta) * rn)
    objective = np.where(ok, objective, -np.inf)
    # argmax of the reversed array prefers the largest eta among exact ties
    return float(eta[n_points - 1 - int(np.argmax(objective[::-1]))])


def sim_feasible_cluster_sizes(n_users: int, group_count: int) -> list[tuple[int, int]]:
    """All ``(K, B)`` with ``K * B = n_users``, ``B`` a perfect square, ``K <= K0``."""
    out = []
    for b in range(1, n_users + 1):
        g = math.isqrt(b)
        if g * g != b or n_users % b:
            continue
        k = n_users // b
        if 1 <= k <= group_count:
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
    best = None
    for k, b in sorted(feasible):
        objective = b * coop_probability(model, k, b)
        if best is None or objective > best[0]:
            best = (objective, k, b)
    return best[1], best[2]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, schema: str, header: list[str], rows) -> None:
    """Write rows under a ``# schema=coopd2d.<name>.v<N>`` line; byte-deterministic."""
    with open(path, "w", newline="") as fh:
        fh.write("# schema=coopd2d.%s\n" % schema)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
        model = popularity_of(spec, beta)
        for m in ms:
            k_star, _, profile = optimize_cluster_size(model, m)
            for k, objective in profile:
                rows.append((float(beta), m, int(k), float(objective), k_star))
    path = spec.out or "cluster_profile.csv"
    write_csv(
        path,
        "cluster_profile.v1",
        ["beta", "n_users", "users_per_cluster", "objective_links", "k_star"],
        rows,
    )
    return path


def cmd_optimize_bandwidth(spec: ExperimentSpec) -> str:
    """Bandwidth split versus beta and mu, closed form plus grid column."""
    betas = _sweep_or(spec, "beta", spec.beta)
    mus = _sweep_or(spec, "mu_bps", spec.mu_bps)
    rows = []
    for beta in betas:
        for mu in mus:
            pt = analytic_point(spec, beta, mu)
            sol = pt.solution
            eta_grid = grid_search_eta(
                pt.pc,
                pt.rate_coop,
                pt.rate_noncoop,
                spec.bandwidth_hz,
                pt.plan.n_clusters,
                pt.nc_bar,
                pt.nn_bar,
                float(mu),
            )
            rows.append(
                (
                    float(beta),
                    float(mu),
                    pt.pc,
                    pt.rate_coop,
                    pt.rate_noncoop,
                    pt.nc_bar,
                    pt.nn_bar,
                    sol.eta_star,
                    eta_grid,
                    sol.feasible,
                    sol.binding,
                    sol.objective,
                    sol.mu_max,
                )
            )
    path = spec.out or "bandwidth_split.csv"
    write_csv(
        path,
        "bandwidth_split.v2",
        [
            "beta",
            "mu_bps",
            "pc",
            "rate_coop",
            "rate_noncoop",
            "nc_bar",
            "nn_bar",
            "eta_star",
            "eta_star_grid",
            "feasible",
            "binding",
            "throughput_bps",
            "mu_max_bps",
        ],
        rows,
    )
    return path


_COMPARE_HEADER = [
    "strategy",
    "beta",
    "users_per_cluster",
    "n_clusters",
    "eta",
    "trials",
    "throughput_mean_bps",
    "throughput_ci95_bps",
    "mode1_frequency",
    "mean_coop",
    "mean_noncoop",
    "mean_cellular",
    "user_coop_bps",
    "user_noncoop_bps",
]


def _campaign_row(label: str, beta: float, config: SimConfig, result) -> tuple:
    return (
        label,
        float(beta),
        config.plan.users_per_cluster,
        config.plan.n_clusters,
        config.eta,
        result.n_trials,
        result.throughput_mean,
        result.throughput_ci95,
        result.mode1_frequency,
        result.mean_counts[0],
        result.mean_counts[1],
        result.mean_counts[2],
        result.user_throughput_coop,
        result.user_throughput_noncoop,
    )


def _campaign_config(
    spec: ExperimentSpec, pt: AnalyticPoint, strategy: str, eta: float | None
) -> SimConfig:
    """Campaign at an analytic point.

    ``coop`` runs at ``eta``, or at the point's optimal split when ``eta`` is
    None (the whole band when the split is infeasible); the other
    strategies run at ``eta = 0``.
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


def compare_strategies(spec: ExperimentSpec, beta: float) -> list[tuple]:
    """Run the five compared strategies at one beta; returns CSV rows.

    Strategies: ``optimized`` (best grid-feasible cluster size with its
    optimal split), ``eta0.5`` (best size, fixed even split), ``etaK``
    (the configured cluster size with its optimal split), ``nocoop``, and
    ``tdma`` (the last two at the configured size).
    """
    model = popularity_of(spec, beta)
    k_best, b_best = _best_sim_cluster_size(model, spec.n_users)
    rows = []

    def run(label: str, strategy: str, eta: float | None, k: int, b: int):
        pt = analytic_point(spec, beta, n_clusters=b, users_per_cluster=k)
        config = _campaign_config(spec, pt, strategy, eta)
        result = run_campaign(config, n_jobs=spec.n_jobs)
        rows.append(_campaign_row(label, beta, config, result))

    run("optimized", "coop", None, k_best, b_best)
    run("eta0.5", "coop", 0.5, k_best, b_best)
    run("etaK", "coop", None, spec.users_per_cluster, spec.n_clusters)
    run("nocoop", "nocoop", 0.0, spec.users_per_cluster, spec.n_clusters)
    run("tdma", "tdma", 0.0, spec.users_per_cluster, spec.n_clusters)
    return rows


def cmd_compare(spec: ExperimentSpec) -> str:
    betas = _sweep_or(spec, "beta", spec.beta)
    rows = []
    for beta in betas:
        rows.extend(compare_strategies(spec, float(beta)))
    path = spec.out or "strategy_compare.csv"
    write_csv(path, "strategy_compare.v2", _COMPARE_HEADER, rows)
    return path


def cmd_simulate(spec: ExperimentSpec) -> str:
    """One campaign, per-trial records to CSV."""
    strategy = "coop" if spec.strategy is None else spec.strategy
    config = _campaign_config(spec, analytic_point(spec), strategy, spec.eta)
    result = run_campaign(config, n_jobs=spec.n_jobs, keep_trials=True)
    k, b = config.plan.users_per_cluster, config.plan.n_clusters
    rows = [
        (
            strategy,
            float(spec.beta),
            k,
            b,
            config.eta,
            trial,
            int(rec["mode"]),
            float(rec["throughput"]),
            int(rec["n_coop"]),
            int(rec["n_noncoop"]),
            int(rec["n_cellular"]),
        )
        for trial, rec in enumerate(result.trials)
    ]
    path = spec.out or "campaign_trials.csv"
    write_csv(
        path,
        "campaign_trials.v2",
        [
            "strategy",
            "beta",
            "K",
            "B",
            "eta",
            "trial",
            "mode",
            "throughput_bps",
            "n_coop",
            "n_noncoop",
            "n_cellular",
        ],
        rows,
    )
    logger.info(
        "%s: mean %.4g bps (ci95 %.3g) over %d trials",
        strategy,
        result.throughput_mean,
        result.throughput_ci95,
        result.n_trials,
    )
    return path


def _empirical_moment(
    alpha: float, r_min: float, n_samples: int, seed: int, interference: bool
) -> tuple[float, float]:
    """Geometric Monte Carlo estimate of a truncated path-loss moment.

    Samples endpoint pairs directly (receiver uniform in the unit square,
    transmitter uniform in the same or the side-adjacent square), so the
    estimate is independent of the analytic distance densities it checks.
    Returns ``(mean, standard_error)`` of ``r**-alpha * 1{r >= r_min}``.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining:
        n = min(1_000_000, remaining)
        remaining -= n
        dr = rng.random((n, 2))
        dt = rng.random((n, 2))
        if interference:
            dt[:, 0] += 1.0
        r = np.linalg.norm(dt - dr, axis=1)
        vals = np.zeros(n)
        mask = r >= r_min if r_min > 0 else r > 0
        vals[mask] = r[mask] ** (-alpha)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def _snapshot_config(spec: ExperimentSpec, seed: int) -> SimConfig:
    """Cooperative config at skew 1 whose snapshots ``validate`` draws."""
    return SimConfig(
        plan=plan_of(spec),
        radio=radio_of(spec),
        popularity=build_popularity(spec.n_files, spec.cache_size, 1.0),
        strategy="coop",
        trials=1,
        seed=seed,
        eta=0.5,
        min_pairing_distance_m=spec.min_pairing_distance_m,
    )


def _snapshot_checks(spec: ExperimentSpec, n_snap: int) -> list[tuple[str, bool, str]]:
    """Gate the simulated Mode-1 frequency and cooperative count.

    Snapshots ``0 .. n_snap - 1`` (those of :func:`drop_snapshot`) are drawn
    at the fixed seed :data:`defaults.SEED`, so the records do not depend on
    ``spec.seed``.
    Returns ``(name, passed, detail)`` records.
    """
    snap_cfg = _snapshot_config(spec, defaults.SEED)
    model, k, b = snap_cfg.popularity, spec.users_per_cluster, spec.n_clusters
    modes = np.empty(n_snap, dtype=np.int8)
    coops = np.empty(n_snap, dtype=np.int16)
    for lo in range(0, n_snap, _CHUNK):  # blocks of the campaign engine
        hi = min(lo + _CHUNK, n_snap)
        drops = _drop_block(snap_cfg, _generators(snap_cfg, lo, hi))
        modes[lo:hi] = drops.hit.any(axis=1)
        coops[lo:hi] = np.count_nonzero(drops.roles == ROLE_COOP, axis=1)
    pc_ref = coop_probability(model, k, b)
    freq = float(modes.mean())
    se = math.sqrt(max(pc_ref * (1.0 - pc_ref), 1e-300) / n_snap)
    nc_closed = expected_coop_users_closed(model, k, b).coop_mean
    nc_mean = float(coops.mean())
    se_c = float(coops.std(ddof=1)) / math.sqrt(n_snap)
    return [
        ("mode-frequency", abs(freq - pc_ref) <= 3.0 * se,
         "empirical %.5f vs formula %.5f over %d snapshots (3 SE = %.5f)"
         % (freq, pc_ref, n_snap, 3.0 * se)),
        ("coop-count", abs(nc_mean - nc_closed) <= 3.0 * se_c,
         "empirical %.4f vs linearity %.4f (3 SE = %.4f)"
         % (nc_mean, nc_closed, 3.0 * se_c)),
    ]


def link_rate_gap(config: SimConfig, n_snapshots: int) -> tuple[float, int, float, int]:
    """Fading-averaged link rates of the first ``n_snapshots`` snapshots.

    Snapshot ``t`` is :func:`drop_snapshot` of ``config``; its scheduling
    and fading draw from ``default_rng([config.seed, t, 1])``.  Returns
    ``(zf_mean, zf_links, noncoop_mean, noncoop_links)``: the mean
    zero-forcing rate over the links that kept a non-zero rate, the mean
    single-cell rate over all single-cell links (bits/s/Hz), and the two
    link counts.  A mean over no links is 0.
    """
    radio, floor_m = config.radio, config.min_pairing_distance_m
    zf_sum, zf_n, nc_sum, nc_n = 0.0, 0, 0.0, 0
    for t in range(n_snapshots):
        snap = drop_snapshot(config, t)
        link_rng = np.random.default_rng([config.seed, t, 1])
        coop_links, nlinks = schedule(snap, link_rng, cooperation=True)
        if coop_links:
            try:
                zf = zf_rates(coop_links, snap.positions, radio, link_rng, floor_m)
            except SingularChannelError:
                zf = np.zeros(0)
            zf_sum += float(zf[zf > 0].sum())
            zf_n += int(np.count_nonzero(zf > 0))
        if nlinks:
            ncr = noncoop_rates(nlinks, snap.positions, radio, link_rng, floor_m)
            nc_sum += float(ncr.sum())
            nc_n += len(nlinks)
    return zf_sum / max(zf_n, 1), zf_n, nc_sum / max(nc_n, 1), nc_n


def cmd_validate(spec: ExperimentSpec, report=print) -> bool:
    """Self-consistency sweep over the analytic and simulation layers.

    Gated checks (they decide the return value) compare independent
    evaluation routes of the same quantity: popularity normalization,
    density normalization/continuity, free-space moment anchors, geometric
    Monte Carlo versus quadrature moments, enumeration versus closed-form
    versus Monte Carlo populations, closed-form versus grid-search bandwidth
    splits, simulated snapshot statistics versus their formulas, the
    ``eta = 0`` equivalence, and worker-count determinism.

    INFO lines report the measured gap between simulated fading-averaged
    link rates and the moment-based closed forms; the closed forms move the
    expectation inside a concave SINR logarithm, so a gap is structural, not
    a defect, and these lines are not gated.

    Monte Carlo checks use fixed internal seeds so the verdict does not
    depend on ``spec.seed``; the seed moves only the draws of the two
    campaign comparisons and of the INFO line.
    """
    from scipy.integrate import quad

    checks: list[tuple[str, bool | None, str]] = []

    def gated(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    worst = 0.0
    for beta in (0.0, 0.4, 0.78, 1.0, 1.2):
        model = build_popularity(spec.n_files, spec.cache_size, beta)
        worst = max(worst, abs(math.fsum(model.group_probs.tolist()) - 1.0))
    gated("popularity-normalization", worst < 1e-12, "max |sum P - 1| = %.3e" % worst)

    gi, _ = quad(signal_pdf, 0.0, SQRT2, points=[1.0], limit=200)
    fi, _ = quad(interference_pdf, 0.0, SQRT5, points=[1.0, SQRT2, 2.0], limit=200)
    gated(
        "pdf-normalization",
        abs(gi - 1.0) < 1e-6 and abs(fi - 1.0) < 1e-6,
        "int g = %.9f, int f = %.9f" % (gi, fi),
    )

    step = 1e-12
    worst = 0.0
    for fn, breaks in ((signal_pdf, (1.0,)), (interference_pdf, (1.0, SQRT2, 2.0))):
        for bpt in breaks:
            worst = max(worst, abs(float(fn(bpt - step)) - float(fn(bpt + step))))
    gated("pdf-continuity", worst < 1e-9, "max jump at a breakpoint = %.3e" % worst)

    anchor = path_gain_moments(0.0, 0.0)
    gated(
        "moment-anchors",
        abs(anchor.q1 - 9.0) < 1e-6 and abs(anchor.q2 - 1.0) < 1e-6,
        "alpha=0: q1 = %.9f (want 9), q2 = %.9f (want 1)" % (anchor.q1, anchor.q2),
    )

    plan = plan_of(spec)
    radio = radio_of(spec)
    geom = geometry_of(spec, plan)
    r_min = spec.min_pairing_distance_m / plan.cluster_side_m
    s_hat, _ = _empirical_moment(spec.alpha, r_min, 10_000_000, 0x51C4A1, False)
    q2_hat, _ = _empirical_moment(spec.alpha, r_min, 20_000_000, 0x1F7E2F, True)
    rel_s = abs(s_hat - geom.signal_moment) / geom.signal_moment
    rel_q2 = abs(q2_hat - geom.q2) / geom.q2
    gated(
        "moment-mc",
        rel_s < 0.01 and rel_q2 < 0.03,
        "geometric MC off by %.2f%% signal (tol 1%%), %.2f%% interference (tol 3%%)"
        % (100 * rel_s, 100 * rel_q2),
    )

    small = build_popularity(2 * spec.cache_size, spec.cache_size, 1.0)
    exact = expected_coop_users_exact(small, 2, 2)
    closed = expected_coop_users_closed(small, 2, 2).coop_mean
    mc = expected_coop_users_mc(small, 2, 2, 20_000, 0xB0B)
    ok = (
        abs(exact.coop_mean - closed) <= 1e-9 * closed
        and abs(mc.coop_mean - exact.coop_mean) <= 3.0 * mc.std_error
    )
    gated(
        "population-consistency",
        ok,
        "enumeration %.12f vs linearity %.12f vs MC %.4f +- %.4f"
        % (exact.coop_mean, closed, mc.coop_mean, mc.std_error),
    )

    ref_model = build_popularity(defaults.N_FILES, defaults.CACHE_SIZE, 1.0)
    try:
        expected_coop_users_exact(
            ref_model, defaults.USERS_PER_CLUSTER, defaults.N_CLUSTERS
        )
        refused = False
    except EnumerationBudgetError:
        refused = True
    gated(
        "population-budget",
        refused,
        "enumeration refuses the full-size catalog instead of stalling",
    )

    # K* must hit the cache-partition ceiling once the hotspot is dense
    # enough; the crossover for the reference catalog sits near 2.4e5 users.
    k_star, _, _ = optimize_cluster_size(ref_model, 1_000_000)
    gated(
        "cluster-optimum",
        k_star == ref_model.group_count,
        "K* = %d at 1e6 users (cache-partition ceiling %d)"
        % (k_star, ref_model.group_count),
    )

    rng = np.random.default_rng(0x0A71)
    n_bad = 0
    worst_dev = 0.0
    for _ in range(200):
        pc = rng.uniform(0.05, 1.0)
        rc = rng.uniform(0.05, 25.0)
        rn = rng.uniform(0.05, 25.0)
        nc = rng.uniform(0.5, 120.0)
        nn = rng.uniform(0.5, 120.0)
        mu_max = spec.bandwidth_hz * plan.n_clusters / (nc / rc + nn / rn)
        mu = rng.uniform(0.0, 1.5 * mu_max)
        sol = optimize_eta(
            pc, rc, rn, spec.bandwidth_hz, plan.n_clusters, nc, nn, mu
        )
        eta_grid = grid_search_eta(
            pc, rc, rn, spec.bandwidth_hz, plan.n_clusters, nc, nn, mu
        )
        if sol.feasible != (not math.isnan(eta_grid)):
            n_bad += 1
        elif sol.feasible:
            dev = abs(sol.eta_star - eta_grid)
            worst_dev = max(worst_dev, dev)
            if dev > 1e-4:
                n_bad += 1
    gated(
        "optimizer-grid",
        n_bad == 0,
        "200 random instances, max |closed - grid| = %.2e, disagreements %d"
        % (worst_dev, n_bad),
    )

    n_snap = min(spec.population_trials, _VALIDATE_SNAPSHOTS)
    checks.extend(_snapshot_checks(spec, n_snap))

    eq_model = popularity_of(spec)
    cfg_eta0 = SimConfig(
        plan=plan,
        radio=radio,
        popularity=eq_model,
        strategy="coop",
        trials=300,
        seed=spec.seed,
        eta=0.0,
        min_pairing_distance_m=spec.min_pairing_distance_m,
    )
    res_eta0 = run_campaign(cfg_eta0, keep_trials=True)
    res_nocoop = run_campaign(replace(cfg_eta0, strategy="nocoop"), keep_trials=True)
    gated(
        "eta0-equivalence",
        res_eta0.trials.tobytes() == res_nocoop.trials.tobytes(),
        "coop(eta=0) and nocoop trial records byte-identical over 300 trials",
    )

    cfg_det = replace(cfg_eta0, strategy="coop", eta=0.5, trials=200)
    res_one = run_campaign(cfg_det, n_jobs=1, keep_trials=True)
    res_two = run_campaign(cfg_det, n_jobs=2, keep_trials=True)
    gated(
        "determinism",
        res_one.trials.tobytes() == res_two.trials.tobytes()
        and res_one.throughput_mean == res_two.throughput_mean,
        "1-worker and 2-worker campaigns byte-identical over 200 trials",
    )

    zf_mean, _, nc_mean, _ = link_rate_gap(_snapshot_config(spec, spec.seed), 2000)
    rc_closed = coop_link_rate(geom, radio, plan.cluster_side_m, plan.n_clusters)
    rn_closed = noncoop_link_rate(geom)
    checks.append((
        "link-rate-gap",
        None,  # reported, not gated
        "fading-averaged ZF link rate %.3f vs moment closed form %.3f "
        "(ratio %.3f); non-cooperative %.3f vs %.3f (ratio %.3f); the closed "
        "forms average SINR before the log, so ratios below 1 are expected"
        % (zf_mean, rc_closed, zf_mean / rc_closed,
           nc_mean, rn_closed, nc_mean / rn_closed),
    ))

    n_gated = 0
    all_ok = True
    for name, ok, detail in checks:
        if ok is None:
            report("INFO %s: %s" % (name, detail))
        else:
            n_gated += 1
            all_ok = all_ok and ok
            report("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    report(
        "validation %s (%d gated checks)" % ("passed" if all_ok else "FAILED", n_gated)
    )
    return all_ok
