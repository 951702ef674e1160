"""Self-validation: the ``validate`` command and the checks only it runs.

Each gate compares two independent routes to one quantity.  The analytic
side of a gate is read from :func:`coopd2d.experiments.analytic_point`, and
every simulated side runs on a config from the same
:func:`coopd2d.experiments.campaign_config` the commands use, so
``validate`` checks the pipeline the commands run instead of a copy of it.  Every check is one
``(name, passed, detail)`` record; ``passed`` is ``None`` for a line that
is reported but not gated.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from .bandwidth import optimize_eta
from .catalog import build_popularity
from .clusters import optimize_cluster_size
from .errors import ConfigurationError, EnumerationBudgetError
from .experiments import (
    AnalyticPoint, ExperimentSpec, analytic_point, campaign_config, grid_search_eta
)
from .geometry import (
    INTERFERENCE_BREAKS, SIGNAL_BREAKS, SQRT2, SQRT5, interference_pdf, power_integral,
    signal_pdf,
)
from .netsim import SimConfig, link_rate_gap, run_campaign, snapshot_counts
from .population import expected_coop_users_closed, expected_coop_users_exact

__all__ = ["cmd_validate"]

_VALIDATE_SNAPSHOTS = 100_000


# Each density, the end of its support, its interior breaks, and the
# coefficients of r, r^2 and r^3 of its polynomial piece below r = 1.
_DENSITIES = ((signal_pdf, SQRT2, SIGNAL_BREAKS, (2.0 * math.pi, -8.0, 2.0)),
              (interference_pdf, SQRT5, INTERFERENCE_BREAKS, (0.0, 2.0, -1.0)))


def _density_moments(alpha: float, r_min: float) -> list[float]:
    """The signal moment and q2 from the densities, the ``moment-kernel`` gate's
    second route to :func:`coopd2d.geometry.path_gain_moments`.  Below r = 1 the
    densities are polynomials, so ``[r_min, 1)`` is a sum of power integrals in
    closed form; ``quad`` integrates the rest of the support.  A failed or
    overflowing integral raises :class:`ConfigurationError`."""
    moments = []
    for pdf, upper, breaks, poly in _DENSITIES:
        lo = min(max(r_min, 1.0), upper)  # 0 past the support
        pts = [p for p in breaks if lo < p < upper]
        # full_output: quad appends a message, instead of warning, when it fails
        try:
            near = math.fsum(c * power_integral(r_min, 1.0, n + 1.0 - alpha)
                             for n, c in enumerate(poly, 1) if c) if r_min < 1.0 else 0.0
            value, _, _, *failure = quad(
                lambda r: r ** (-alpha) * pdf(r), lo, upper,
                points=pts or None, limit=200, epsabs=1e-9, epsrel=1e-10, full_output=1)
            value += near
        except OverflowError:  # r ** -alpha beyond the float range
            value, failure = math.inf, ["r^-alpha overflows the float range"]
        if failure or not math.isfinite(value):
            raise ConfigurationError(
                "density quadrature of the path-gain moments fails for pairing floor "
                "r_min=%g cluster sides at alpha=%g (%s), so validate cannot "
                "cross-check them; raise the pairing floor" % (
                    r_min, alpha, (failure or ["overflow"])[0].splitlines()[0].strip()))
        moments.append(value)
    return moments


def _ratio(measured: float, closed_form: float) -> float:
    """``measured / closed_form``, or nan when the closed form is 0."""
    return measured / closed_form if closed_form else math.nan


def _snapshot_config(spec: ExperimentSpec) -> tuple[AnalyticPoint, SimConfig]:
    """The skew-1 analytic point and the cooperative config (``eta = 0.5``)
    whose snapshots ``validate`` draws; callers set its trials and seed."""
    pt = analytic_point(replace(spec, beta=1.0))
    return pt, campaign_config(spec, pt, "coop", 0.5)


def _snapshot_checks(
    pt: AnalyticPoint, config: SimConfig, n_snap: int
) -> list[tuple[str, bool, str]]:
    """Gate the simulated Mode-1 frequency and cooperative count at
    :func:`_snapshot_config`'s point and config over snapshots
    ``0 .. n_snap - 1`` at the reference seed ``ExperimentSpec.seed``, so the
    records do not depend on the config's seed."""
    modes, coops = snapshot_counts(replace(config, trials=n_snap, seed=ExperimentSpec.seed))
    freq = float(modes.mean())
    se = math.sqrt(max(pt.pc * (1.0 - pt.pc), 1e-300) / n_snap)
    nc_mean = float(coops.mean())
    se_c = float(coops.std(ddof=1)) / math.sqrt(n_snap)
    return [
        ("mode-frequency", abs(freq - pt.pc) <= 3.0 * se,
         "empirical %.5f vs formula %.5f over %d snapshots (3 SE = %.5f)"
         % (freq, pt.pc, n_snap, 3.0 * se)),
        ("coop-count", abs(nc_mean - pt.nc_bar) <= 3.0 * se_c,
         "empirical %.4f vs linearity %.4f (3 SE = %.4f)"
         % (nc_mean, pt.nc_bar, 3.0 * se_c)),
    ]


def cmd_validate(spec: ExperimentSpec, report=print) -> bool:
    """Self-consistency sweep over the analytic and simulation layers.

    Gated checks (they decide the return value) compare independent
    evaluation routes of the same quantity: popularity normalization,
    density continuity, free-space moment anchors (the densities'
    integrals), the rates' cell-offset kernel moments versus the
    densities' integrals, enumeration versus closed-form versus simulated-snapshot populations,
    closed-form versus grid-search bandwidth splits, simulated snapshot
    statistics versus their formulas, the ``eta = 0`` equivalence, and
    worker-count determinism.

    The INFO line reports the gap between simulated fading-averaged link
    rates and the moment-based closed forms, which average SINR before the
    concave log; it is not gated.  The sampled gates draw at fixed internal
    seeds, so the verdict does not depend on ``spec.seed``; the seed moves
    only the two campaign comparisons and the INFO line.
    """
    pt = analytic_point(spec)
    checks: list[tuple[str, bool | None, str]] = []

    worst = 0.0
    for beta in (0.0, 0.4, 0.78, 1.0, 1.2):
        model = build_popularity(spec.n_files, spec.cache_size, beta)
        worst = max(worst, abs(math.fsum(model.group_probs.tolist()) - 1.0))
    checks.append(
        ("popularity-normalization", worst < 1e-12, "max |sum P - 1| = %.3e" % worst)
    )

    worst = 0.0
    for fn, _, breaks, _ in _DENSITIES:
        for bpt in breaks:
            worst = max(worst, abs(float(fn(bpt - 1e-12)) - float(fn(bpt + 1e-12))))
    checks.append(
        ("pdf-continuity", worst < 1e-9, "max jump at a breakpoint = %.3e" % worst)
    )

    # at alpha = 0 the moments are the densities' integrals: int g and int f
    # must be 1, and q1 = int g + 8 int f must be 9
    g_mass, f_mass = _density_moments(0.0, 0.0)
    q1 = g_mass + 8.0 * f_mass
    checks.append((
        "moment-anchors",
        abs(q1 - 9.0) < 1e-6 and abs(f_mass - 1.0) < 1e-6 and abs(g_mass - 1.0) < 1e-6,
        "alpha=0: q1 = %.9f (want 9), q2 = int f = %.9f (want 1), "
        "int g = %.9f (want 1)" % (q1, f_mass, g_mass),
    ))

    geom = pt.geom
    pairs = list(zip(_density_moments(spec.alpha, geom.r_min), (geom.signal_moment, geom.q2)))
    checks.append((
        "moment-kernel",
        all(abs(kernel - density) <= 1e-8 * density + 1e-9 for density, kernel in pairs),
        "density quadrature vs cell-offset kernel: relative gap %.1e signal, %.1e "
        "interference (window 1e-8 relative + 1e-9)"
        % tuple(abs(kernel - density) / (density or 1.0) for density, kernel in pairs),
    ))

    # two cached groups, K = 2 users in each cell of a 2 x 2 grid
    small = build_popularity(2 * spec.cache_size, spec.cache_size, 1.0)
    exact = expected_coop_users_exact(small, 2, 4)
    closed = expected_coop_users_closed(small, 2, 4).coop_mean
    small_cfg = replace(
        campaign_config(spec, pt, "coop", 0.5),
        plan=replace(pt.plan, n_clusters=4, users_per_cluster=2),
        popularity=small,
        trials=20_000,
        seed=0xB0B,
    )
    _, coops = snapshot_counts(small_cfg)
    sampled = float(coops.mean())
    se = float(coops.std(ddof=1)) / math.sqrt(coops.size)
    checks.append((
        "population-consistency",
        abs(exact - closed) <= 1e-9 * closed and abs(sampled - exact) <= 3.0 * se,
        "enumeration %.12f vs linearity %.12f vs snapshots %.4f +- %.4f"
        % (exact, closed, sampled, se),
    ))

    ref = ExperimentSpec  # the reference scenario is its field defaults
    ref_model = build_popularity(ref.n_files, ref.cache_size, 1.0)
    try:
        expected_coop_users_exact(ref_model, ref.users_per_cluster, ref.n_clusters)
        refused = False
    except EnumerationBudgetError:
        refused = True
    checks.append((
        "population-budget",
        refused,
        "enumeration refuses the full-size catalog instead of stalling",
    ))

    # K* must hit the cache-partition ceiling once the hotspot is dense
    # enough; the crossover for the reference catalog sits near 2.4e5 users.
    k_star, _, _ = optimize_cluster_size(ref_model, 1_000_000)
    checks.append((
        "cluster-optimum",
        k_star == ref_model.group_count,
        "K* = %d at 1e6 users (cache-partition ceiling %d)"
        % (k_star, ref_model.group_count),
    ))

    rng = np.random.default_rng(0x0A71)
    b = pt.plan.n_clusters
    n_bad = 0
    worst_dev = 0.0
    for _ in range(200):
        pc, rc, rn, nc, nn = rng.uniform(
            (0.05, 0.05, 0.05, 0.5, 0.5), (1.0, 25.0, 25.0, 120.0, 120.0)).tolist()
        split = (pc, rc, rn, spec.bandwidth_hz, b, nc, nn)
        mu = rng.uniform(0.0, 1.5 * optimize_eta(*split, 0.0).mu_max)
        sol = optimize_eta(*split, mu)
        eta_grid = grid_search_eta(*split, mu)
        if sol.feasible != (not math.isnan(eta_grid)):
            n_bad += 1
        elif sol.feasible:
            dev = abs(sol.eta_star - eta_grid)
            worst_dev = max(worst_dev, dev)
            if dev > 1e-4:
                n_bad += 1
    checks.append((
        "optimizer-grid",
        n_bad == 0,
        "200 random instances, max |closed - grid| = %.2e, disagreements %d"
        % (worst_dev, n_bad),
    ))

    snap_pt, snap_config = _snapshot_config(spec)
    checks.extend(_snapshot_checks(snap_pt, snap_config, _VALIDATE_SNAPSHOTS))

    cfg_eta0 = replace(campaign_config(spec, pt, "coop", 0.0), trials=300)
    res_eta0 = run_campaign(cfg_eta0, keep_trials=True)
    res_nocoop = run_campaign(replace(cfg_eta0, strategy="nocoop"), keep_trials=True)
    checks.append((
        "eta0-equivalence",
        res_eta0.trials.tobytes() == res_nocoop.trials.tobytes(),
        "coop(eta=0) and nocoop trial records byte-identical over 300 trials",
    ))

    cfg_det = replace(cfg_eta0, eta=0.5, trials=200)
    res_one = run_campaign(cfg_det, n_jobs=1, keep_trials=True)
    res_two = run_campaign(cfg_det, n_jobs=2, keep_trials=True)
    checks.append((
        "determinism",
        res_one.trials.tobytes() == res_two.trials.tobytes()
        and res_one.throughput_mean == res_two.throughput_mean,
        "1-worker and 2-worker campaigns byte-identical over 200 trials",
    ))

    zf_mean, _, nc_mean, _ = link_rate_gap(replace(snap_config, trials=2000))
    rc, rn = pt.rate_coop, pt.rate_noncoop
    checks.append((
        "link-rate-gap",
        None,  # reported, not gated
        "fading-averaged ZF link rate %.3f vs moment closed form %.3f "
        "(ratio %.3f); non-cooperative %.3f vs %.3f (ratio %.3f); the closed "
        "forms average SINR before the log"
        % (zf_mean, rc, _ratio(zf_mean, rc), nc_mean, rn, _ratio(nc_mean, rn)),
    ))

    verdicts = [ok for _, ok, _ in checks if ok is not None]
    for name, ok, detail in checks:
        tag = "INFO" if ok is None else "PASS" if ok else "FAIL"
        report("%s %s: %s" % (tag, name, detail))
    all_ok = all(verdicts)
    report(
        "validation %s (%d gated checks)"
        % ("passed" if all_ok else "FAILED", len(verdicts))
    )
    return all_ok
