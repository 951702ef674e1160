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
    INTERFERENCE_BREAKS, SIGNAL_BREAKS, interference_pdf, path_gain_moments, signal_pdf
)
from .netsim import SimConfig, link_rate_gap, run_campaign, snapshot_counts
from .population import expected_coop_users_closed, expected_coop_users_exact

__all__ = ["cmd_validate"]

_VALIDATE_SNAPSHOTS = 100_000


def _power_integral(a: float, b: float, e: float) -> float:
    """``int_a^b rho^(e-1) d rho`` for ``0 <= a < b``, accurate as ``e`` nears 0."""
    if e == 0.0:
        return math.log(b / a)
    log_ratio = math.log(b / a) if a else math.inf
    return -((a if e < 0.0 else b) ** e) * math.expm1(-abs(e) * log_ratio) / abs(e)


def _offset_moment(alpha: float, r_min: float, i: int, j: int) -> float:
    """``E[r^-alpha 1{r >= r_min}]``, ``r`` between uniform points of unit cells
    ``(0, 0)`` and ``(i, j)``.  Their difference has density ``k(u - i) k(v - j)``,
    ``k(t) = max(0, 1 - |t|)``: along a ray, ``rho^(1-alpha)`` times a quadratic
    between kinks, integrated in closed form.  One angular ``quad`` remains, split
    at the cell-corner directions, at multiples of pi/4 and where ``rho = r_min``
    crosses a kink line.  Needs ``r_min > 0`` or ``alpha < 2``; a failed ``quad``
    or an overflow raises :class:`ConfigurationError`."""

    def ray(theta):  # the radial integral along theta, and its terms' size
        c, s = math.cos(theta), math.sin(theta)
        # past the last kink the ray has left the support
        kinks = sorted((n + t) / d for n, d in ((i, c), (j, s)) if d for t in (-1, 0, 1))
        rho = [r_min] + [p for p in kinks if p > r_min]
        total = size = 0.0
        for a, b in zip(rho, rho[1:]):
            tu, tv = 0.5 * (a + b) * c - i, 0.5 * (a + b) * s - j
            if abs(tu) < 1.0 and abs(tv) < 1.0:  # inside the support
                su, sv = math.copysign(1.0, tu), math.copysign(1.0, tv)
                u0, u1, v0, v1 = 1.0 + su * i, -su * c, 1.0 + sv * j, -sv * s
                terms = [w * _power_integral(a, b, e - alpha) for w, e in
                         ((u0 * v0, 2.0), (u0 * v1 + u1 * v0, 3.0), (u1 * v1, 4.0))]
                total, size = total + sum(terms), size + sum(map(abs, terms))
        return total, size

    pts = [(i + u, j + v) for u in (-1, 0, 1) for v in (-1, 0, 1)]
    for t in (-1, 0, 1):  # where the circle rho = r_min crosses a kink line
        h = math.sqrt(max((r_min - i - t) * (r_min + i + t), 0.0))
        g = math.sqrt(max((r_min - j - t) * (r_min + j + t), 0.0))
        pts += [(i + t, h), (i + t, -h), (g, j + t), (-g, j + t)]
    cuts = sorted({k * math.pi / 4.0 for k in range(-4, 5)}
                  | {math.atan2(y, x) for x, y in pts if x or y})
    try:
        spans = [(lo, hi, ray(0.5 * (lo + hi))[1]) for lo, hi in zip(cuts, cuts[1:])]
        # near a kernel zero the terms cancel: ask no more than their rounding allows
        floor = 1e-15 * sum(size * (hi - lo) for lo, hi, size in spans)
        parts = [quad(lambda t: ray(t)[0], lo, hi, epsabs=floor, epsrel=1e-13, limit=50,
                      full_output=1) for lo, hi, size in spans if size]
    except OverflowError:
        parts = [(math.inf, 0.0, {}, "r^-alpha overflows the float range")]
    total = sum(part[0] for part in parts)
    failure = [part[3].splitlines()[0] for part in parts if len(part) > 3]
    if failure or not math.isfinite(total):
        raise ConfigurationError(
            "cell-offset moment for pairing floor r_min=%g cluster sides at alpha=%g: %s"
            % (r_min, alpha, (failure or ["the sum overflows the float range"])[0]))
    return total


def _ratio(measured: float, closed_form: float) -> float:
    """``measured / closed_form``, or nan when the closed form is 0."""
    return measured / closed_form if closed_form else math.nan


def _snapshot_config(spec: ExperimentSpec) -> tuple[AnalyticPoint, SimConfig]:
    """The skew-1 analytic point and the cooperative config (``eta = 0.5``)
    whose snapshots ``validate`` draws; callers set its trials and seed."""
    pt = analytic_point(replace(spec, beta=1.0))
    return pt, campaign_config(spec, pt, "coop", 0.5)


def _snapshot_checks(spec: ExperimentSpec, n_snap: int) -> list[tuple[str, bool, str]]:
    """Gate the simulated Mode-1 frequency and cooperative count over snapshots
    ``0 .. n_snap - 1`` at the reference seed ``ExperimentSpec.seed``, so the
    records do not depend on ``spec.seed``."""
    pt, config = _snapshot_config(spec)
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
    integrals), the cell-offset kernel versus quadrature moments,
    enumeration versus closed-form versus simulated-snapshot populations,
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
    for fn, breaks in ((signal_pdf, SIGNAL_BREAKS), (interference_pdf, INTERFERENCE_BREAKS)):
        for bpt in breaks:
            worst = max(worst, abs(float(fn(bpt - 1e-12)) - float(fn(bpt + 1e-12))))
    checks.append(
        ("pdf-continuity", worst < 1e-9, "max jump at a breakpoint = %.3e" % worst)
    )

    # at alpha = 0 the moments are the densities' integrals: int g = q1 - 8 q2
    # and int f = q2 must both be 1
    anchor = path_gain_moments(0.0, 0.0)
    checks.append((
        "moment-anchors",
        abs(anchor.q1 - 9.0) < 1e-6
        and abs(anchor.q2 - 1.0) < 1e-6
        and abs(anchor.signal_moment - 1.0) < 1e-6,
        "alpha=0: q1 = %.9f (want 9), q2 = int f = %.9f (want 1), "
        "int g = %.9f (want 1)" % (anchor.q1, anchor.q2, anchor.signal_moment),
    ))

    geom = pt.geom
    pairs = [(_offset_moment(spec.alpha, geom.r_min, i, 0), exact)
             for i, exact in ((0, geom.signal_moment), (1, geom.q2))]
    checks.append((
        "moment-kernel",
        all(abs(kernel - exact) <= 1e-8 * exact + 1e-9 for kernel, exact in pairs),
        "cell-offset kernel vs quadrature: relative gap %.1e signal, %.1e "
        "interference (window 1e-8 relative + 1e-9)"
        % tuple(abs(kernel - exact) / (exact or 1.0) for kernel, exact in pairs),
    ))

    # two cached groups, K = 2 users in each cell of a 2 x 2 grid
    small = build_popularity(2 * spec.cache_size, spec.cache_size, 1.0)
    exact = expected_coop_users_exact(small, 2, 4).coop_mean
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
        mu_max = spec.bandwidth_hz * b / (nc / rc + nn / rn)
        mu = rng.uniform(0.0, 1.5 * mu_max)
        sol = optimize_eta(pc, rc, rn, spec.bandwidth_hz, b, nc, nn, mu)
        eta_grid = grid_search_eta(pc, rc, rn, spec.bandwidth_hz, b, nc, nn, mu)
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

    checks.extend(_snapshot_checks(spec, _VALIDATE_SNAPSHOTS))

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

    zf_mean, _, nc_mean, _ = link_rate_gap(replace(_snapshot_config(spec)[1], trials=2000))
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
