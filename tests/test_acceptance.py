"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package, records a
one-line verdict (replayed after the run by the terminal summary hook in
``conftest``), and then asserts.  Two verdicts are expected to read FAIL
today and are kept failing on purpose: the moment-based closed forms place
the SINR expectation inside the concave logarithm, and at the reference
pairing floor that gap is larger than the stated windows.  The README
quantifies the gap; weakening the window here would hide it.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from coopd2d.bandwidth import optimize_eta
from coopd2d.catalog import build_popularity
from coopd2d.clusters import coop_probability, make_plan, optimize_cluster_size
from coopd2d.experiments import (
    ExperimentSpec,
    analytic_point,
    cmd_optimize_bandwidth,
    cmd_simulate,
)
from coopd2d.geometry import SQRT2, SQRT5, interference_pdf, path_gain_moments, signal_pdf
from coopd2d.netsim import SimConfig, link_rate_gap, run_campaign, snapshot_counts
from coopd2d.population import expected_coop_users_exact
from coopd2d.rates import coop_link_rate, noncoop_link_rate

import conftest
import oracles


def _verdict(number: int, slug: str, checks) -> None:
    """Record one acceptance line, then assert every sub-check."""
    ok = all(good for _, good, _ in checks)
    parts = [
        "%s %s" % (name, msg) if good else "%s FAILED (%s)" % (name, msg)
        for name, good, msg in checks
    ]
    line = "ACCEPTANCE %d [%s]: %s; %s" % (
        number, slug, "PASS" if ok else "FAIL", "; ".join(parts)
    )
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_acceptance_1_popularity_and_distance_densities():
    """Group popularities normalize; the two distance densities integrate to
    one, match large-sample histograms, and hit the free-space anchors."""
    checks = []

    worst = 0.0
    for n_files, cache in ((300, 20), (90, 6), (45, 45), (7, 1)):
        for beta in (0.0, 0.3, 0.78, 1.0, 1.56, 2.4):
            model = build_popularity(n_files, cache, beta)
            worst = max(worst, abs(math.fsum(model.group_probs.tolist()) - 1.0))
    checks.append(
        ("normalization", worst <= 1e-12, "max |sum P - 1| = %.1e (tol 1e-12)" % worst)
    )

    gi, _ = quad(signal_pdf, 0.0, SQRT2, points=[1.0], limit=200)
    fi, _ = quad(interference_pdf, 0.0, SQRT5, points=[1.0, SQRT2, 2.0], limit=200)
    checks.append(
        (
            "pdf-integrals",
            abs(gi - 1.0) <= 1e-6 and abs(fi - 1.0) <= 1e-6,
            "int g - 1 = %.1e, int f - 1 = %.1e (tol 1e-6)" % (gi - 1.0, fi - 1.0),
        )
    )

    rng = np.random.default_rng(0xA11CE)
    g_sup = oracles.histogram_sup_norm(
        signal_pdf, oracles.sample_distances(rng, 10_000_000), SQRT2, 20
    )
    f_sup = oracles.histogram_sup_norm(
        interference_pdf,
        oracles.sample_distances(rng, 10_000_000, adjacent=True),
        SQRT5,
        40,
    )
    checks.append(
        (
            "histograms",
            g_sup <= 5e-3 and f_sup <= 1e-2,
            "1e7-sample sup norm g = %.1e (tol 5e-3), f = %.1e (tol 1e-2)"
            % (g_sup, f_sup),
        )
    )

    anchor = path_gain_moments(0.0, 0.0)
    checks.append(
        (
            "free-space-anchors",
            abs(anchor.q1 - 9.0) <= 1e-6 and abs(anchor.q2 - 1.0) <= 1e-6,
            "q1 = %.8f (want 9), q2 = %.8f (want 1)" % (anchor.q1, anchor.q2),
        )
    )

    _verdict(1, "popularity-and-distance-densities", checks)


def test_acceptance_2_population_enumeration_exactness(ref_radio):
    """The exact user-class enumeration reproduces a rational brute-force
    enumeration bit for bit, and the simulator's snapshots agree with it
    within three standard errors."""
    checks = []

    n_cases = 0
    n_equal = 0
    for k0 in (1, 2, 3):
        for beta in (0.0, 0.7, 1.0):
            model = build_popularity(20 * k0, 20, beta)
            for k in range(1, k0 + 1):
                for b in (1, 2, 3):
                    est = expected_coop_users_exact(model, k, b)
                    ref = oracles.brute_force_coop_mean(model, k, b)
                    n_cases += 1
                    n_equal += est.coop_mean == ref
    checks.append(
        (
            "enumeration",
            n_equal == n_cases,
            "%d of %d instances bit-for-bit against the rational oracle"
            % (n_equal, n_cases),
        )
    )

    model = build_popularity(60, 20, 1.0)
    mc_parts = []
    mc_ok = True
    n = 100_000
    for k, b, seed in ((2, 4, 0xACCE01), (3, 4, 0xACCE02)):
        exact = expected_coop_users_exact(model, k, b)
        cfg = SimConfig(
            plan=make_plan(75.0, b, k), radio=ref_radio, popularity=model,
            strategy="coop", trials=n, seed=seed, eta=0.5,
        )
        _, coops = snapshot_counts(cfg)
        se = float(coops.std(ddof=1)) / math.sqrt(n)
        dev = abs(float(coops.mean()) - exact.coop_mean)
        mc_ok = mc_ok and dev <= 3.0 * se
        mc_parts.append("K=%d B=%d |snapshots - exact| = %.4f (3 SE = %.4f)"
                        % (k, b, dev, 3.0 * se))
    checks.append(("monte-carlo", mc_ok, ", ".join(mc_parts)))

    _verdict(2, "population-enumeration-exactness", checks)


def test_acceptance_3_bandwidth_split_optimality():
    """The closed-form band split matches a dense grid search on random
    instances, and the dense-hotspot cluster optimum hits the
    cache-partition ceiling."""
    checks = []

    rng = np.random.default_rng(0xACCE55)
    w, b = 20e6, 9
    wb = w * b
    n_bad = 0
    n_infeasible = 0
    n_sliver = 0
    worst = 0.0
    for _ in range(1000):
        pc = rng.uniform(0.05, 1.0)
        rc = rng.uniform(0.05, 25.0)
        rn = rng.uniform(0.05, 25.0)
        nc = rng.uniform(0.5, 120.0)
        nn = rng.uniform(0.5, 120.0)
        mu_max = wb / (nc / rc + nn / rn)
        mu = rng.uniform(0.0, 1.5 * mu_max)
        sol = optimize_eta(pc, rc, rn, w, b, nc, nn, mu)
        grid = oracles.grid_best_eta(pc, rc, rn, w, b, nc, nn, mu)
        if not sol.feasible:
            n_infeasible += 1
            n_bad += not math.isnan(grid)
        elif math.isnan(grid):
            # feasible interval narrower than one grid spacing: the grid
            # misses it, the closed form does not
            n_sliver += 1
            width = min(1.0 - mu * nn / (wb * rn), 1.0) - mu * nc / (wb * rc)
            n_bad += not (0.0 <= width < 2e-5)
        else:
            dev = abs(sol.eta_star - grid)
            worst = max(worst, dev)
            n_bad += dev > 1e-4
    checks.append(
        (
            "grid-agreement",
            n_bad == 0,
            "1000 instances (%d infeasible, %d sub-grid slivers), "
            "max |closed - grid| = %.1e (tol 1e-4), disagreements %d"
            % (n_infeasible, n_sliver, worst, n_bad),
        )
    )

    k_star, _, _ = optimize_cluster_size(build_popularity(300, 20, 1.0), 1_000_000)
    checks.append(
        ("dense-hotspot-optimum", k_star == 15, "K* = %d at 1e6 users (want 15)" % k_star)
    )

    _verdict(3, "bandwidth-split-optimality", checks)


def test_acceptance_4_simulation_vs_closed_forms(
    ref_model, ref_plan, ref_radio, ref_geom
):
    """Simulated snapshot statistics match their formulas; fading-averaged
    link rates are compared against the moment-based closed forms.

    The cooperative sub-check is expected to FAIL: the closed form averages
    the aggregate SNR before the logarithm, which overstates the
    fading-averaged rate by more than the 20 percent window at the
    reference pairing floor.
    """
    checks = []
    cfg = SimConfig(
        plan=ref_plan,
        radio=ref_radio,
        popularity=ref_model,
        strategy="coop",
        trials=100_000,
        seed=20230817,
        eta=0.5,
        min_pairing_distance_m=1.0,
    )

    n = cfg.trials
    modes, coops = snapshot_counts(cfg)

    pc = coop_probability(ref_model, 15, 9)
    freq = float(modes.mean())
    se = math.sqrt(pc * (1.0 - pc) / n)
    checks.append(
        (
            "mode1-frequency",
            abs(freq - pc) <= 3.0 * se,
            "empirical %.6f vs formula %.6f over 1e5 snapshots (3 SE = %.1e)"
            % (freq, pc, 3.0 * se),
        )
    )

    nc_closed = oracles.closed_form_coop_mean(ref_model, 15, 9)
    se_c = float(coops.std(ddof=1)) / math.sqrt(n)
    checks.append(
        (
            "coop-count",
            abs(float(coops.mean()) - nc_closed) <= 3.0 * se_c,
            "empirical %.4f vs formula %.4f (3 SE = %.4f)"
            % (float(coops.mean()), nc_closed, 3.0 * se_c),
        )
    )

    zf_mean, _, nn_mean, _ = link_rate_gap(replace(cfg, trials=2000))
    rc = coop_link_rate(ref_geom, ref_radio, ref_plan.cluster_side_m, 9)
    rn = noncoop_link_rate(ref_geom)
    checks.append(
        (
            "noncoop-link-rate",
            abs(nn_mean / rn - 1.0) <= 0.15,
            "simulated %.4f vs closed form %.4f, ratio %.3f (tol 15%%)"
            % (nn_mean, rn, nn_mean / rn),
        )
    )
    checks.append(
        (
            "coop-link-rate",
            abs(zf_mean / rc - 1.0) <= 0.20,
            "simulated %.4f vs closed form %.4f, ratio %.3f (tol 20%%)"
            % (zf_mean, rc, zf_mean / rc),
        )
    )

    _verdict(4, "simulation-vs-closed-forms", checks)


def test_acceptance_5_strategy_throughput_ratios():
    """Simulated campaign throughputs: cooperative gain over the baseline
    and the strategy ordering under a skewed catalog.

    The skewed-catalog gain sub-check is expected to FAIL: the target ratio
    of 4 assumes the cooperative links realize the moment-based closed-form
    rate, and the fading-averaged rate the simulator delivers sits about a
    quarter below it.
    """
    checks = []
    spec = ExperimentSpec(command="simulate")
    pt1 = analytic_point(spec)
    pt0 = analytic_point(replace(spec, beta=0.0))
    assert pt1.solution.feasible and pt0.solution.feasible

    def campaign(model, strategy, eta):
        cfg = SimConfig(
            plan=pt1.plan,
            radio=pt1.radio,
            popularity=model,
            strategy=strategy,
            trials=10_000,
            seed=20230817,
            eta=eta,
            min_pairing_distance_m=1.0,
        )
        return run_campaign(cfg)

    r_opt1 = campaign(pt1.model, "coop", pt1.solution.eta_star)
    r_half = campaign(pt1.model, "coop", 0.5)
    r_no1 = campaign(pt1.model, "nocoop", 0.0)
    r_tdma = campaign(pt1.model, "tdma", 0.0)
    r_opt0 = campaign(pt0.model, "coop", pt0.solution.eta_star)
    r_no0 = campaign(pt0.model, "nocoop", 0.0)

    ratio0 = r_opt0.throughput_mean / r_no0.throughput_mean
    checks.append(
        (
            "uniform-catalog-gain",
            1.3 <= ratio0 <= 2.0,
            "optimized/baseline = %.3f at beta 0 (want 1.3..2.0)" % ratio0,
        )
    )

    def separated(a, b):
        return (
            a.throughput_mean - a.throughput_ci95
            > b.throughput_mean + b.throughput_ci95
        )

    checks.append(
        (
            "strategy-ordering",
            separated(r_opt1, r_half)
            and separated(r_half, r_no1)
            and separated(r_no1, r_tdma),
            "optimized %.3e > even-split %.3e > baseline %.3e > slotted %.3e "
            "bit/s with non-overlapping 95%% intervals"
            % (
                r_opt1.throughput_mean,
                r_half.throughput_mean,
                r_no1.throughput_mean,
                r_tdma.throughput_mean,
            ),
        )
    )

    ratio1 = r_opt1.throughput_mean / r_no1.throughput_mean
    checks.append(
        (
            "skewed-catalog-gain",
            ratio1 >= 4.0,
            "optimized/baseline = %.3f at beta 1 (want >= 4.0)" % ratio1,
        )
    )

    _verdict(5, "strategy-throughput-ratios", checks)


def test_acceptance_6_byte_determinism(tmp_path):
    """Campaign CSVs are byte-identical across reruns and worker counts;
    sweep CSVs are byte-identical across reruns."""
    checks = []

    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    spec = ExperimentSpec(command="simulate", trials=400, out=str(outs[0]))
    cmd_simulate(spec)
    cmd_simulate(replace(spec, out=str(outs[1]), n_jobs=2))
    cmd_simulate(replace(spec, out=str(outs[2])))
    one, two, rerun = (p.read_bytes() for p in outs)
    checks.append(
        (
            "worker-count",
            one == two,
            "400-trial campaign CSV identical for 1 and 2 workers",
        )
    )
    checks.append(("campaign-rerun", one == rerun, "repeat run byte-identical"))

    sweep_out = tmp_path / "sweep.csv"
    sweep = ExperimentSpec(
        command="optimize-bandwidth",
        sweep_name="mu_bps",
        sweep_values=(0.0, 1e6, 2e6),
        out=str(sweep_out),
    )
    cmd_optimize_bandwidth(sweep)
    first = sweep_out.read_bytes()
    cmd_optimize_bandwidth(sweep)
    checks.append(
        ("sweep-rerun", sweep_out.read_bytes() == first, "repeat sweep byte-identical")
    )

    _verdict(6, "byte-determinism", checks)
