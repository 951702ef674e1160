"""One benchmark sample, run in a fresh interpreter by ``run.py``.

The sample imports the package, builds its inputs from ``--seed``, notes
the moment it is ready (``t_ready``, on the same monotonic clock as the
parent's spawn time), runs the timed calls through public entry points
only (``run_campaign`` and ``coopd2d.cli.main``), checks every output it
timed, and prints one JSON object as the last line of its standard output.

Every timed block or call is bracketed by runs of a calibration kernel
(``calibrate.py``) that give its time at a reference machine speed.

With ``--trace 1`` a campaign sample replays its rounds traced after the
untraced ones, and a sweep or validate sample runs traced: the module-level
functions the package looks up at call time are wrapped from here
(``spans.py``) and the per-layer span summary goes into the JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import time
from dataclasses import replace
from statistics import median

import numpy as np
import scipy
import yaml

import calibrate  # perfbench/; the script's directory leads sys.path
from coopd2d import cli
from coopd2d.catalog import build_popularity
from coopd2d.clusters import make_plan
from coopd2d.netsim import SimConfig, run_campaign
from coopd2d.rates import RadioParams
from spans import Tracer

STRATEGIES = ("coop", "nocoop", "tdma")

# Campaign workloads.  Both use the reference catalog (300 files, 20 per
# cache, hence 15 groups), radio and 25 m cells; they differ in what the
# trial does.  See README.md for why each exists.
CAMPAIGNS = {
    # Mode-1 share ~1.0: every coop trial runs the cooperative schedule
    # branch and a 9x9 zero-forcing inversion.
    "campaign-ref": {"beta": 1.0, "hotspot_m": 75.0, "n_clusters": 9, "users": 15},
    # coop_probability ~1e-4: zero-forcing essentially never runs, a third
    # of the requests are cellular, and the 4x4 grid doubles the
    # per-cluster loops and the non-coop SINR matrix.
    "campaign-sparse": {"beta": 0.0, "hotspot_m": 100.0, "n_clusters": 16, "users": 10},
}
N_FILES, CACHE_SIZE = 300, 20
COOP_ETA = 0.5  # fixed, so analytic-layer changes cannot move simulator work
MIN_PAIRING_M = 1.0
RADIO = {
    "tx_power_dbm": 20.0,
    "noise_dbm": -95.0,
    "path_loss_intercept_db": 37.6,
    "alpha": 3.68,
    "bandwidth_hz": 20e6,
}
BLOCK_TRIALS = 100
# Rounds every run makes whatever the machine speed, so record hashes and
# shares over this prefix repeat exactly for a given seed.
FIXED_ROUNDS = 20

SWEEP_BETAS = (0.4, 0.7, 1.0, 1.2)
# Per-user floors in bit/s spanning both sides of the feasibility limit
# mu_max (3.7e6 at beta 0.4 up to 8.2e6 at beta 1.2).
SWEEP_MUS = (0.0, 0.5e6, 1e6, 2e6, 3e6, 4e6, 6e6, 10e6)
ETA_GRID_TOL = 1e-4


def zipf_group_probs(beta: float) -> list[float]:
    """Group request probabilities of the catalog, computed independently."""
    weights = [r ** (-beta) for r in range(1, N_FILES + 1)]
    total = math.fsum(weights)
    return [
        math.fsum(weights[g * CACHE_SIZE : (g + 1) * CACHE_SIZE]) / total
        for g in range(N_FILES // CACHE_SIZE)
    ]


def round_seed(seed: int, r: int) -> int:
    return seed * 100_000 + r


# --------------------------------------------------------------------------
# campaign workloads


def campaign_setup(workload: str):
    w = CAMPAIGNS[workload]
    base = SimConfig(
        plan=make_plan(w["hotspot_m"], w["n_clusters"], w["users"]),
        radio=RadioParams(**RADIO),
        popularity=build_popularity(N_FILES, CACHE_SIZE, w["beta"]),
        strategy="coop",
        trials=BLOCK_TRIALS,
        seed=0,
        eta=COOP_ETA,
        min_pairing_distance_m=MIN_PAIRING_M,
    )
    return {
        s: replace(base, strategy=s, eta=COOP_ETA if s == "coop" else 0.0)
        for s in STRATEGIES
    }


def run_rounds(configs, seed, n_rounds, seconds, bracket, tracer=None):
    """Interleaved equal blocks of every strategy, rotating the order.

    Runs ``n_rounds`` rounds, or, when ``n_rounds`` is None, at least
    ``FIXED_ROUNDS`` and until ``seconds`` have passed.  Returns per-round
    ``{strategy: (seconds, records, normalised seconds)}``.
    """
    t_begin = time.perf_counter()

    def more(r):
        if n_rounds is not None:
            return r < n_rounds
        return r < FIXED_ROUNDS or time.perf_counter() - t_begin < seconds

    rounds = []
    r = 0
    while more(r):
        order = STRATEGIES[r % 3 :] + STRATEGIES[: r % 3]
        blocks = {}
        for s in order:
            cfg = replace(configs[s], seed=round_seed(seed, r))
            span = tracer.span("netsim.run_campaign") if tracer else contextlib.nullcontext()
            with span:
                t0 = time.perf_counter()
                res = run_campaign(cfg, keep_trials=True)
                t1 = time.perf_counter()
            blocks[s] = (t1 - t0, res.trials, bracket.normalise(t1 - t0))
        rounds.append(blocks)
        r += 1
    return rounds


def campaign_checks(workload, rounds):
    """Output checks; returns (failed operations, check lines)."""
    w = CAMPAIGNS[workload]
    k, b = w["users"], w["n_clusters"]
    m = k * b
    p = zipf_group_probs(w["beta"])
    failed = 0
    lines = []

    mismatched = 0
    for blocks in rounds:
        coop, nocoop = blocks["coop"][1], blocks["nocoop"][1]
        mode0 = coop["mode"] == 0
        if not (
            np.array_equal(mode0, nocoop["mode"] == 0)
            and coop["throughput"][mode0].tobytes()
            == nocoop["throughput"][mode0].tobytes()
        ):
            mismatched += 1
    failed += mismatched
    n_mode0 = sum(int((bl["coop"][1]["mode"] == 0).sum()) for bl in rounds)
    lines.append(
        "%s mode0-equality: coop == nocoop throughput on %d Mode-0 trials, "
        "%d of %d rounds differ"
        % ("PASS" if not mismatched else "FAIL", n_mode0, mismatched, len(rounds))
    )

    recs = np.concatenate([bl["coop"][1] for bl in rounds])
    n = recs.shape[0]

    # E[N_coop] = K B sum_k p_k h_k^(B-1), h_k = 1 - (1 - p_k)^K (linearity).
    mu_c = k * b * math.fsum(
        p[g] * (1.0 - (1.0 - p[g]) ** k) ** (b - 1) for g in range(k)
    )
    coop_counts = recs["n_coop"].astype(np.float64)
    # A non-zero count is at least B (one requester per cluster), so
    # Var >= B mu - mu^2; the floor keeps a run with no Mode-1 trial honest.
    var_c = max(float(coop_counts.var(ddof=1)), b * mu_c - mu_c * mu_c)
    se_c = math.sqrt(var_c / n)
    mean_c = float(coop_counts.mean())
    ok = abs(mean_c - mu_c) <= 4.0 * se_c
    failed += not ok
    lines.append(
        "%s n_coop-mean: %.4f vs exact %.4f over %d trials (4 SE = %.4f)"
        % ("PASS" if ok else "FAIL", mean_c, mu_c, n, 4.0 * se_c)
    )

    # N_cellular ~ Binomial(M, q), q = uncached mass.
    q = math.fsum(p[k:])
    se_b = math.sqrt(m * q * (1.0 - q) / n)
    mean_b = float(recs["n_cellular"].mean())
    ok = abs(mean_b - m * q) <= 4.0 * se_b
    failed += not ok
    lines.append(
        "%s n_cellular-mean: %.4f vs exact %.4f over %d trials (4 SE = %.4f)"
        % ("PASS" if ok else "FAIL", mean_b, m * q, n, 4.0 * se_b)
    )
    return failed, lines


def records_sha256(rounds, strategy):
    h = hashlib.sha256()
    for blocks in rounds[:FIXED_ROUNDS]:
        h.update(blocks[strategy][1].tobytes())
    return h.hexdigest()


def campaign_shares(workload, rounds):
    """Diagnostic shares over the fixed round prefix (exact per seed)."""
    b = CAMPAIGNS[workload]["n_clusters"]
    prefix = rounds[:FIXED_ROUNDS]
    coop = np.concatenate([bl["coop"][1] for bl in prefix])
    every = np.concatenate([bl[s][1] for bl in prefix for s in STRATEGIES])
    return {
        "netsim.mode1_share": float(coop["mode"].mean()),
        "netsim.zf_dropped_link_share": float(coop["dropped_links"].sum()) / (coop.size * b),
        "netsim.discarded_share": float(every["discarded"].mean()),
        "netsim.silent_cluster_share": float(every["silent_clusters"].sum()) / (every.size * b),
        "netsim.degenerate_share": float(coop["degenerate"].mean()),
    }


def block_stats(rounds, trials):
    """Per strategy: wall and normalised µs/trial of every block."""
    wall = {s: [bl[s][0] / trials * 1e6 for bl in rounds] for s in STRATEGIES}
    norm = {s: [bl[s][2] / trials * 1e6 for bl in rounds] for s in STRATEGIES}
    return wall, norm


def run_campaign_workload(args, out):
    configs = campaign_setup(args.workload)
    bracket = ready(out, calibrate.small_ops, 1)
    if args.setup_only:
        return
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = run_rounds(configs, args.seed, None, seconds, bracket)
    out["rss_mb"] = peak_rss_mb()
    wall, norm = block_stats(rounds, BLOCK_TRIALS)
    out["trial_us"], out["norm_trial_us"] = wall, norm
    # one trial of each strategy: the sum of the strategies' medians
    out["op_ms"] = [sum(median(v) for v in norm.values()) / 1e3]
    out["wall_op_ms"] = [sum(median(v) for v in wall.values()) / 1e3]
    out["attempted"] = 3 * len(rounds)
    failed, lines = campaign_checks(args.workload, rounds)
    out["hashes"] = {s: records_sha256(rounds, s) for s in STRATEGIES}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(configs, args.seed, len(rounds), 0.0, bracket, tracer)
        finally:
            tracer.restore()
        out["attempted"] += 3 * len(traced)
        differ = sum(
            a[s][1].tobytes() != t[s][1].tobytes()
            for a, t in zip(rounds, traced)
            for s in STRATEGIES
        )
        failed += differ
        lines.append(
            "%s traced-identity: %d of %d traced blocks differ from untraced"
            % ("PASS" if not differ else "FAIL", differ, 3 * len(traced))
        )
        out["traced_hashes"] = {s: records_sha256(traced, s) for s in STRATEGIES}
        plain_s = sum(bl[s][2] for bl in rounds for s in STRATEGIES)
        traced_s = sum(bl[s][2] for bl in traced for s in STRATEGIES)
        out["overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        out["shares"] = campaign_shares(args.workload, rounds)
        out["layers"] = tracer.summary()
        out["missing"] = tracer.missing
        out["n_ops"] = len(traced)
        tracer.write(spans_path(args))
    out["failed"] = failed
    out["checks"] = lines


# --------------------------------------------------------------------------
# analytic sweep


def sweep_setup(args):
    work = os.path.join(args.out, "work-%s" % args.label)
    os.makedirs(work, exist_ok=True)
    calls = []
    for beta in SWEEP_BETAS:
        cfg = os.path.join(work, "beta%s.yaml" % beta)
        with open(cfg, "w") as fh:
            yaml.safe_dump(
                {"beta": beta, "sweep": {"name": "mu_bps", "values": list(SWEEP_MUS)}},
                fh,
            )
        calls.append((beta, cfg, os.path.join(work, "beta%s.csv" % beta)))
    return calls


def sweep_checks(calls, codes):
    failed, lines, digest = 0, [], hashlib.sha256()
    for (beta, _, path), rc in zip(calls, codes):
        if rc != 0:
            failed += len(SWEEP_MUS)
            lines.append("FAIL sweep beta=%s: exit code %d" % (beta, rc))
            continue
        with open(path, "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        rows = list(csv.DictReader(io.StringIO(raw.decode().split("\n", 1)[1])))
        bad = abs(len(SWEEP_MUS) - len(rows))
        for row, mu in zip(rows, SWEEP_MUS):
            feasible = row["feasible"] == "true"
            grid = float(row["eta_star_grid"])
            ok = (
                float(row["beta"]) == beta
                and float(row["mu_bps"]) == mu
                and feasible == (not math.isnan(grid))
                and (not feasible or abs(float(row["eta_star"]) - grid) <= ETA_GRID_TOL)
            )
            bad += not ok
        failed += bad
        lines.append(
            "%s sweep beta=%s: %d of %d points disagree with the grid or its "
            "feasibility" % ("PASS" if not bad else "FAIL", beta, bad, len(SWEEP_MUS))
        )
    return failed, lines, digest.hexdigest()


def run_sweep_workload(args, out):
    calls = sweep_setup(args)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    bracket = ready(out, calibrate.bulk, 4)
    if args.setup_only:
        return
    codes, wall_ms, norm_ms = [], [], []
    with contextlib.redirect_stdout(io.StringIO()):
        for _, cfg, csv_path in calls:
            argv = ["optimize-bandwidth", "--config", cfg, "--seed", str(args.seed)]
            t0 = time.perf_counter()
            codes.append(cli.main(argv + ["--out", csv_path]))
            t1 = time.perf_counter()
            wall_ms.append((t1 - t0) * 1e3)
            norm_ms.append(bracket.normalise(t1 - t0) * 1e3)
    out["op_ms"] = [sum(norm_ms)]
    out["wall_op_ms"] = [sum(wall_ms)]
    out["call_ms"] = norm_ms
    out["rss_mb"] = peak_rss_mb()
    if tracer:
        tracer.restore()
    out["attempted"] = len(SWEEP_BETAS) * len(SWEEP_MUS)
    out["failed"], out["checks"], out["digest"] = sweep_checks(calls, codes)
    if tracer:
        finish_trace(tracer, args, out)


# --------------------------------------------------------------------------
# validate


_SUMMARY = re.compile(r"^validation passed \((\d+) gated checks\)$")


def run_validate_workload(args, out):
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    bracket = ready(out, calibrate.small_ops, 3)
    if args.setup_only:
        return
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        # As users type it: validate's own gates run at its built-in seed
        # (see README.md, "validate and --seed").
        rc = cli.main(["validate"])
    t1 = time.perf_counter()
    out["op_ms"] = [bracket.normalise(t1 - t0) * 1e3]
    out["wall_op_ms"] = [(t1 - t0) * 1e3]
    out["rss_mb"] = peak_rss_mb()
    if tracer:
        tracer.restore()
    text = buf.getvalue()
    lines = text.splitlines()
    n_pass = sum(line.startswith("PASS ") for line in lines)
    n_fail = sum(line.startswith("FAIL ") for line in lines)
    summary = [m for m in map(_SUMMARY.match, lines) if m]
    ok = rc == 0 and n_fail == 0 and n_pass > 0 and len(summary) == 1 and int(
        summary[0].group(1)
    ) == n_pass
    out["attempted"] = 1
    out["failed"] = int(not ok)
    out["checks"] = [
        "%s validate: exit %d, %d PASS, %d FAIL lines"
        % ("PASS" if ok else "FAIL", rc, n_pass, n_fail)
    ] + ["  " + line for line in lines if line.startswith("FAIL ")]
    out["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if tracer:
        finish_trace(tracer, args, out)


# --------------------------------------------------------------------------


def ready(out, kernel, repeats):
    """Mark the end of set-up; return the bracket that normalises the calls."""
    out["t_ready"] = time.perf_counter()
    return calibrate.Bracket(kernel, repeats)


def finish_trace(tracer, args, out):
    out["layers"] = tracer.summary()
    out["missing"] = tracer.missing
    out["n_ops"] = 1
    tracer.write(spans_path(args))


def spans_path(args):
    return os.path.join(
        args.out, "spans-%s-seed%d-%s.csv.gz" % (args.workload, args.seed, args.label)
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "openblas_config": blas.get("openblas configuration"),
    }


WORKLOADS = {
    "campaign-ref": run_campaign_workload,
    "campaign-sparse": run_campaign_workload,
    "analytic-sweep": run_sweep_workload,
    "validate": run_validate_workload,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out: dict = {}
    WORKLOADS[args.workload](args, out)
    if not args.setup_only:
        out["versions"] = versions()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
