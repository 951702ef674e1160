"""coopd2d benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload campaign-ref --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every sample runs in a fresh interpreter (``worker.py``) so
set-up time covers interpreter start, import and input building.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Lines before it are a readable
report; the full record (environment, per-strategy timings, checks, record
hashes) goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

STRATEGY_ORDER = ("coop", "nocoop", "tdma")
WORKLOADS = ("campaign-ref", "campaign-sparse", "analytic-sweep", "validate")
SETUP_SAMPLES = 3  # extra set-up-only interpreters per untraced run
DEADLINE_S = 170.0  # the whole run must end within 180 s


class BenchError(Exception):
    pass


def spawn(args, label, seconds, trace, deadline, setup_only=False):
    """Run one worker interpreter; returns its JSON record."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(float(seconds)),
        "--trace", str(trace),
        "--out", OUT,
        "--label", label,
    ] + (["--setup-only"] if setup_only else [])
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker %s timed out" % label) from exc
    if proc.returncode != 0:
        raise BenchError(
            "worker %s exited %d:\n%s" % (label, proc.returncode, proc.stderr[-4000:])
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - t_spawn
    return record


def quantile_report(values):
    """Median, the highest of p90/p99/p99.9 with >= 10 samples beyond it, n."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            idx = min(n - 1, int(round(q / 100.0 * (n - 1))))
            out["p%g" % q] = values[idx]
            break
    return out


def fmt(q, unit):
    tail = "".join(" %s %.6g" % (k, v) for k, v in q.items() if k[0] == "p")
    return "median %.6g%s %s (n=%d)" % (q["median"], tail, unit, q["n"])


def run_samples(args, deadline, trace, seconds, prefix):
    """Fresh-interpreter samples, started while ``seconds`` have not passed."""
    samples = []
    t0 = time.perf_counter()
    while True:
        samples.append(spawn(args, "%s%d" % (prefix, len(samples)), seconds, trace, deadline))
        if time.perf_counter() - t0 >= seconds:
            return samples


def measure(args, deadline):
    """Run the workload's interpreters.

    Returns (records that measured set-up, untraced samples, traced samples).
    """
    campaign = args.workload.startswith("campaign-")
    setups, samples, traced = [], [], []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            setups.append(spawn(args, "setup%d" % i, 0, 0, deadline, setup_only=True))
    if campaign:
        samples.append(spawn(args, "main", args.seconds, args.trace, deadline))
    elif args.trace:
        samples = run_samples(args, deadline, 0, args.seconds / 2, "plain")
        traced = run_samples(args, deadline, 1, args.seconds / 2, "traced")
    else:
        samples = run_samples(args, deadline, 0, args.seconds, "sample")
    return setups + samples, samples, traced


def merge_layers(records):
    merged: dict = {}
    for rec in records:
        for name, layer in rec["layers"].items():
            m = merged.setdefault(
                name, {"calls": 0, "self_ns": 0, "in_trial": {}, "looped": 0, "looped_ns": 0}
            )
            for key in ("calls", "self_ns", "looped", "looped_ns"):
                m[key] += layer[key]
            for label, n in layer["in_trial"].items():
                m["in_trial"][label] = m["in_trial"].get(label, 0) + n
    return merged


def per_layer_metrics(layers, n_ops, shares, strategy_us, overhead_pct, missing):
    """Values of the ``per_layer`` metrics (0 where a layer did not run)."""
    scale = {"us": 1e3, "ms": 1e6, "s": 1e9}

    def self_time(layer, unit):
        rec = layers.get(layer)
        return rec["self_ns"] / rec["calls"] / scale[unit] if rec and rec["calls"] else 0.0

    def calls(layer):
        return layers.get(layer, {"calls": 0})["calls"] / n_ops

    def in_trial(layer, label=None):
        counts = layers.get(layer, {"in_trial": {}})["in_trial"]
        return counts.get(label, 0) if label else sum(counts.values())

    def ratio(a, b):
        return a / b if b else 0.0

    looped = [layers[n] for n in ("netsim.run_campaign", "experiments.run_campaign") if n in layers]
    values = {
        "netsim.zf_rates.calls_per_trial": ratio(
            in_trial("netsim.zf_rates", "coop"), in_trial("netsim.trial", "coop")
        ),
        "netsim.noncoop_rates.calls_per_trial": ratio(
            in_trial("netsim.noncoop_rates"), in_trial("netsim.trial")
        ),
        "netsim.aggregate_ms": ratio(
            sum(r["looped_ns"] for r in looped) / 1e6, sum(r["looped"] for r in looped)
        ),
        "population.mc.calls": calls("population.mc"),
        "population.exact.calls": calls("population.exact"),
        "population.calls_per_point": ratio(
            calls("population.mc"), calls("experiments.analytic_point")
        ),
        "geometry.path_gain_moments.calls": calls("geometry.path_gain_moments"),
        "trace.overhead_pct": overhead_pct,
        "trace.missing": float(len(missing)),
    }
    values.update(shares)
    for s, us in strategy_us.items():
        values["netsim.%s_trial_us" % s] = us
    return values, self_time


def result_metrics(spec, values, self_time):
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name in values:
            value = values[name]
        elif ".self_" in name:
            value = self_time(name.rsplit(".self_", 1)[0], unit)
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def environment(versions):
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "coopd2d")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    digest.update(os.path.relpath(path, SRC).encode() + b"\0" + fh.read())
    return dict(
        versions,
        git_sha=sha,
        src_sha256=digest.hexdigest(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        threads={k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "coopd2d", "__init__.py")):
        print("error: no coopd2d sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))
    )
    os.makedirs(OUT, exist_ok=True)

    try:
        setups, samples, traced = measure(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    records = samples + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    checks = [line for r in records for line in r["checks"]]
    op_ms = [v for r in samples for v in r["op_ms"]]
    wall_op_ms = [v for r in samples for v in r["wall_op_ms"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(records[0]["versions"]),
        "op_ms": quantile_report(op_ms),
        "wall_op_ms": quantile_report(wall_op_ms),
        "setup_s": quantile_report([r["setup_s"] for r in setups]),
        "checks": checks,
    }
    campaign = "trial_us" in samples[0]
    if campaign:
        report["trial_us"] = {
            s: quantile_report(v) for s, v in samples[0]["trial_us"].items()
        }
        report["norm_trial_us"] = {
            s: quantile_report(v) for s, v in samples[0]["norm_trial_us"].items()
        }
        report["blocks"] = {k: samples[0][k] for k in ("trial_us", "norm_trial_us")}
        report["records_sha256"] = samples[0]["hashes"]

    if args.trace:
        if campaign:
            rec = samples[0]
            layers, n_ops = rec["layers"], rec["n_ops"]
            overhead = rec["overhead_pct"]
            shares, missing = rec["shares"], rec["missing"]
            strategy_us = {s: q["median"] for s, q in report["norm_trial_us"].items()}
        else:
            layers = merge_layers(traced)
            n_ops = sum(r["n_ops"] for r in traced)
            plain = statistics.median(op_ms)
            overhead = 100.0 * (statistics.median(v for r in traced for v in r["op_ms"]) / plain - 1.0)
            shares, missing, strategy_us = {}, traced[0]["missing"], {}
            differ = sum(r["digest"] != samples[0]["digest"] for r in records)
            failed += differ
            checks.append(
                "%s traced-identity: %d of %d samples' outputs differ"
                % ("PASS" if not differ else "FAIL", differ, len(records))
            )
        values, self_time = per_layer_metrics(
            layers, n_ops, shares, strategy_us, overhead, missing
        )
        metrics = result_metrics(bench["per_layer"], values, self_time)
        report["missing_names"] = missing
    else:
        if "call_ms" in samples[0]:
            # per CLI call, the median over samples; the op is their sum
            calls = zip(*(r["call_ms"] for r in samples))
            op_value = sum(statistics.median(c) for c in calls)
        else:
            op_value = report["op_ms"]["median"]
        values = {
            "op_ms": op_value,
            "setup_s": report["setup_s"]["median"],
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in samples),
        }
        metrics = result_metrics(bench["end_to_end"], values, None)
    report["metrics"] = metrics

    path = os.path.join(
        OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)

    env = report["environment"]
    print("coopd2d benchmark: %s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("environment: python %s numpy %s scipy %s pyyaml %s, %s, nproc %d, git %s"
          % (env["python"], env["numpy"], env["scipy"], env["pyyaml"],
             env["openblas_config"], env["nproc"], env["git_sha"][:12]))
    print("  op (normalised):    " + fmt(report["op_ms"], "ms"))
    print("  op (wall):          " + fmt(report["wall_op_ms"], "ms"))
    print("  setup (wall):       " + fmt(report["setup_s"], "s"))
    if campaign:
        for s in STRATEGY_ORDER:
            print("  %-6s per trial, normalised: %s" % (s, fmt(report["norm_trial_us"][s], "us")))
            print("  %-6s per trial, wall:       %s" % (s, fmt(report["trial_us"][s], "us")))
        for s, h in report["records_sha256"].items():
            print("  records sha256 %-6s seed=%d: %s" % (s, args.seed, h))
        if args.trace:
            for s, h in samples[0]["traced_hashes"].items():
                print("  traced  sha256 %-6s seed=%d: %s" % (s, args.seed, h))
    for line in dict.fromkeys(checks):
        n = checks.count(line)
        print("  %s%s" % (line, " (x%d)" % n if n > 1 else ""))
    for name in report.get("missing_names", []):
        print("  missing (not wrapped): %s" % name)
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
