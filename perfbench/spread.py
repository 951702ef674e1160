"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload campaign-ref --seeds 1-10 [--seconds 20]

Runs ``run.py`` once per seed (untraced, one after the other) and prints,
per metric, the median of the runs and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    first, last = (int(v) for v in args.seeds.split("-"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d (%.0f s): correct=%s %s" % (seed, time.perf_counter() - t0, result["correct"], " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-12s median %.6g  IQR/median %.4f  bound %.2f  (%d runs)"
              % (metric["name"], statistics.median(v), (q3 - q1) / statistics.median(v),
                 metric["bound"], len(v)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
