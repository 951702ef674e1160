"""Does cooperation pay, and how much of the gain survives a flat catalog?

Runs simulated campaigns for each candidate strategy (optimized split,
even split, optimized split at the configured cluster size, no
cooperation, and slotted single-cell transmission) at a few popularity
skews, then prints throughput with confidence intervals.  The cooperative
gain grows with skew because a skewed catalog makes the all-cells-served
cooperative mode much more likely.

Run it as::

    python3 demos/strategy_comparison.py
    python3 demos/strategy_comparison.py --trials 2000 --betas 0 1
"""

import argparse
import sys

from coopd2d import ExperimentSpec
from coopd2d.errors import CoopD2DError
from coopd2d.experiments import compare_strategies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000, help="trials per campaign")
    parser.add_argument(
        "--seed", type=int, default=ExperimentSpec.seed, help="base RNG seed"
    )
    parser.add_argument(
        "--betas", type=float, nargs="+", default=[0.0, 0.6, 1.0], help="skews to run"
    )
    args = parser.parse_args(argv)
    try:
        return report(args)
    except CoopD2DError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def report(args) -> int:
    spec = ExperimentSpec(command="compare", trials=args.trials, seed=args.seed)
    for beta in args.betas:
        print("beta = %.2f, %d trials per strategy" % (beta, args.trials))
        rows = compare_strategies(spec, float(beta))
        baseline = next(r for r in rows if r["strategy"] == "nocoop")
        print("  strategy    K   eta      throughput (bit/s)    ratio  mode-1 freq")
        for r in rows:
            print(
                "  %-9s  %2d  %5.3f   %.4e +- %.2e  %5.2f  %.4f"
                % (
                    r["strategy"],
                    r["users_per_cluster"],
                    r["eta"],
                    r["throughput_mean_bps"],
                    r["throughput_ci95_bps"],
                    r["throughput_mean_bps"] / baseline["throughput_mean_bps"],
                    r["mode1_frequency"],
                )
            )
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
