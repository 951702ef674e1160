"""How much spectrum should the cooperative class get?

Cooperative multicell links carry far more bits per hertz than single-cell
links, so throughput alone would hand them the whole band.  A per-user rate
floor pushes back: the users left outside cooperation still need enough of
the band to meet their floor.  This sweep solves the split in closed form
across a range of floors, shows which constraint binds, and cross-checks
every point against a dense grid search.

Run it as::

    python3 demos/bandwidth_split_sweep.py
    python3 demos/bandwidth_split_sweep.py --beta 0.6 --points 12
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from coopd2d import ExperimentSpec, analytic_point
from coopd2d.errors import CoopD2DError
from coopd2d.experiments import grid_search_eta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--beta", type=float, default=ExperimentSpec.beta, help="popularity skew"
    )
    parser.add_argument("--points", type=int, default=8, help="sweep points")
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error("--points must be at least 1")
    try:
        return report(args)
    except CoopD2DError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def report(args) -> int:
    spec = ExperimentSpec(command="optimize-bandwidth", beta=args.beta)
    base = analytic_point(replace(spec, mu_bps=0.0))
    print(
        "operating point: pc=%.6f, coop %.3f bit/s/Hz vs non-coop %.3f, "
        "user classes %.2f coop / %.2f non-coop / %.2f cellular"
        % (
            base.pc,
            base.rate_coop,
            base.rate_noncoop,
            base.nc_bar,
            base.nn_bar,
            base.nb_bar,
        )
    )
    mu_max = base.solution.mu_max
    print("largest supportable rate floor: %.4g bit/s per user\n" % mu_max)

    print("   floor (bit/s)   eta*      binding              throughput (bit/s)  grid check")
    for mu in np.linspace(0.0, 1.05 * mu_max, args.points):
        pt = analytic_point(replace(spec, mu_bps=float(mu)))
        sol = pt.solution
        grid = grid_search_eta(
            pt.pc,
            pt.rate_coop,
            pt.rate_noncoop,
            spec.bandwidth_hz,
            pt.plan.n_clusters,
            pt.nc_bar,
            pt.nn_bar,
            float(mu),
        )
        if sol.feasible:
            gap = abs(sol.eta_star - grid)
            check = "|closed - grid| = %.1e" % gap if np.isfinite(grid) else "sub-grid sliver"
            print(
                "  %12.4g   %7.5f   %-18s  %.6e     %s"
                % (mu, sol.eta_star, sol.binding, sol.objective, check)
            )
        else:
            agree = "grid agrees" if np.isnan(grid) else "grid disagrees!"
            print("  %12.4g   infeasible (%s); %s" % (mu, sol.binding, agree))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
