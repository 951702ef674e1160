"""How honest are the closed-form link rates?

The analytic layer computes spectral efficiencies from truncated
path-gain moments: it averages the SINR first and takes the logarithm
second.  The simulator does the opposite, averaging ``log2(1 + SINR)``
over fading and placement.  Because the logarithm is concave, the closed
form sits above the fading-averaged truth, and the near-field-heavy
distance distribution at the default pairing floor makes the cooperative
gap substantial.  This script measures both sides and prints the ratio,
and can dump the two distance densities for plotting.

Run it as::

    python3 demos/link_rate_gap.py
    python3 demos/link_rate_gap.py --snapshots 2000 --densities-out pdf.csv
"""

import argparse
import sys

import numpy as np

from coopd2d import ExperimentSpec, analytic_point
from coopd2d.errors import CoopD2DError
from coopd2d.experiments import campaign_config, write_csv
from coopd2d.geometry import SQRT5, interference_pdf, signal_pdf
from coopd2d.netsim import link_rate_gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshots", type=int, default=500, help="snapshots to average")
    parser.add_argument(
        "--seed", type=int, default=ExperimentSpec.seed, help="base RNG seed"
    )
    parser.add_argument(
        "--densities-out", help="optional CSV path for the two densities on [0, sqrt(5)]"
    )
    args = parser.parse_args(argv)
    try:
        return report(args)
    except (CoopD2DError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def report(args) -> int:
    spec = ExperimentSpec(command="simulate", trials=args.snapshots, seed=args.seed)
    pt = analytic_point(spec)
    zf_mean, zf_n, nn_mean, nn_n = link_rate_gap(campaign_config(spec, pt, "coop", 0.5))

    rc, rn = pt.rate_coop, pt.rate_noncoop
    print("%d snapshots, %d cooperative and %d single-cell links rated"
          % (args.snapshots, zf_n, nn_n))
    print("  cooperative: simulated %.4f vs closed form %.4f bit/s/Hz (ratio %.3f)"
          % (zf_mean, rc, zf_mean / rc))
    print("  single-cell: simulated %.4f vs closed form %.4f bit/s/Hz (ratio %.3f)"
          % (nn_mean, rn, nn_mean / rn))
    print("the cooperative ratio stays well below one: that is the concave-log gap,")
    print("not a bug, and the throughput comparisons inherit it")

    if args.densities_out:
        r = np.linspace(0.0, SQRT5, 512)
        rows = [
            {"r": x, "g": g, "f": f}
            for x, g, f in zip(r, signal_pdf(r), interference_pdf(r))
        ]
        print("wrote %s" % write_csv(args.densities_out, "distance_pdf.v1", rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
