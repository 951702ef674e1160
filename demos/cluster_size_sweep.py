"""Where should a hotspot draw its cluster boundaries?

Small clusters keep every transmitter close to its receiver but can only
cache a few file groups; large clusters cache everything yet spread the
same users over fewer parallel links.  This sweep prints the expected
number of simultaneously active cooperative links for every candidate
cluster size and shows the optimum walking toward the cache-partition
ceiling (one group per user slot) as the hotspot fills up.

Run it as::

    python3 demos/cluster_size_sweep.py
    python3 demos/cluster_size_sweep.py --beta 0.6 --out profile.csv
"""

import argparse

from coopd2d import ExperimentSpec, build_popularity, optimize_cluster_size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ref = ExperimentSpec  # the reference scenario is its field defaults
    parser.add_argument("--n-files", type=int, default=ref.n_files, help="catalog size")
    parser.add_argument(
        "--cache-size", type=int, default=ref.cache_size, help="files per device"
    )
    parser.add_argument("--beta", type=float, default=ref.beta, help="popularity skew")
    parser.add_argument("--out", help="optional CSV path for the density sweep")
    args = parser.parse_args(argv)

    model = build_popularity(args.n_files, args.cache_size, args.beta)
    print(
        "catalog: %d files, cache %d, skew %.2f -> %d cacheable groups"
        % (args.n_files, args.cache_size, args.beta, model.group_count)
    )

    print(
        "\nexpected active links by users per cluster (%d-user hotspot):" % ref.n_users
    )
    _, _, profile = optimize_cluster_size(model, ref.n_users)
    best = max(objective for _, objective in profile)
    for k, objective in profile:
        bar = "#" * round(40.0 * objective / best)
        print("  K=%2d  %7.3f  %s" % (k, objective, bar))

    print("\noptimal cluster size versus hotspot density:")
    rows = []
    for m in (45, 135, 450, 13_500, 1_000_000):
        k_star, links, _ = optimize_cluster_size(model, m)
        rows.append((m, k_star, links))
        note = "  <- cache-partition ceiling" if k_star == model.group_count else ""
        print("  M=%9d  K*=%2d  E[active links]=%10.3f%s" % (m, k_star, links, note))

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("n_users,k_star,expected_active_links\n")
            for m, k_star, links in rows:
                fh.write("%d,%d,%r\n" % (m, k_star, links))
        print("\nwrote %s" % args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
