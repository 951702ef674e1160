"""Command line front end.

Five subcommands map onto the experiment scenarios:

* ``optimize-cluster``: expected-active-link profile over cluster sizes.
* ``optimize-bandwidth``: closed-form band split with a grid cross-check.
* ``compare``: simulated throughput of the candidate strategies.
* ``validate``: self-consistency checks; exit 1 when any gated check fails.
* ``simulate``: one campaign, per-trial CSV.

``validate`` runs from :mod:`coopd2d.checks`, the other four from
:mod:`coopd2d.experiments`.

Exit codes: 0 success, 1 validation failure, 2 configuration error (bad
flag values, malformed or non-UTF-8 config file, divergent parameter
combinations).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

import yaml

from .checks import cmd_validate
from .errors import ConfigurationError
from .experiments import (
    ExperimentSpec,
    cmd_compare,
    cmd_optimize_bandwidth,
    cmd_optimize_cluster,
    cmd_simulate,
    spec_from_mapping,
)

__all__ = ["build_parser", "main"]

_SCENARIO_OF = {
    "optimize-cluster": "cluster-sweep",
    "optimize-bandwidth": "bandwidth-sweep",
    "compare": "throughput-compare",
    "validate": "validate",
    "simulate": "simulate",
}

# flags whose spec field has another name
_FIELD_OF_FLAG = {"mu": "mu_bps", "jobs": "n_jobs"}

# flags beyond --config and --seed, per subcommand: only those its command reads
_FLAGS_OF = {
    "optimize-cluster": ("beta", "out"),
    "optimize-bandwidth": ("beta", "mu", "out"),
    "compare": ("trials", "beta", "mu", "out", "jobs"),
    "validate": ("beta",),
    "simulate": ("trials", "beta", "mu", "out", "jobs", "strategy", "eta"),
}

_FLAG_ARGS = {
    "trials": {"type": int, "help": "trials per simulation campaign"},
    "beta": {"type": float, "help": "popularity skew exponent"},
    "mu": {"type": float, "help": "per-user rate floor in bit/s"},
    "out": {"help": "output CSV path"},
    "jobs": {"type": int, "help": "worker processes for campaigns"},
    "strategy": {
        "choices": ("coop", "nocoop", "tdma"),
        "help": "transmission strategy (default coop)",
    },
    "eta": {
        "type": float,
        "help": "fixed cooperative band fraction (default: optimized split)",
    },
}


def _add_flags(parser: argparse.ArgumentParser, flags) -> None:
    parser.add_argument("--config", help="YAML file of parameter overrides")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    for flag in flags:
        parser.add_argument("--" + flag, **_FLAG_ARGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopd2d",
        description="Cached device-to-device hotspot analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("optimize-cluster", "sweep cluster sizes for expected active links"),
        ("optimize-bandwidth", "closed-form bandwidth split with grid cross-check"),
        ("compare", "simulate and compare transmission strategies"),
        ("validate", "run self-consistency checks"),
        ("simulate", "run one campaign and dump per-trial records"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_flags(p, _FLAGS_OF[name])
    return parser


# PyYAML's safe loader, on libyaml when PyYAML was built with it: the same
# resolver and constructor, so the same mapping, but its own error wording
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_spec(args: argparse.Namespace) -> ExperimentSpec:
    mapping: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = yaml.load(fh, Loader=_YAML_LOADER)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                "config file %s is not UTF-8 text: %s" % (args.config, exc)
            ) from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must contain a mapping at top level")
        mapping = loaded
    spec = spec_from_mapping(_SCENARIO_OF[args.command], mapping)

    overrides = {}
    for flag in ("seed",) + _FLAGS_OF[args.command]:
        value = getattr(args, flag)
        if value is not None:
            overrides[_FIELD_OF_FLAG.get(flag, flag)] = value
    return replace(spec, **overrides) if overrides else spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        spec = _load_spec(args)
        if args.command == "validate":
            return 0 if cmd_validate(spec) else 1
        runner = {
            "optimize-cluster": cmd_optimize_cluster,
            "optimize-bandwidth": cmd_optimize_bandwidth,
            "compare": cmd_compare,
            "simulate": cmd_simulate,
        }[args.command]
        path = runner(spec)
        print("wrote %s" % path)
    except (ConfigurationError, OSError, yaml.YAMLError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
