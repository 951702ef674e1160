"""Command line front end.

Five subcommands, each with the flags its row of
:data:`coopd2d.experiments.COMMANDS` lists:

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
import functools
import logging
import sys
from dataclasses import replace

import yaml

from .checks import cmd_validate
from .errors import ConfigurationError
from .experiments import (
    COMMANDS,
    ExperimentSpec,
    cmd_compare,
    cmd_optimize_bandwidth,
    cmd_optimize_cluster,
    cmd_simulate,
    spec_from_mapping,
)
from .netsim import STRATEGIES

__all__ = ["build_parser", "main"]

# each spec field a flag sets: the flag and its argparse options
_FLAG_ARGS = {
    "seed": ("--seed", {"type": int, "help": "base RNG seed"}),
    "trials": ("--trials", {"type": int, "help": "trials per simulation campaign"}),
    "beta": ("--beta", {"type": float, "help": "popularity skew exponent"}),
    "mu_bps": ("--mu", {"type": float, "help": "per-user rate floor in bit/s"}),
    "out": ("--out", {"help": "output CSV path"}),
    "n_jobs": ("--jobs", {"type": int, "help": "worker processes for campaigns"}),
    "strategy": (
        "--strategy", {"choices": STRATEGIES, "help": "transmission strategy (default coop)"}
    ),
    "eta": (
        "--eta",
        {"type": float, "help": "fixed cooperative band fraction of coop (default: optimized "
         "split); nocoop and tdma run at 0"},
    ),
}

# each command of experiments.COMMANDS: its line in the top-level help and the
# function that runs it
_RUNNERS = {
    "optimize-cluster": ("sweep cluster sizes for expected active links", cmd_optimize_cluster),
    "optimize-bandwidth": (
        "closed-form bandwidth split with grid cross-check", cmd_optimize_bandwidth
    ),
    "compare": ("simulate and compare transmission strategies", cmd_compare),
    "validate": ("run self-consistency checks", cmd_validate),
    "simulate": ("run one campaign and dump per-trial records", cmd_simulate),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand and its flags, the caller's to change."""
    parser = argparse.ArgumentParser(
        prog="coopd2d",
        description="Cached device-to-device hotspot analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=_RUNNERS[name][0])
        p.add_argument("--config", help="YAML file of parameter overrides")
        for field in ("seed", *flags):
            flag, options = _FLAG_ARGS[field]
            p.add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call and shared by
    every later one: ``parse_args`` returns a new namespace and leaves the
    parser as it was, so nothing may change the parser once it is built."""
    return build_parser()


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
    spec = spec_from_mapping(args.command, mapping)

    overrides = {}
    for field in ("seed", *COMMANDS[args.command][0]):
        value = getattr(args, _FLAG_ARGS[field][0][2:])  # argparse's dest: the flag sans --
        if value is not None:
            overrides[field] = value
    return replace(spec, **overrides) if overrides else spec


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        spec = _load_spec(args)
        result = _RUNNERS[args.command][1](spec)
        if args.command == "validate":
            return 0 if result else 1
        print("wrote %s" % result)
    except (ConfigurationError, OSError, yaml.YAMLError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
