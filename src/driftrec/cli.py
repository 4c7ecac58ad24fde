"""Command-line front end for the experiment pipeline.

Each subcommand runs one stage against a config file; run-all chains them.
Validation problems and missing artifacts print a diagnostic and exit
nonzero instead of raising.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import yaml

from driftrec.pipeline import (
    ExperimentConfig,
    cmd_detect,
    cmd_evaluate,
    cmd_fit,
    cmd_recommend,
    cmd_run_all,
    cmd_synthesize,
    cmd_train,
)

_STAGES = {
    "synthesize": cmd_synthesize,
    "train": cmd_train,
    "detect": cmd_detect,
    "fit": cmd_fit,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
    "run-all": cmd_run_all,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file (key-value document)")
    common.add_argument("--out", help="override the configured output directory")
    common.add_argument("--seed", type=int, help="override the configured seed")
    parser = argparse.ArgumentParser(prog="driftrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES:
        sub.add_parser(name, parents=[common], help=f"run the {name} stage")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = ExperimentConfig.from_yaml(args.config)
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        _STAGES[args.command](cfg)
    except (ValueError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
