"""Command-line entry point.

    simulate <experiment-name> --config <file> [--seed S] [--out dir]
             [--paper-scale] [--trials N] [--print-config]

Exit codes: 0 success, 2 configuration problem, 3 numerical-validity
problem (e.g. the eavesdropper bound outside its region), 4 I/O failure.
The worker count is capped by the RIS_LAB_THREADS environment variable.
"""
from __future__ import annotations

import argparse
import sys

from .errors import (
    BoundInvalidError,
    ConfigValidationError,
    DegenerateConfigError,
    IllConditionedError,
    InfiniteEveCapacityError,
    InvalidParameterError,
    NoRealRootError,
)
from .experiments import EXPERIMENT_NAMES, ExperimentConfig, run_and_write

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a named link-level experiment and write its CSV.")
    parser.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENT_NAMES)}")
    parser.add_argument("--config", help="JSON config file; omitted fields use defaults")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use figure-scale array sizes (M=128, N=196, K=6)")
    parser.add_argument("--trials", type=int, help="Monte Carlo blocks per grid point")
    parser.add_argument("--print-config", action="store_true",
                        help="print the fully resolved config and exit")
    return parser


def resolve_config(args) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = ExperimentConfig.from_json(fh.read())
        except OSError as exc:
            raise ConfigValidationError(f"cannot read config {args.config}: {exc}") from exc
    else:
        config = ExperimentConfig()
    if args.paper_scale:
        config = config.paper_scale()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.trials is not None:
        overrides["n_blocks"] = args.trials
    if overrides:
        config = config.replace(**overrides)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.print_config:
            print(config.to_json())
            return EXIT_OK
        csv_path = run_and_write(args.experiment, config)
    except (ConfigValidationError, InvalidParameterError, DegenerateConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BoundInvalidError, InfiniteEveCapacityError, IllConditionedError,
            NoRealRootError) as exc:
        print(f"numerical validity error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(csv_path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
