"""Command-line front end.

    dfca run <config> [--set key=value ...]
    dfca sweep <config> --key K --values v1,v2,...
    dfca verify [--inject-fault]
    dfca diff <run_a> <run_b>

Set ``DFCA_OUTPUT_ROOT`` to redirect all outputs.
"""

from __future__ import annotations

import argparse
import sys

from .harness import cmd_diff, cmd_run, cmd_sweep
from .verify import run_verification


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfca", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("run", "run n_seeds experiments from a config file", ()),
        ("sweep", "repeat a run over values of one config key",
         (("--key", "config key to sweep"), ("--values", "comma-separated values"))),
    )
    for name, summary, options in commands:
        command = sub.add_parser(name, help=summary)
        command.add_argument("config", help="path to a key=value config file")
        for flag, text in options:
            command.add_argument(flag, required=True, help=text)
        command.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    verify = sub.add_parser("verify", help="run the algorithmic property suite")
    verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately corrupt the running-average weights (self-test of the checks)",
    )

    diff = sub.add_parser("diff", help="compare the traces of two run directories seed by seed")
    diff.add_argument("run_a", help="run directory holding seed_<s>/trace.csv")
    diff.add_argument("run_b", help="run directory to compare it with")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.overrides)
    if args.command == "sweep":
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        return cmd_sweep(args.config, args.key, values, args.overrides)
    if args.command == "diff":
        return cmd_diff(args.run_a, args.run_b)
    return run_verification(inject_fault=args.inject_fault)


if __name__ == "__main__":
    sys.exit(main())
