"""Command-line front end: check scenarios, emit averaged data, list generators."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import FoliavgError, UnknownFormat
from .scenarios import (
    STAGE_NAMES,
    averaged_scenario,
    bundled_names,
    generator_table,
    load_scenario,
    render_report,
    run_checks,
)

def _cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_checks(scenario, args.stage or None)
    print(render_report(report, args.format, witness=args.witness))
    if args.expect_fail:
        return 0 if report.failures else 1
    return 0 if report.all_passed else 1


def _cmd_average(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    text = json.dumps(averaged_scenario(scenario), indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"foliavg: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    return 0


def _cmd_dirac(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    table = generator_table(scenario)
    if args.format == "json":
        print(json.dumps(table, indent=2))
    elif args.format == "text":
        print(f"coupling generators for {table['scenario']}:")
        for k, row in enumerate(table["generators"]):
            field = " + ".join(
                f"({coef}) d/d{name}" for name, coef in row["field"].items()
            ) or "0"
            # a wedge in the key reads d(a) ^ d(b); a power in a coefficient stays
            form = " + ".join(
                f"({coef}) d{key.replace('^', ' ^ d')}"
                for key, coef in row["form"].items()
            ) or "0"
            print(f"  e{k}: field = {field}")
            print(f"      form  = {form}")
    else:
        raise UnknownFormat(f"unknown report format {args.format!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliavg",
        description="Exact verification of averaging on foliated Poisson charts.",
        epilog="bundled scenarios: " + ", ".join(bundled_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification stages on a scenario")
    check.add_argument("scenario", help="path to a scenario file or a bundled name")
    check.add_argument(
        "--stage",
        action="append",
        choices=STAGE_NAMES,
        help="run only this stage (repeatable); default is every stage",
    )
    check.add_argument("--witness", action="store_true", help="include failing expressions")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--expect-fail",
        action="store_true",
        help="invert the exit code: succeed only if some check fails",
    )
    check.set_defaults(func=_cmd_check)

    average = sub.add_parser(
        "average", help="emit the averaged connection, potential and pairing form"
    )
    average.add_argument("scenario", help="path to a scenario file or a bundled name")
    average.add_argument("-o", "--output", help="write the new scenario here instead of stdout")
    average.set_defaults(func=_cmd_average)

    table = sub.add_parser("dirac", help="emit the coupling generator table")
    table.add_argument("scenario", help="path to a scenario file or a bundled name")
    table.add_argument("--format", choices=("text", "json"), default="text")
    table.set_defaults(func=_cmd_dirac)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FoliavgError as exc:
        print(f"foliavg: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point its descriptor at devnull so the
        # flush at interpreter exit cannot fail again (the recipe in the
        # Python ``signal`` docs), and exit with 128 + SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
