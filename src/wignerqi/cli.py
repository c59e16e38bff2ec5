"""Command-line front end: general sweeps and preset dataset generation.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numeric validation
failure.
"""

from __future__ import annotations

import argparse
import sys

from .qmath import NumericValidationError
from .states import STATE_TAGS
from .sweep import (
    AXES,
    FIGURE_NAMES,
    parse_angle,
    parse_axis,
    run_figure,
    write_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerqi",
        description="Sweep Wigner angles over three-qubit GHZ/W states and emit CSV datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="general sweep over angle grids")
    sweep.add_argument("--state", required=True, choices=STATE_TAGS)
    sweep.add_argument("--alpha", default="0", help="traced-channel weight, e.g. 0.25pi; 0 is the pure transform")
    sweep.add_argument("--omega1", default=None, help="angle or grid start:stop:count, e.g. 0:2pi:257")
    sweep.add_argument("--omega2", default=None)
    sweep.add_argument("--omega3", default=None)
    sweep.add_argument(
        "--tie",
        action="append",
        default=[],
        metavar="FOLLOWER=LEADER",
        help="tie one angle axis to another, e.g. omega2=omega1 (repeatable)",
    )
    sweep.add_argument("--measure", action="append", required=True, help="measure id, comma-separable")
    sweep.add_argument("--out", required=True, help="destination CSV path")

    figure = sub.add_parser("figure", help="run a preset sweep configuration")
    figure.add_argument("name", choices=FIGURE_NAMES)
    figure.add_argument("--out-dir", required=True, help="directory for the per-measure CSV files")
    return parser


def _run_sweep_command(args) -> list:
    measures = [m for chunk in args.measure for m in chunk.split(",") if m]
    axes = {axis: parse_axis(getattr(args, axis)) for axis in AXES if getattr(args, axis) is not None}
    options = dict(alpha=parse_angle(args.alpha), ties=args.tie, **axes)
    return [(args.out, write_sweep(args.out, args.state, measures, **options))]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            written = _run_sweep_command(args)
        else:
            written = run_figure(args.name, args.out_dir)
    except NumericValidationError as exc:
        print(f"numeric validation failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path, count in written:
        print(f"wrote {count} rows to {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
