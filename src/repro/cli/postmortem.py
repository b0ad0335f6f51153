"""``repro postmortem``: render an execution flight-recorder crash dump."""

from __future__ import annotations

import argparse
import sys

from repro.errors import ArtifactError
from repro.obs.flightrec import format_postmortem, load_flight_dump


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro postmortem",
        description=(
            "Render a FLIGHT_<workload>.json crash dump written by a "
            "--flight-record run (or 'repro chaos --flight-record'): a "
            "timeline of the last batches before the abort, the frozen "
            "progress state, quarantine and clamp context, and the "
            "placement provenance of the operator that died. Exits 2 on "
            "a missing or malformed dump."
        ),
    )
    parser.add_argument(
        "dump", help="path to a FLIGHT_*.json crash dump"
    )
    parser.add_argument(
        "--last", type=int, default=12, metavar="N",
        help="timeline length: the last N recorded events (default 12)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``postmortem`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        document = load_flight_dump(args.dump)
    except ArtifactError as error:
        # A wrong path or a non-dump file is a usage error, same exit
        # code argparse itself uses for bad arguments.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_postmortem(document, last=max(1, args.last)), file=out)
    return 0
