"""``repro bench-adapt``: the adaptive robustness bench."""

from __future__ import annotations

import argparse
import sys

from repro.adaptive.bench import (
    DEFAULT_ADAPT_SCALE,
    format_adapt_report,
    run_adapt_bench,
    write_adapt_artifact,
)
from repro.errors import ReproError
from repro.obs.quality import DRIFT_QERROR_THRESHOLD
from repro.optimizer import STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-adapt",
        description=(
            "The adaptive robustness bench: run every seeded "
            "misestimation scenario static and adaptive, write "
            "BENCH_adapt.json, and gate — adaptive must beat the static "
            "plan's charged cost (with >= 1 recorded re-plan) where the "
            "catalog lies past the drift threshold, must trigger zero "
            "re-plans where it is honest or tolerably wrong, and row "
            "multisets must match everywhere. Exits 1 on any gate "
            "violation."
        ),
    )
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_ADAPT_SCALE,
        help=f"database scale factor (default {DEFAULT_ADAPT_SCALE}; "
        "the bench refuses scales too small to observe drift)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy for the static plan (default migration)",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=None, metavar="Q",
        help="re-plan trigger threshold "
        f"(default {DRIFT_QERROR_THRESHOLD:g})",
    )
    parser.add_argument(
        "--max-replans", type=int, default=None, metavar="N",
        help="re-plan budget per query (default 2)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write BENCH_adapt.json to PATH (a directory or explicit "
        ".json file)",
    )
    parser.add_argument(
        "--flight-record", metavar="DIR",
        help="write one FLIGHT_<scenario>_adaptive.json event-trail dump "
        "per adaptive run into DIR",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``bench-adapt`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        document, violations = run_adapt_bench(
            scale=args.scale,
            seed=args.seed,
            strategy=args.strategy,
            drift_threshold=args.drift_threshold,
            max_replans=args.max_replans,
            flight_dir=args.flight_record,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_adapt_report(document), file=out)
    if args.out:
        target = write_adapt_artifact(args.out, document)
        print(f"-- adapt artifact: {target}", file=sys.stderr)
    return 1 if violations else 0
