"""``repro opt-speed``: the planner-only microbench."""

from __future__ import annotations

import argparse
import json
import sys

from repro import build_database
from repro.bench.harness import resolve_strategies
from repro.bench.optspeed import (
    DEFAULT_REPEATS,
    DEFAULT_TABLE_COUNTS,
    compare_runs,
    format_payload,
    run_payload,
)
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro opt-speed",
        description=(
            "Planner-only microbenchmark: median planning time per "
            "strategy × table count on deterministic join-chain queries. "
            "Never executes plans. With --baseline, warns (exit 0) when a "
            "cell's median regressed beyond --threshold — wall-clock is "
            "not comparable across machines, so this never gates."
        ),
    )
    parser.add_argument(
        "--scale", type=int, default=10,
        help="database scale factor (default 10, matching the committed "
        "bench baselines)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--strategies", default="all",
        help="'default', 'all', or comma-separated strategy names",
    )
    parser.add_argument(
        "--tables", default=",".join(map(str, DEFAULT_TABLE_COUNTS)),
        metavar="LIST",
        help="comma-separated join-chain sizes (default "
        f"{','.join(map(str, DEFAULT_TABLE_COUNTS))})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS, metavar="N",
        help="repetitions per cell; the median is reported "
        f"(default {DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the run as JSON to FILE"
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="compare against a previously recorded opt-speed JSON run",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="fractional median growth that triggers a warning "
        "(default 0.25)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``opt-speed`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        strategies = resolve_strategies(args.strategies)
        table_counts = tuple(
            int(part) for part in args.tables.split(",") if part.strip()
        )
        db = build_database(scale=args.scale, seed=args.seed)
        payload = run_payload(
            db, strategies, table_counts, repeats=args.repeats
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_payload(payload), file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- opt-speed artifact: {args.out}", file=sys.stderr)
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot read baseline: {error}", file=sys.stderr
            )
            return 2
        warnings = compare_runs(
            baseline, payload, threshold=args.threshold
        )
        for warning in warnings:
            print(warning, file=out)
        if not warnings:
            print("opt-speed: no planning-time regressions", file=out)
        else:
            print(
                f"opt-speed: {len(warnings)} warning(s) — informational "
                "only, wall-clock never gates",
                file=out,
            )
    return 0
