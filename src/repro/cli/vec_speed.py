"""``repro vec-speed``: the executor microbench."""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import vecspeed as vecspeed_bench
from repro.bench.workloads import WORKLOADS
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro vec-speed",
        description=(
            "Executor microbenchmark: best-of-N wall-clock for the row "
            "and vector executors on the same plan, per workload × scale, "
            "with the speedup ratio. Row multisets are asserted identical "
            "across executors on every cell. With --baseline, warns "
            "(exit 0) when vector time regressed or the speedup shrank "
            "beyond --threshold — wall-clock is not comparable across "
            "machines, so this never gates."
        ),
    )
    parser.add_argument(
        "--workloads",
        default=",".join(vecspeed_bench.DEFAULT_WORKLOADS),
        metavar="LIST",
        help="comma-separated workload keys (default "
        f"{','.join(vecspeed_bench.DEFAULT_WORKLOADS)})",
    )
    parser.add_argument(
        "--scales",
        default=",".join(map(str, vecspeed_bench.DEFAULT_SCALES)),
        metavar="LIST",
        help="comma-separated database scales (default "
        f"{','.join(map(str, vecspeed_bench.DEFAULT_SCALES))})",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--strategy", default=vecspeed_bench.DEFAULT_STRATEGY,
        help="placement strategy whose plan both executors run "
        f"(default {vecspeed_bench.DEFAULT_STRATEGY})",
    )
    parser.add_argument(
        "--repeats", type=int, default=vecspeed_bench.DEFAULT_REPEATS,
        metavar="N",
        help="repetitions per executor; the minimum is reported "
        f"(default {vecspeed_bench.DEFAULT_REPEATS})",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the run as JSON to FILE"
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="compare against a previously recorded vec-speed JSON run",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="fractional regression that triggers a warning "
        "(default 0.25)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``vec-speed`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        workload_keys = tuple(
            part.strip() for part in args.workloads.split(",") if part.strip()
        )
        unknown = [key for key in workload_keys if key not in WORKLOADS]
        if unknown:
            raise ReproError(
                f"unknown workload(s) {unknown}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        scales = tuple(
            int(part) for part in args.scales.split(",") if part.strip()
        )
        payload = vecspeed_bench.run_payload(
            workload_keys,
            scales,
            repeats=args.repeats,
            seed=args.seed,
            strategy=args.strategy,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(vecspeed_bench.format_payload(payload), file=out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- vec-speed artifact: {args.out}", file=sys.stderr)
    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            print(
                f"error: cannot read baseline: {error}", file=sys.stderr
            )
            return 2
        warnings = vecspeed_bench.compare_runs(
            baseline, payload, threshold=args.threshold
        )
        for warning in warnings:
            print(warning, file=out)
        if not warnings:
            print("vec-speed: no executor-speed regressions", file=out)
        else:
            print(
                f"vec-speed: {len(warnings)} warning(s) — informational "
                "only, wall-clock never gates",
                file=out,
            )
    return 0
