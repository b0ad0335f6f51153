"""``repro top``: the live query monitor."""

from __future__ import annotations

import argparse
import sys

from repro import Executor, build_database, optimize
from repro.bench.workloads import WORKLOADS, build_workload
from repro.cli.common import write_metrics
from repro.errors import ReproError
from repro.exec.runtime import EXECUTORS
from repro.obs.runtime_telemetry import RuntimeMonitor, format_top
from repro.optimizer import STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Execute one workload with live telemetry attached and show "
            "the monitor: per-operator progress (work units derived from "
            "the optimizer's cost estimates, refined online from observed "
            "selectivities), per-predicate observed selectivity and cost "
            "quantiles, and the resource roll-up. By default redraws "
            "while the query runs; --once prints a single deterministic "
            "final snapshot. Exits 1 when the query did not finish "
            "(budget DNF)."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to watch"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy to execute (default migration)",
    )
    parser.add_argument(
        "--scale", type=int, default=100,
        help="database scale factor (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--caching", action="store_true", help="enable predicate caching"
    )
    parser.add_argument(
        "--executor",
        default="row",
        choices=EXECUTORS,
        help="execution path to watch (default row); vector runs report "
        "progress batch-at-a-time",
    )
    parser.add_argument(
        "--budget", type=float, default=None,
        help="charged-cost budget; the workload's own budget by default",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one final snapshot instead of live refreshes — "
        "deterministic output (wall-clock latency columns excepted)",
    )
    parser.add_argument(
        "--refresh-every", type=int, default=None, metavar="N",
        help="redraw after every N operator events in live mode "
        "(default: scale-dependent)",
    )
    parser.add_argument(
        "--metrics-export", metavar="FILE",
        help="also write the final metrics snapshot to FILE (Prometheus "
        "text, or JSON when FILE ends in .json)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``top`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        budget = (
            args.budget if args.budget is not None else workload.budget
        )
        optimized = optimize(
            db, workload.query, strategy=args.strategy,
            caching=args.caching,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    title = f"{args.workload} / {args.strategy}"
    refresh = None
    if not args.once:
        def refresh(snapshot: RuntimeMonitor) -> None:
            print(format_top(snapshot, title=title), file=out)
            print("", file=out)

    refresh_every = args.refresh_every
    if refresh_every is None:
        # Roughly a handful of redraws per run at any scale.
        refresh_every = max(256, args.scale * 64)
    monitor = RuntimeMonitor(
        refresh_callback=refresh, refresh_every=refresh_every
    )
    try:
        executor = Executor(
            db, caching=args.caching, budget=budget, monitor=monitor,
            executor=args.executor,
        )
        result = executor.execute(
            optimized.plan, project=workload.query.select
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        format_top(monitor, title=title, resources=result.resources),
        file=out,
    )
    if args.metrics_export:
        code = write_metrics(args.metrics_export, {"": monitor})
        if code:
            return code
    return 0 if result.completed else 1
