"""``repro stats``: record and show observed predicate statistics."""

from __future__ import annotations

import argparse
import sys

from repro import Executor, build_database, optimize
from repro.bench.workloads import WORKLOADS, build_workload
from repro.errors import ArtifactError, ReproError
from repro.obs.artifacts import plan_fingerprint
from repro.obs.feedback import (
    FeedbackCollector,
    StatsFeedbackStore,
    format_stats_epoch,
    stats_path,
)
from repro.obs.quality import DRIFT_QERROR_THRESHOLD
from repro.optimizer import STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Execute one workload with feedback collection enabled, append "
            "the harvested per-predicate observations (selectivity, "
            "per-call UDF cost, row counts) as a new epoch in "
            "STATS_<workload>.json, and print the observed-vs-declared "
            "table with q-errors and drift flags. Collection never "
            "changes plans; pass --apply-feedback to opt into re-deriving "
            "ranks from the observed statistics."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to observe"
    )
    parser.add_argument(
        "--strategy",
        default="pushdown",
        choices=sorted(STRATEGIES),
        help="placement strategy to execute (default: pushdown)",
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
        "--dir", default="artifacts", metavar="DIR",
        help="directory holding STATS_<workload>.json (default: artifacts)",
    )
    parser.add_argument(
        "--epoch", type=int, default=None, metavar="N",
        help="display a previously recorded epoch instead of running "
        "anything",
    )
    parser.add_argument(
        "--threshold", type=float, default=DRIFT_QERROR_THRESHOLD,
        metavar="Q",
        help=f"q-error above which a statistic is flagged as drifted "
        f"(default {DRIFT_QERROR_THRESHOLD:g})",
    )
    parser.add_argument(
        "--apply-feedback",
        action="store_true",
        help="after recording, overwrite the catalog's declared UDF "
        "statistics with the observed ones and re-plan — the explicit "
        "opt-in injection path (plans never change without it)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``stats`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    target = stats_path(args.dir, args.workload)

    if args.epoch is not None:
        # Display-only: no database, no execution — just the store.
        try:
            store = StatsFeedbackStore.load(target)
            epoch = store.epoch(args.epoch)
        except ArtifactError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(
            format_stats_epoch(
                args.workload, epoch, threshold=args.threshold
            ),
            file=out,
        )
        return 0

    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        optimized = optimize(
            db, workload.query, strategy=args.strategy,
            caching=args.caching,
        )
        collector = FeedbackCollector()
        executor = Executor(
            db, caching=args.caching, collector=collector
        )
        result = executor.execute(optimized.plan, instrument=True)
        observations = collector.observations()
        store = StatsFeedbackStore.load_or_create(target, args.workload)
        operators = (
            [entry.as_dict() for entry in result.node_stats.values()]
            if result.node_stats is not None
            else None
        )
        number = store.record_epoch(
            observations,
            strategy=args.strategy,
            scale=args.scale,
            seed=args.seed,
            caching=args.caching,
            operators=operators,
        )
        saved = store.save(target)
        # Render from the persisted file, not the in-memory store — the
        # table the user sees is provably what the artifact contains.
        reloaded = StatsFeedbackStore.load(saved)
        print(
            format_stats_epoch(
                args.workload,
                reloaded.epoch(number),
                threshold=args.threshold,
            ),
            file=out,
        )
        print(f"-- stats artifact: {saved}", file=sys.stderr)

        if args.apply_feedback:
            before = plan_fingerprint(optimized.plan)
            applied = db.catalog.apply_feedback(reloaded, number)
            # Predicate statistics are baked in at compile time, so the
            # workload must be rebuilt for ranks to re-derive from the
            # injected numbers.
            reworkload = build_workload(db, args.workload)
            reoptimized = optimize(
                db, reworkload.query, strategy=args.strategy,
                caching=args.caching,
            )
            after = plan_fingerprint(reoptimized.plan)
            print(
                f"-- feedback applied: {applied} statistic(s) updated, "
                f"plan fingerprint {before} -> {after}"
                + (" (unchanged)" if before == after else " (plan changed)"),
                file=out,
            )
            print(
                f"-- estimated cost {optimized.estimated_cost:,.1f} -> "
                f"{reoptimized.estimated_cost:,.1f}",
                file=out,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0
