"""``repro plan-diff``: aligned cross-strategy plan comparison."""

from __future__ import annotations

import argparse
import sys

from repro import build_database, optimize
from repro.bench.workloads import WORKLOADS, build_workload
from repro.cost.model import CostModel
from repro.errors import ReproError
from repro.obs.provenance import ProvenanceLedger
from repro.optimizer import STRATEGIES
from repro.plan.display import plan_tree_annotated, side_by_side


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro plan-diff",
        description=(
            "Optimize one workload under two strategies and show the plans "
            "side by side — per-node estimated rows/cost, '≠' marking "
            "differing lines — followed by each strategy's provenance "
            "ledger event counts."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to plan"
    )
    parser.add_argument(
        "strategy_a", choices=sorted(STRATEGIES), help="left strategy"
    )
    parser.add_argument(
        "strategy_b", choices=sorted(STRATEGIES), help="right strategy"
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
        "--caching", action="store_true",
        help="cost and plan under the function-cache model",
    )
    parser.add_argument(
        "--bushy", action="store_true",
        help="allow bushy join trees (exhaustive/migration strategies)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``plan-diff`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        model = CostModel(db.catalog, db.params, caching=args.caching)
        columns = []
        ledgers = []
        for strategy in (args.strategy_a, args.strategy_b):
            ledger = ProvenanceLedger()
            optimized = optimize(
                db,
                workload.query,
                strategy=strategy,
                caching=args.caching,
                bushy=args.bushy,
                ledger=ledger,
            )
            title = (
                f"{strategy}  (est cost {optimized.estimated_cost:,.1f}, "
                f"{len(ledger.events)} ledger events)"
            )
            columns.append(
                (title, plan_tree_annotated(optimized.plan, model))
            )
            ledgers.append(ledger)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    (title_a, tree_a), (title_b, tree_b) = columns
    print(f"== {args.workload}: {workload.title}", file=out)
    print(side_by_side(tree_a, tree_b, title_a, title_b), file=out)
    print("", file=out)
    print("ledger event counts:", file=out)
    kinds = sorted(
        set(ledgers[0].event_counts()) | set(ledgers[1].event_counts())
    )
    counts_a = ledgers[0].event_counts()
    counts_b = ledgers[1].event_counts()
    width = max([len(kind) for kind in kinds] or [4])
    for kind in kinds:
        print(
            f"  {kind:<{width}}  {args.strategy_a}={counts_a.get(kind, 0)}"
            f"  {args.strategy_b}={counts_b.get(kind, 0)}",
            file=out,
        )
    if not kinds:
        print("  (none recorded)", file=out)
    return 0
