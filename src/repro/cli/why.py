"""``repro why``: the per-predicate placement explainer."""

from __future__ import annotations

import argparse
import sys

from repro import build_database, optimize
from repro.bench.workloads import WORKLOADS, build_workload
from repro.cost.model import CostModel
from repro.errors import ReproError
from repro.obs.provenance import ProvenanceLedger, why_report
from repro.optimizer import STRATEGIES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro why",
        description=(
            "Explain where a strategy placed each expensive predicate and "
            "why: the recorded decision chain (rank orderings, rank "
            "comparisons, migration passes) plus a counterfactual that "
            "re-costs the plan with the predicate moved one join up/down."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to explain"
    )
    parser.add_argument(
        "--strategy", default="migration", choices=sorted(STRATEGIES),
        help="placement strategy to explain (default migration)",
    )
    parser.add_argument(
        "--predicate", metavar="SUBSTR",
        help="only explain predicates whose text contains SUBSTR",
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
    """The ``why`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        db = build_database(scale=args.scale, seed=args.seed)
        workload = build_workload(db, args.workload)
        ledger = ProvenanceLedger()
        optimized = optimize(
            db,
            workload.query,
            strategy=args.strategy,
            caching=args.caching,
            bushy=args.bushy,
            ledger=ledger,
        )
        model = CostModel(db.catalog, db.params, caching=args.caching)
        print(
            why_report(optimized, model, predicate=args.predicate), file=out
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0
