"""``repro drift``: epoch-over-epoch drift of observed statistics."""

from __future__ import annotations

import argparse
import sys

from repro.bench.workloads import WORKLOADS
from repro.errors import ArtifactError
from repro.obs.feedback import (
    StatsFeedbackStore,
    format_drift_report,
    stats_path,
)
from repro.obs.quality import DRIFT_QERROR_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro drift",
        description=(
            "Compare observed predicate statistics between two recorded "
            "epochs of STATS_<workload>.json (epoch-over-epoch drift: "
            "'the data moved', vs `repro stats`, which reports "
            "observed-vs-declared: 'the catalog lies'). With no epochs "
            "given, compares the two most recent; with one, compares it "
            "against the latest."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to compare"
    )
    parser.add_argument(
        "epochs", type=int, nargs="*", metavar="EPOCH",
        help="zero, one, or two epoch numbers",
    )
    parser.add_argument(
        "--dir", default="artifacts", metavar="DIR",
        help="directory holding STATS_<workload>.json (default: artifacts)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DRIFT_QERROR_THRESHOLD,
        metavar="Q",
        help=f"q-error above which an observed statistic counts as "
        f"drifted (default {DRIFT_QERROR_THRESHOLD:g})",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``drift`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    if len(args.epochs) > 2:
        print(
            "error: at most two epoch numbers (got "
            f"{len(args.epochs)}): compare one pair at a time",
            file=sys.stderr,
        )
        return 2
    target = stats_path(args.dir, args.workload)
    try:
        store = StatsFeedbackStore.load(target)
    except ArtifactError as error:
        print(
            f"error: {error}\nrecord epochs first: "
            f"repro stats {args.workload} --dir {args.dir}",
            file=sys.stderr,
        )
        return 2
    numbers = store.epoch_numbers()
    try:
        if len(args.epochs) == 2:
            first, second = args.epochs
        elif len(args.epochs) == 1:
            first, second = args.epochs[0], numbers[-1] if numbers else 0
        else:
            if len(numbers) < 2:
                raise ArtifactError(
                    f"need two recorded epochs to compare, found "
                    f"{numbers or 'none'}; run `repro stats "
                    f"{args.workload} --dir {args.dir}` again"
                )
            first, second = numbers[-2], numbers[-1]
        epoch_a = store.epoch(first)
        epoch_b = store.epoch(second)
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        format_drift_report(
            args.workload, epoch_a, epoch_b, threshold=args.threshold
        ),
        file=out,
    )
    return 0
