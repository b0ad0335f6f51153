"""``repro chaos``: seeded fault injection across every strategy."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import resolve_strategies
from repro.bench.workloads import WORKLOADS
from repro.errors import ReproError
from repro.exec.containment import DEFAULT_RETRIES, EXHAUSTION_POLICIES
from repro.exec.runtime import EXECUTORS
from repro.faults.chaos import (
    DEFAULT_CHAOS_STRATEGIES,
    format_chaos_report,
    run_chaos,
)
from repro.faults.plan import PROFILES
from repro.obs.quality import DRIFT_QERROR_THRESHOLD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Run one workload under seeded fault schedules (UDF errors, "
            "injected latency, corrupted statistics, planner crashes) "
            "across every strategy, and check the robustness invariants: "
            "recoverable faults reproduce the fault-free rows exactly, "
            "unrecoverable faults surface as structured DNFs or honest "
            "quarantines, and nothing ever escapes as a traceback. "
            "Exits 1 on any invariant violation."
        ),
    )
    parser.add_argument(
        "workload", choices=sorted(WORKLOADS), help="workload to torment"
    )
    parser.add_argument(
        "--seed", type=int, action="append", metavar="N",
        help="one chaos seed (repeatable); overrides --seeds",
    )
    parser.add_argument(
        "--seeds", default="7,11,13", metavar="LIST",
        help="comma-separated chaos seeds (default 7,11,13)",
    )
    parser.add_argument(
        "--strategies", default="chaos", metavar="SPEC",
        help="'chaos' (the degradation ladder's rungs), 'default', 'all', "
        "or a comma-separated list of strategy names",
    )
    parser.add_argument(
        "--policy", default="abort", choices=EXHAUSTION_POLICIES,
        help="on-exhaustion policy after bounded retries (default abort)",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES,
        help=f"bounded retries per failing evaluation "
        f"(default {DEFAULT_RETRIES})",
    )
    parser.add_argument(
        "--scale", type=int, default=5,
        help="database scale factor (default 5 — chaos runs many "
        "executions, so small is deliberate)",
    )
    parser.add_argument(
        "--db-seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--profile", default="mixed", choices=sorted(PROFILES),
        help="fault-generation profile (default mixed)",
    )
    parser.add_argument(
        "--planner-fault-rate", type=float, default=0.25, metavar="FRAC",
        help="probability each non-floor ladder rung is made to crash "
        "(default 0.25)",
    )
    parser.add_argument(
        "--report", metavar="DIR",
        help="write the full report (fault plans, outcomes, quarantines) "
        "as CHAOS_<workload>.json into DIR",
    )
    parser.add_argument(
        "--executor",
        default="row",
        choices=EXECUTORS,
        help="execution path for the oracle and every strategy run "
        "(default row); the subset/superset audits must hold under "
        "either",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="attach a runtime monitor to every execution and audit the "
        "telemetry invariants too (aborts freeze progress with a "
        "structured reason; completions reach 100%%)",
    )
    parser.add_argument(
        "--flight-record", metavar="DIR",
        help="attach an execution flight recorder to every strategy run; "
        "each run that dies writes a "
        "FLIGHT_<workload>_seed<seed>_<strategy>.json crash dump into "
        "DIR for 'repro postmortem'",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="pair every (seed, strategy) run with an adaptive twin "
        "(mid-query re-optimization armed) and audit the equivalence "
        "invariant: when no error faults fired in either run, the "
        "twin's row multiset must equal the static run's exactly",
    )
    parser.add_argument(
        "--drift-threshold", type=float, default=None, metavar="Q",
        help="adaptive twin's re-plan trigger threshold "
        f"(default {DRIFT_QERROR_THRESHOLD:g}; requires --adaptive)",
    )
    parser.add_argument(
        "--max-replans", type=int, default=None, metavar="N",
        help="adaptive twin's re-plan budget (default 2; requires "
        "--adaptive)",
    )
    return parser


def main(argv: list[str], out=None) -> int:
    """The ``chaos`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.strategies == "chaos":
            strategies = DEFAULT_CHAOS_STRATEGIES
        else:
            strategies = resolve_strategies(args.strategies)
        if args.seed:
            seeds = tuple(args.seed)
        else:
            seeds = tuple(
                int(part)
                for part in args.seeds.split(",")
                if part.strip()
            )
        if not seeds:
            raise ReproError(f"no chaos seeds in {args.seeds!r}")
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = run_chaos(
            args.workload,
            seeds=seeds,
            strategies=strategies,
            policy=args.policy,
            retries=args.retries,
            scale=args.scale,
            db_seed=args.db_seed,
            profile=args.profile,
            planner_fault_rate=args.planner_fault_rate,
            telemetry=args.telemetry,
            executor=args.executor,
            flight_dir=args.flight_record,
            adaptive=args.adaptive,
            drift_threshold=args.drift_threshold,
            max_replans=args.max_replans,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_chaos_report(report), file=out)
    if args.report:
        os.makedirs(args.report, exist_ok=True)
        target = os.path.join(
            args.report, f"CHAOS_{args.workload}.json"
        )
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"-- chaos artifact: {target}", file=sys.stderr)
    return 0 if report.passed else 1
