"""``repro bench-diff``: the plan-regression gate."""

from __future__ import annotations

import argparse
import math
import sys

from repro.cli.common import artifact_number
from repro.errors import ArtifactError
from repro.obs.artifacts import (
    Finding,
    collect_artifacts,
    diff_artifacts,
    has_regressions,
    load_run_artifact,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-diff",
        description=(
            "Compare two recorded bench runs (BENCH_*.json files, or "
            "directories of them) strategy by strategy. Exits 1 when a "
            "chosen plan's fingerprint changed, charged cost regressed "
            "beyond --max-regress, or cost-model error widened beyond "
            "--max-error-widen — so CI can gate on it."
        ),
    )
    parser.add_argument(
        "baseline", help="baseline artifact file or directory"
    )
    parser.add_argument(
        "candidate", help="candidate artifact file or directory"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="maximum allowed fractional charged-cost growth per strategy "
        "(default 0.10)",
    )
    parser.add_argument(
        "--max-error-widen",
        type=float,
        default=0.10,
        metavar="ABS",
        help="maximum allowed widening of |estimation error|, in absolute "
        "fractional-error units (default 0.10; pass inf to disable)",
    )
    return parser


def _fmt_err(value: float) -> str:
    return "—" if math.isnan(value) else f"{value * 100:+.0f}%"


def _print_workload_diff(
    workload: str, baseline: dict, candidate: dict, out
) -> None:
    def strategies_of(document: dict) -> dict:
        value = document.get("strategies")
        return value if isinstance(value, dict) else {}

    base_strategies = strategies_of(baseline)
    cand_strategies = strategies_of(candidate)
    title = f"== {workload} (baseline -> candidate)"
    print(title, file=out)
    header = (
        f"{'strategy':<12} {'plan':>8} {'charged':>24} "
        f"{'plan.ms':>18} {'est.err':>12}"
    )
    print(header, file=out)
    print("-" * len(header), file=out)
    for strategy in sorted(set(base_strategies) | set(cand_strategies)):
        base = base_strategies.get(strategy)
        cand = cand_strategies.get(strategy)
        if base is None or cand is None:
            side = "candidate" if base is None else "baseline"
            print(f"{strategy:<12} (only in {side})", file=out)
            continue
        if not isinstance(base, dict) or not isinstance(cand, dict):
            print(f"{strategy:<12} (malformed record)", file=out)
            continue
        fingerprints = (base.get("fingerprint"), cand.get("fingerprint"))
        plan = "same" if fingerprints[0] == fingerprints[1] else "CHANGED"
        charged = (
            f"{artifact_number(base, 'charged'):,.0f} -> "
            f"{artifact_number(cand, 'charged'):,.0f}"
        )
        ms = (
            f"{artifact_number(base, 'planning_seconds') * 1000:.1f}"
            " -> "
            f"{artifact_number(cand, 'planning_seconds') * 1000:.1f}"
        )
        err = (
            f"{_fmt_err(artifact_number(base, 'estimation_error'))}"
            " -> "
            f"{_fmt_err(artifact_number(cand, 'estimation_error'))}"
        )
        print(
            f"{strategy:<12} {plan:>8} {charged:>24} {ms:>18} {err:>12}",
            file=out,
        )


def main(argv: list[str], out=None) -> int:
    """The ``bench-diff`` subcommand body; returns the exit code."""
    if out is None:
        # Late-bound so redirected/captured stdout is respected.
        out = sys.stdout
    args = build_parser().parse_args(argv)
    findings: list[Finding] = []
    try:
        base_set = collect_artifacts(args.baseline)
        cand_set = collect_artifacts(args.candidate)
        if not base_set:
            raise ArtifactError(
                f"no BENCH_*.json artifacts found under {args.baseline}"
            )
        if not cand_set:
            raise ArtifactError(
                f"no BENCH_*.json artifacts found under {args.candidate}"
            )
        for workload in sorted(set(base_set) | set(cand_set)):
            base_path = base_set.get(workload)
            cand_path = cand_set.get(workload)
            if base_path is None:
                findings.append(
                    Finding(
                        "note", workload, "*", "added",
                        "workload recorded only in the candidate run",
                    )
                )
                continue
            if cand_path is None:
                findings.append(
                    Finding(
                        "regression", workload, "*", "missing",
                        "workload present in baseline but not recorded "
                        "in the candidate run",
                    )
                )
                continue
            baseline = load_run_artifact(base_path)
            candidate = load_run_artifact(cand_path)
            _print_workload_diff(workload, baseline, candidate, out)
            findings.extend(
                diff_artifacts(
                    baseline,
                    candidate,
                    max_regress=args.max_regress,
                    max_error_widen=args.max_error_widen,
                )
            )
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(str(finding), file=out)
    if has_regressions(findings):
        count = sum(1 for f in findings if f.severity == "regression")
        print(f"bench-diff: {count} regression(s)", file=out)
        return 1
    print("bench-diff: no regressions", file=out)
    return 0
