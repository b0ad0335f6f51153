"""``repro bench-history``: the cross-run trend table."""

from __future__ import annotations

import argparse
import math
import sys

from repro.cli.common import artifact_number
from repro.errors import ArtifactError
from repro.obs.artifacts import collect_artifacts, load_run_artifact
from repro.obs.tables import auto_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench-history",
        description=(
            "Trend table over a sequence of recorded bench runs "
            "(BENCH_*.json files or directories, oldest first): charged "
            "cost and planning time per strategy per run, with '*' "
            "marking a plan-fingerprint change against the previous run. "
            "Informational only — it never gates; 'bench-diff' is the "
            "regression gate."
        ),
    )
    parser.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="artifact files or directories, oldest first",
    )
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict the table to one workload (repeatable)",
    )
    return parser


def _history_cell(record: dict | None, changed: bool) -> str:
    if not isinstance(record, dict):
        return "—"
    mark = "*" if changed else ""
    ms = artifact_number(record, "planning_seconds") * 1000
    ms_text = "—" if math.isnan(ms) else f"{ms:.1f}ms"
    if record.get("error"):
        return f"{mark}ERROR"
    charged = artifact_number(record, "charged")
    if record.get("dnf") or math.isnan(charged):
        return f"{mark}DNF ({ms_text})"
    return f"{mark}{charged:,.0f} ({ms_text})"


def main(argv: list[str], out=None) -> int:
    """The ``bench-history`` subcommand body; returns the exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        runs: list[tuple[str, dict]] = []
        for directory in args.dirs:
            found = collect_artifacts(directory)
            if not found:
                raise ArtifactError(
                    f"no BENCH_*.json artifacts found under {directory}"
                )
            runs.append((directory, found))
        workloads = sorted(set().union(*(set(f) for _, f in runs)))
        if args.workload:
            missing = sorted(set(args.workload) - set(workloads))
            if missing:
                raise ArtifactError(
                    f"workload(s) {missing} not recorded in any run; "
                    f"found {workloads}"
                )
            wanted = set(args.workload)
            workloads = [w for w in workloads if w in wanted]
        documents: dict[str, list[dict | None]] = {}
        for workload in workloads:
            documents[workload] = [
                load_run_artifact(found[workload])
                if workload in found
                else None
                for _, found in runs
            ]
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    any_changed = False
    for index, workload in enumerate(workloads):
        strategies: set[str] = set()
        per_run: list[dict] = []
        for document in documents[workload]:
            recorded = (
                document.get("strategies") if document else None
            )
            recorded = recorded if isinstance(recorded, dict) else {}
            per_run.append(recorded)
            strategies |= set(recorded)
        rows = []
        for strategy in sorted(strategies):
            cells = [strategy]
            previous_fp = None
            for recorded in per_run:
                record = recorded.get(strategy)
                fingerprint = (
                    record.get("fingerprint")
                    if isinstance(record, dict)
                    else None
                )
                changed = (
                    previous_fp is not None
                    and fingerprint is not None
                    and fingerprint != previous_fp
                )
                any_changed = any_changed or changed
                cells.append(_history_cell(record, changed))
                if fingerprint is not None:
                    previous_fp = fingerprint
            rows.append(cells)
        if index:
            print("", file=out)
        print(f"== {workload} ({len(runs)} runs)", file=out)
        headers = ["strategy"] + [label for label, _ in runs]
        aligns = ["left"] + ["right"] * len(runs)
        print(auto_table(headers, rows, aligns=aligns), file=out)
    if any_changed:
        print(
            "\n(* plan fingerprint changed vs the previous run)", file=out
        )
    return 0
