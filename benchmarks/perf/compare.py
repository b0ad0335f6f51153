"""``run.py --compare A.json B.json``: the verdict per (metric, workload).

A is the parent's run set, B the change's (each a ``results.json`` written
by ``run.py --repeat N --out DIR``). Both must have been measured with the
same seeds, run length and mode; otherwise there is nothing to compare and
the command fails. The rule is the choosing-metrics guide's, sections 6
and 8, with each metric's bound from BENCHMARK.json:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, unless every run
  of B reads better than every run of A;
* ``improved`` — at least ten pairs, B wins nine tenths of them (ties
  count for neither side), the medians differ by more than A's own
  interquartile range, and no more of B's ops failed than of A's;
* ``no worse`` — otherwise. The pairs B won and lost stand beside every
  verdict, so a loss that is steady but inside the bound still shows.

``failed_share`` and ``charged_cost`` have bound 0: more failed ops is
``regressed``, and any other difference reads ``changed``. Per-layer
metrics have no bound: exact counts are reported ``same`` / ``changed``,
timings as B's median over A's with the base beside it.
"""

from __future__ import annotations

import json
from statistics import median, quantiles

from config import EXACT_METRICS, load_benchmark

MIN_PAIRS = 10

#: In every run's ``exact`` block; compared exactly, not by a bound.
_EXACT_END_TO_END = ("charged_cost", "failed_share")


def load_runs(path: str):
    """(workload, metric) -> values in run order, and how they were run."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = {}
    settings = sorted(
        (run["workload"], run["seed"], run["seconds"], run["quick"], run["trace"])
        for run in runs
    )
    for run in runs:
        for name, metric in {**run["exact"], **run["metrics"]}.items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"]
            )
    return values, settings


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4)
    return third - first


def pairs_won(a: list[float], b: list[float], better: str) -> tuple[int, int]:
    """Runs paired in order: (pairs B won, pairs B lost)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * y < sign * x)
    losses = sum(1 for x, y in zip(a, b) if sign * y > sign * x)
    return wins, losses


def verdict(
    a: list[float], b: list[float], better: str, bound: float,
    more_failed: bool = False,
) -> str:
    sign = 1.0 if better == "lower" else -1.0  # × value: smaller is better
    med_a, med_b = median(a), median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(
        iqr(a) / abs(med_a) if med_a else 0.0,
        iqr(b) / abs(med_b) if med_b else 0.0,
    )
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound and not b_always_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    wins, losses = pairs_won(a, b, better)
    if (
        min(len(a), len(b)) >= MIN_PAIRS
        and wins >= 0.9 * (wins + losses)
        and wins > 0
        and abs(med_b - med_a) > iqr(a)
        and not more_failed
    ):
        return "improved"
    return "no worse"


def compare(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """Report lines, and whether any bounded metric regressed."""
    benchmark = load_benchmark()
    (a_runs, a_settings), (b_runs, b_settings) = load_runs(path_a), load_runs(path_b)
    if a_settings != b_settings:
        raise SystemExit(
            "not comparable: A and B differ in (workload, seed, seconds, "
            f"quick, trace) per run\n A: {a_settings}\n B: {b_settings}"
        )
    lines = [
        f"{'workload':<18} {'metric':<38} {'A median':>14} {'B median':>14} "
        f"{'B/A':>7}  verdict"
    ]
    regressed = False
    workloads = [w["name"] for w in benchmark["workloads"]]
    more_failed = {
        workload: sum(b_runs[workload, "failed_share"])
        > sum(a_runs[workload, "failed_share"])
        for workload in workloads
        if (workload, "failed_share") in a_runs
    }
    metrics = benchmark["end_to_end"] + [
        {"name": name, "better": "lower"} for name in _EXACT_END_TO_END
    ] + [m for m in benchmark["per_layer"] if m["name"] not in _EXACT_END_TO_END]
    for metric in metrics:
        name = metric["name"]
        for workload in workloads:
            a, b = a_runs.get((workload, name)), b_runs.get((workload, name))
            if not a or not b:
                continue
            med_a, med_b = median(a), median(b)
            if "bound" in metric:
                wins, losses = pairs_won(a, b, metric["better"])
                outcome = verdict(
                    a, b, metric["better"], metric["bound"], more_failed[workload]
                )
                outcome += (
                    f" (bound {metric['bound']:.0%}, "
                    f"B won {wins} lost {losses} of {min(len(a), len(b))})"
                )
            elif name == "failed_share" and more_failed[workload]:
                outcome = "regressed (bound 0)"
            elif name in EXACT_METRICS or name in _EXACT_END_TO_END:
                outcome = "same" if len(set(a) | set(b)) == 1 else "changed"
            elif med_a == 0 and med_b == 0:
                continue  # the layer is not on this workload's path
            else:
                outcome = "-"
            regressed |= outcome.startswith("regressed")
            ratio = f"{med_b / med_a:7.3f}" if med_a else "      -"
            lines.append(
                f"{workload:<18} {name:<38} {med_a:>14.6g} {med_b:>14.6g} "
                f"{ratio}  {outcome}"
            )
    return lines, regressed
