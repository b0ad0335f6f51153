"""Seed-42 pins: what every cell returned when the benchmark was defined.

``expected_seed42.json`` records, per workload and cell, the row count,
charged cost, UDF invocations and plan fingerprint of a ``--seed 42`` run.
Output *correctness* is the oracle's job and works for any seed; the pins
exist so that a placement or costing change shows even when wall-clock
does not move. Drift is therefore reported (stderr and the ``pins.drifted``
count) but is not an op failure: a change that moves plans on purpose
ships new baselines and regenerates this file with
``run.py --write-expected``.

The gated ``benchmarks/baselines/BENCH_q*.json`` pin the same four fields
for q1–q5/qor × six strategies on the row engine at their own scale (10);
:func:`baseline_drift` re-runs that grid through the benchmark's op path
so the two sources cannot drift apart silently.
"""

from __future__ import annotations

import json

from config import HERE, ROOT

EXPECTED = HERE / "expected_seed42.json"
PIN_SEED = 42
_FIELDS = ("rows", "charged", "function_calls", "fingerprint")


def expected_drift(workload: str, cells: dict[str, dict]) -> list[str]:
    """Differences between a seed-42 run's ``cells`` and the pins."""
    with open(EXPECTED, encoding="utf-8") as handle:
        pinned = json.load(handle)["workloads"].get(workload)
    if pinned is None:
        return [f"{workload}: no pins recorded"]
    drift = []
    for key in sorted(cells):
        if key not in pinned:
            drift.append(f"{workload} {key}: cell has no pin")
            continue
        for field in _FIELDS:
            if cells[key][field] != pinned[key][field]:
                drift.append(
                    f"{workload} {key}: {field} {cells[key][field]!r}, "
                    f"pinned {pinned[key][field]!r}"
                )
    return drift


def baseline_drift() -> list[str]:
    """Re-run the gated baselines' grid and compare the pinned fields."""
    from repro import Executor, build_database, optimize
    from repro.bench.workloads import build_workload
    from repro.obs import plan_fingerprint

    drift = []
    databases: dict[int, object] = {}
    for path in sorted((ROOT / "benchmarks" / "baselines").glob("BENCH_q*.json")):
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        environment = baseline["environment"]
        if environment["seed"] != PIN_SEED:
            continue
        scale = environment["scale"]
        if scale not in databases:
            databases[scale] = build_database(scale=scale, seed=PIN_SEED)
        db = databases[scale]
        workload = build_workload(db, baseline["workload"])
        for strategy, record in baseline["strategies"].items():
            plan = optimize(db, workload.query, strategy).plan
            result = Executor(db, budget=workload.budget).execute(plan)
            live = {
                "fingerprint": plan_fingerprint(plan),
                "completed": result.completed,
            }
            if result.completed:
                live.update(
                    rows=result.row_count,
                    charged=result.charged,
                    function_calls=int(result.metrics["function_calls"]),
                )
            for field, value in live.items():
                if record[field] != value:
                    drift.append(
                        f"{path.name} {strategy}: {field} {value!r}, "
                        f"baseline {record[field]!r}"
                    )
    return drift


def write_expected(workloads: dict[str, dict[str, dict]]) -> None:
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": PIN_SEED, "workloads": workloads}, handle,
            indent=1, sort_keys=True,
        )
        handle.write("\n")
