"""Executor microbenchmark: row vs. vector wall-clock per workload × scale.

The counterpart of :mod:`repro.bench.optspeed` for the execution layer:
for each (workload, scale) cell it optimizes once, then times the same
physical plan under ``executor="row"`` and ``executor="vector"`` and
reports the best-of-N wall-clock for both plus the speedup ratio. The
charged-cost model is executor-independent (the differential suite gates
that), so this bench measures only what batching is for — interpreter
dispatch per tuple.

Results serialise to JSON so CI can diff runs across commits. Wall-clock
is machine-dependent, so comparisons warn rather than gate — see
:func:`compare_runs`. The committed ``benchmarks/baselines/VECSPEED.json``
records the headline claim: ≥5× on the UDF-heavy q4/q5 at scale 100.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field

from repro.catalog.datagen import build_database
from repro.exec.runtime import EXECUTORS, Executor, materialise_plan
from repro.optimizer import optimize

#: The default grid. q1 is join-dominated (batching buys little); q4 and
#: q5 are UDF-evaluation-dominated, where per-tuple dispatch is the bill.
DEFAULT_WORKLOADS = ("q1", "q4", "q5")
DEFAULT_SCALES = (10, 100)
DEFAULT_REPEATS = 5
DEFAULT_STRATEGY = "pushdown"


@dataclass
class VecSpeedSample:
    """Best-of-N execution time per executor for one (workload, scale)."""

    workload: str
    scale: int
    row_ms: float = float("nan")
    vector_ms: float = float("nan")
    speedup: float = float("nan")
    rows: int = 0
    row_runs_ms: list[float] = field(default_factory=list)
    vector_runs_ms: list[float] = field(default_factory=list)
    error: str = ""

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.scale}"


def measure(
    workload_keys: tuple[str, ...] = DEFAULT_WORKLOADS,
    scales: tuple[int, ...] = DEFAULT_SCALES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 42,
    strategy: str = DEFAULT_STRATEGY,
) -> list[VecSpeedSample]:
    """Time both executors on every workload × scale cell.

    One database per scale, one ``optimize`` per cell (outside the timed
    region — planning time is opt-speed's business), ``repeats``
    independent executions per executor with the *minimum* reported:
    best-of-N is the standard estimator for interpreter-bound loops,
    where noise is strictly additive. The row multiset is asserted equal
    across executors on every repetition, so a speedup can never come
    from computing less.
    """
    from collections import Counter

    from repro.bench.workloads import build_workload

    samples: list[VecSpeedSample] = []
    for scale in scales:
        db = build_database(scale=scale, seed=seed)
        for key in workload_keys:
            sample = VecSpeedSample(workload=key, scale=scale)
            try:
                workload = build_workload(db, key)
                plan = optimize(db, workload.query, strategy=strategy).plan
                # Generating the tables is not execution time either.
                materialise_plan(db, plan)
                timings: dict[str, list[float]] = {}
                reference = None
                for executor in EXECUTORS:
                    runs: list[float] = []
                    for _ in range(repeats):
                        runner = Executor(
                            db, budget=workload.budget, executor=executor
                        )
                        started = time.perf_counter()
                        result = runner.execute(plan)
                        runs.append(
                            (time.perf_counter() - started) * 1000.0
                        )
                    multiset = Counter(result.rows)
                    if reference is None:
                        reference = multiset
                        sample.rows = result.row_count
                    elif multiset != reference:
                        raise AssertionError(
                            f"{key}/scale={scale}: executors disagree "
                            "on the row multiset"
                        )
                    timings[executor] = runs
            except Exception as exc:  # noqa: BLE001 — recorded, not raised
                sample.error = str(exc)
            else:
                sample.row_runs_ms = [round(ms, 4) for ms in timings["row"]]
                sample.vector_runs_ms = [
                    round(ms, 4) for ms in timings["vector"]
                ]
                sample.row_ms = round(min(timings["row"]), 4)
                sample.vector_ms = round(min(timings["vector"]), 4)
                if sample.vector_ms > 0:
                    sample.speedup = round(
                        sample.row_ms / sample.vector_ms, 3
                    )
            samples.append(sample)
    return samples


def run_payload(
    workload_keys: tuple[str, ...] = DEFAULT_WORKLOADS,
    scales: tuple[int, ...] = DEFAULT_SCALES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = 42,
    strategy: str = DEFAULT_STRATEGY,
) -> dict:
    """The JSON-serialisable result document for one vec-speed run."""
    samples = measure(workload_keys, scales, repeats, seed, strategy)
    return {
        "bench": "vec-speed",
        "seed": seed,
        "strategy": strategy,
        "repeats": repeats,
        "scales": list(scales),
        "workloads": list(workload_keys),
        "samples": [asdict(sample) for sample in samples],
    }


def format_payload(payload: dict) -> str:
    """A fixed-width table: one row per (workload, scale) cell."""
    lines = [
        f"== vec-speed (seed={payload['seed']}, "
        f"strategy={payload['strategy']}, best of {payload['repeats']}, ms)"
    ]
    header = (
        f"{'workload':<10}{'scale':>7}{'row ms':>12}{'vector ms':>12}"
        f"{'speedup':>10}{'rows':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for sample in payload["samples"]:
        if sample.get("error"):
            lines.append(
                f"{sample['workload']:<10}{sample['scale']:>7}"
                f"{'—':>12}{'—':>12}{'—':>10}  {sample['error']}"
            )
            continue
        lines.append(
            f"{sample['workload']:<10}{sample['scale']:>7}"
            f"{sample['row_ms']:>12.3f}{sample['vector_ms']:>12.3f}"
            f"{sample['speedup']:>9.2f}x{sample['rows']:>8}"
        )
    return "\n".join(lines)


def compare_runs(
    baseline: dict, candidate: dict, threshold: float = 0.25
) -> list[str]:
    """Warnings for cells whose vector time regressed or whose speedup
    shrank beyond ``threshold`` (fractional) against the baseline run.

    Wall-clock is not comparable across machines, so callers should treat
    these as warnings, never CI failures. Cells present in only one run
    are reported too.
    """
    warnings: list[str] = []

    def cells(payload: dict) -> dict[str, dict]:
        return {
            f"{s['workload']}/{s['scale']}": s
            for s in payload.get("samples", [])
            if not s.get("error")
        }

    base, cand = cells(baseline), cells(candidate)
    for key in sorted(set(base) | set(cand)):
        if key not in cand:
            warnings.append(f"vec-speed: {key} missing from candidate run")
            continue
        if key not in base:
            warnings.append(f"vec-speed: {key} has no baseline entry")
            continue
        before_ms = base[key].get("vector_ms")
        after_ms = cand[key].get("vector_ms")
        if before_ms and after_ms and before_ms > 0:
            growth = (after_ms - before_ms) / before_ms
            if growth > threshold:
                warnings.append(
                    f"vec-speed: {key} vector time regressed "
                    f"{growth * 100:+.0f}% ({before_ms:.3f} ms -> "
                    f"{after_ms:.3f} ms, threshold +{threshold * 100:.0f}%)"
                )
        before_x = base[key].get("speedup")
        after_x = cand[key].get("speedup")
        if before_x and after_x and before_x > 0:
            decline = (before_x - after_x) / before_x
            if decline > threshold:
                warnings.append(
                    f"vec-speed: {key} speedup shrank "
                    f"-{decline * 100:.0f}% ({before_x:.2f}x -> "
                    f"{after_x:.2f}x, threshold -{threshold * 100:.0f}%)"
                )
    return warnings
