"""The six benchmark workloads: what one pass of each runs, and why.

A workload is a fixed *mix* of cells visited pass-major (the whole mix,
then again), so every cell's samples are spread across the run. One op is
one cell served start to finish the way a user issues it; see
``worker.py`` for how an op is timed and checked.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's six placement algorithms, in ``repro.bench``'s order
#: (duplicated here so this module imports nothing from ``repro`` and the
#: runner can list workloads without paying the package import).
DEFAULT_STRATEGIES = (
    "pushdown", "pullrank", "migration", "ldl", "pullup", "exhaustive",
)

#: Two-to-three table queries every strategy accepts and completes.
MIX_QUERIES = ("q1", "q2", "q3", "q4", "qor", "ldl_example")


@dataclass(frozen=True)
class Cell:
    """One (query, configuration) pair of a mix."""

    query: str
    strategy: str
    caching: bool
    #: ``"row"`` / ``"vector"``; ``None`` for plan-only cells.
    executor: str | None

    @property
    def key(self) -> str:
        caching = "cache" if self.caching else "nocache"
        return f"{self.query}/{self.strategy}/{caching}/{self.executor or 'plan'}"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"cold"``: each op is a fresh ``python -m repro`` subprocess;
    #: ``"plan"``: compile + optimize + explain in the worker process;
    #: ``"exec"``: compile + optimize + execute in the worker process.
    kind: str
    scale: int
    cells: tuple[Cell, ...]
    why: str
    #: q5's work is proportional to the t3 rows passing
    #: ``costly100sel10(t3.u20)``. The stock hash-based UDF realises its
    #: 10 % over only 150 distinct values, so the pass count — and with it
    #: the op's 1.4–2.8 M ``expjoin10`` calls — doubles between seeds.
    #: With this flag the worker registers ``costly100sel10`` as an
    #: exactly-10 % predicate (which values pass still depends on the
    #: seed) *before* the workload UDFs are registered; ``expjoin10``, the
    #: hot path this workload exists for, stays the stock synthetic UDF.
    exact_sel10: bool = False
    #: Probes (``layers.py``) and checks of the traced run whose result
    #: does not depend on the workload's mix. Each is assigned to the one
    #: workload whose end-to-end metrics it explains, so a full run takes
    #: it once; its metrics read 0 on the other workloads.
    extras: tuple[str, ...] = ()


def _grid(queries, strategies, executor) -> tuple[Cell, ...]:
    return tuple(
        Cell(query, strategy, caching, executor)
        for query in queries
        for strategy in strategies
        for caching in (False, True)
    )


def _cold(queries, executors) -> tuple[Cell, ...]:
    # The CLI's defaults: migration, no caching.
    return tuple(
        Cell(query, "migration", False, executor)
        for query in queries
        for executor in executors
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "cold_cli_s100", "cold", 100,
            _cold(("q1", "q2", "q3", "q4", "q5"), ("row", "vector")),
            "README user's run: a fresh `python -m repro` per op; start-up "
            "and imports dominate, so CLI/import diets show here and "
            "engine work must not",
            extras=("startup",),
        ),
        Workload(
            "cold_cli_s10000", "cold", 10000,
            _cold(("q1",), ("vector",)),
            "the paper's own scale through the CLI: build_database "
            "dominates the op and sets peak RSS, so datagen/storage work "
            "shows here and start-up work barely does",
        ),
        Workload(
            "plan_only_s100", "plan", 100,
            _grid(MIX_QUERIES + ("fiveway",), DEFAULT_STRATEGIES, None),
            "compile + optimize + explain only: the paper's contribution "
            "is the optimizer (5-way join planning dominates ops_per_s); "
            "nothing executes, so executor work must leave it flat",
            extras=("optimizer_extras",),
        ),
        Workload(
            "exec_vector_s1000", "exec", 1000,
            _grid(MIX_QUERIES, DEFAULT_STRATEGIES, "vector"),
            "scan/filter/join/kernel build on the batch engine; half the "
            "cells run the predicate cache hit-dominated, so a cache "
            "change that helps misses and hurts hits shows",
            extras=("obs",),
        ),
        Workload(
            "exec_row_s1000", "exec", 1000,
            _grid(MIX_QUERIES, DEFAULT_STRATEGIES, "row"),
            "the identical mix on the tuple-at-a-time engine: where "
            "unifying the two engines is measured honestly",
            # The gated baselines are row-engine records: cross-checked here.
            extras=("obs", "adaptive", "baselines"),
        ),
        Workload(
            "udf_q5_s1000", "exec", 1000,
            tuple(
                Cell("q5", strategy, False, "vector")
                for strategy in (
                    # pullup DNFs by design and ldl-ikkbz refuses
                    # expensive join predicates: excluded so no op fails.
                    "pushdown", "pullrank", "migration", "ldl", "exhaustive",
                )
            ),
            "expensive primary join: ~2.1 M UDF calls per op through "
            "call_batch inside an NL join, isolated so the UDF path "
            "neither hides nor is hidden by the millisecond cells",
            exact_sel10=True,
            extras=("functions", "cache_miss_path"),
        ),
    )
}
