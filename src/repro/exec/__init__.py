"""Plan executors (row-at-a-time and batch-at-a-time) with charged-cost
accounting.

Execution follows the paper's measurement methodology exactly: expensive
functions do no real work, but every invocation is counted and charged at
the function's declared cost in random-I/O units; page accesses are charged
through the buffer pool; and the total "running time" of a query is the sum
of charged units. An optional budget aborts runaway plans (the paper's
Query 5 PullUp plan "never completed") via
:class:`~repro.errors.BudgetExceededError`.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "cache": ("CacheStats", "PredicateCache"),
    "containment": (
        "EXHAUSTION_POLICIES",
        "FailurePolicy",
        "QuarantineEntry",
        "QuarantineReport",
    ),
    "operators": ("OperatorStats",),
    "runtime": (
        "EXECUTORS", "Executor", "QueryResult", "materialise_plan",
    ),
    "vector": ("VectorPlanRunner",),
})
