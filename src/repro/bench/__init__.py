"""Benchmark harness: the paper's Queries 1–5 and measurement machinery.

The harness reproduces the paper's methodology: optimize each query under
every placement algorithm, execute the resulting plans, and report *charged*
running times (I/O units plus function invocations × cost) relative to the
best plan — the paper reports relative numbers only. Plans that blow
through the cost budget are reported as DNF, like the paper's Query 5
PullUp plan that "used up all available swap space and never completed".
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "workloads": ("WORKLOADS", "Workload", "build_all", "build_workload"),
    "harness": (
        "ALL_STRATEGIES",
        "DEFAULT_STRATEGIES",
        "StrategyOutcome",
        "best_outcome",
        "outcome_by_strategy",
        "resolve_strategies",
        "run_strategies",
    ),
    "report": ("format_outcomes", "format_planning_times"),
    "eagerness": ("eagerness_score",),
    "fixed_order": ("fixed_order_outcomes", "fixed_order_plans"),
    "applicability": ("applicability_matrix", "format_matrix"),
    "accuracy": ("format_accuracy", "measure_accuracy", "worst_q_error"),
    "stress": ("StressReport", "stress_optimizer"),
})
