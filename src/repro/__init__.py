"""repro — a reproduction of *Practical Predicate Placement*
(Joseph M. Hellerstein, SIGMOD 1994).

The library re-creates the paper's entire experimental stack in Python: a
page-based storage engine with charged-I/O accounting, the Hong–Stonebraker
synthetic database, a System R-style optimizer hosting the paper's family
of expensive-predicate placement algorithms (PushDown+, PullUp, PullRank,
Predicate Migration, LDL, Exhaustive), predicate caching, a small SQL
front-end, and the benchmark harness that regenerates every table and
figure of the paper's evaluation.

Quickstart::

    from repro import build_database, compile_query, optimize, Executor

    db = build_database(scale=100)
    query = compile_query(
        db,
        "SELECT * FROM t3, t10 WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)",
    )
    plan = optimize(db, query, strategy="migration").plan
    result = Executor(db).execute(plan)
    print(result.row_count, result.charged)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = ["__version__"] + lazy_exports(globals(), {
    "catalog.datagen": (
        "build_database",
        "paper_scale_database",
        "register_standard_functions",
    ),
    "database": ("Database",),
    "exec": ("EXECUTORS", "Executor", "FailurePolicy", "QueryResult"),
    "faults": ("FaultInjector", "FaultPlan", "FaultSpec"),
    "obs": ("MetricsRegistry", "Tracer", "record_run"),
    "optimizer": (
        "OptimizedPlan",
        "Query",
        "STRATEGIES",
        "optimize",
        "optimize_degraded",
    ),
    "plan": ("explain", "explain_analyze", "plan_tree"),
    "sql": ("compile_query",),
})
