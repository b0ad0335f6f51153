"""Query 1 at the paper's published scale.

The paper's database is the Hong–Stonebraker schema scaled ×10 (t10 =
100,000 tuples, ~110 MB with indexes). This bench repeats the Figure 3
comparison at that scale to confirm the shapes are scale-invariant.

Tables are generated when first read, so the run pays for ``t3`` and
``t10`` only (13 of the 55 × scale tuples, no B-tree, no RID list; about
146 B per tuple) and takes about a second; the pytest process peaks at
67 MiB (83 while every heap read built a RID list and every column its
own ints), the same query through ``python -m repro`` at 42 MiB.
"""

from conftest import emit

from repro.bench import (
    build_workload,
    format_outcomes,
    outcome_by_strategy,
    run_strategies,
)
from repro.catalog.datagen import PAPER_SCALE, build_database


def test_paper_scale_query1(benchmark):
    def run():
        db = build_database(scale=PAPER_SCALE, seed=42)
        workload = build_workload(db, "q1")
        outcomes = run_strategies(
            db,
            workload.query,
            strategies=("pushdown", "migration"),
        )
        return db, outcomes

    db, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_outcomes(
        f"Query 1 at paper scale (t10 = {10 * PAPER_SCALE:,} tuples, "
        f"{db.size_megabytes():.0f} MB)",
        outcomes,
    ))
    pushdown = outcome_by_strategy(outcomes, "pushdown")
    migration = outcome_by_strategy(outcomes, "migration")
    assert pushdown.charged > 3.0 * migration.charged
