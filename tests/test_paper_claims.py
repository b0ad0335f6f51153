"""Integration tests: the paper's headline experimental claims, asserted.

Each test pins the *shape* of one published result — who wins and by
roughly what factor — at the suite's small scale. The benchmarks in
``benchmarks/`` print the full tables; these tests make the claims part of
CI.
"""

import functools

import pytest

from repro.bench import (
    build_workload,
    outcome_by_strategy,
    run_strategies,
)
from repro.catalog.datagen import build_database
from repro.exec import Executor
from repro.optimizer import optimize


class TestFigure3Query1:
    """PushDown is far worse when the join is selective over the relation
    carrying the expensive selection."""

    def test_pushdown_at_least_3x_worse(self, db):
        workload = build_workload(db, "q1")
        outcomes = run_strategies(db, workload.query)
        pushdown = outcome_by_strategy(outcomes, "pushdown")
        migration = outcome_by_strategy(outcomes, "migration")
        assert pushdown.charged > 3.0 * migration.charged

    def test_everyone_else_optimal(self, db):
        workload = build_workload(db, "q1")
        outcomes = run_strategies(db, workload.query)
        for strategy in ("pullrank", "migration", "ldl", "pullup", "exhaustive"):
            assert outcome_by_strategy(outcomes, strategy).relative < 1.05


class TestFigure4Query2:
    """Over-eager pullup errs, but nearly insignificantly, when the join
    has selectivity ~1 over the filtered relation."""

    def test_pullup_strictly_but_barely_worse(self, db):
        workload = build_workload(db, "q2")
        outcomes = run_strategies(db, workload.query)
        pullup = outcome_by_strategy(outcomes, "pullup")
        best = min(
            o.charged for o in outcomes if o.strategy != "pullup"
        )
        assert pullup.charged > best          # it does err ...
        assert pullup.charged < 1.01 * best   # ... insignificantly

    def test_rank_aware_algorithms_do_not_pull(self, db):
        workload = build_workload(db, "q2")
        outcomes = run_strategies(db, workload.query)
        for strategy in ("pushdown", "pullrank", "migration", "exhaustive"):
            assert outcome_by_strategy(outcomes, strategy).relative == (
                pytest.approx(1.0)
            )


class TestFigure5Query3:
    """Over-eager pullup is significantly poor on a fanout join — and
    predicate caching rescues it (Section 4.2)."""

    def test_pullup_at_least_2x_worse(self, db):
        workload = build_workload(db, "q3")
        outcomes = run_strategies(db, workload.query)
        pullup = outcome_by_strategy(outcomes, "pullup")
        migration = outcome_by_strategy(outcomes, "migration")
        assert pullup.charged > 2.0 * migration.charged

    def test_caching_rescues_pullup(self, db):
        workload = build_workload(db, "q3")
        pullup_plan = optimize(db, workload.query, strategy="pullup").plan
        uncached = Executor(db, caching=False).execute(pullup_plan)
        cached = Executor(db, caching=True).execute(pullup_plan)
        assert cached.charged < 0.5 * uncached.charged


class TestFigure8Query4:
    """PushDown is badly suboptimal; the rank-aware algorithms win by
    nearly an order of magnitude. (The fixed-order PullRank failure is
    asserted in test_bench_harness.)"""

    def test_pushdown_many_times_worse(self, db):
        workload = build_workload(db, "q4")
        outcomes = run_strategies(db, workload.query)
        pushdown = outcome_by_strategy(outcomes, "pushdown")
        migration = outcome_by_strategy(outcomes, "migration")
        assert pushdown.charged > 5.0 * migration.charged

    def test_migration_matches_exhaustive(self, db):
        workload = build_workload(db, "q4")
        outcomes = run_strategies(db, workload.query)
        migration = outcome_by_strategy(outcomes, "migration")
        exhaustive = outcome_by_strategy(outcomes, "exhaustive")
        assert migration.charged == pytest.approx(
            exhaustive.charged, rel=0.01
        )


class TestFigure9Query5:
    """PullUp's plan with an expensive primary join predicate must DNF;
    everyone else completes."""

    def test_pullup_dnf_everyone_else_completes(self, db):
        workload = build_workload(db, "q5")
        outcomes = run_strategies(db, workload.query, budget=workload.budget)
        assert outcome_by_strategy(outcomes, "pullup").dnf
        for strategy in ("pushdown", "pullrank", "migration", "ldl",
                         "exhaustive"):
            assert outcome_by_strategy(outcomes, strategy).completed

    def test_pullup_estimate_shows_the_blowup(self, db):
        workload = build_workload(db, "q5")
        pullup = optimize(db, workload.query, strategy="pullup")
        migration = optimize(db, workload.query, strategy="migration")
        assert pullup.estimated_cost > 5.0 * migration.estimated_cost


class TestSection44PlanningTime:
    """Montage planned a 5-way join with expensive predicates in under 8
    seconds on a 1993 SparcStation; our pure-Python optimizer should too."""

    def test_five_way_join_plans_under_8_seconds(self, db):
        workload = build_workload(db, "fiveway")
        optimized = optimize(db, workload.query, strategy="migration")
        assert optimized.planning_seconds < 8.0
        assert optimized.plan.root.tables() == frozenset(
            {"t2", "t4", "t6", "t8", "t10"}
        )


class TestFigure10Eagerness:
    """The eagerness spectrum: PushDown ≤ PullRank ≤ Migration ≤ PullUp,
    with PushDown = 0 and PullUp = 1."""

    def test_spectrum_ordering(self, db):
        from repro.bench import eagerness_score

        scores = {}
        for strategy in ("pushdown", "pullrank", "migration", "ldl", "pullup"):
            values = []
            for key in ("q1", "q2", "q3", "q4"):
                workload = build_workload(db, key)
                plan = optimize(db, workload.query, strategy=strategy).plan
                score = eagerness_score(plan)
                if score is not None:
                    values.append(score)
            scores[strategy] = sum(values) / len(values)
        assert scores["pushdown"] == pytest.approx(0.0)
        assert scores["pullup"] == pytest.approx(1.0)
        assert scores["pushdown"] <= scores["pullrank"] + 1e-9
        assert scores["pullrank"] <= scores["pullup"] + 1e-9
        assert scores["migration"] <= scores["pullup"] + 1e-9


class TestTable1Applicability:
    """The measured applicability matrix matches the paper's claims."""

    def test_matrix_matches_expectations(self, db):
        from repro.bench.applicability import EXPECTED, applicability_matrix

        matrix = applicability_matrix(db)
        for workload_key, expectations in EXPECTED.items():
            for strategy, should_be_correct in expectations.items():
                cell = matrix[workload_key][strategy]
                assert cell.correct == should_be_correct, (
                    f"{workload_key}/{strategy}: expected "
                    f"correct={should_be_correct}, got relative="
                    f"{cell.relative:.2f} completed={cell.completed}"
                )


#: Cells where Migration's estimate is above PullRank's today, with the
#: two estimates. Migration re-places every movable predicate on each
#: candidate and keeps the cheapest *migrated* plan, never the candidate
#: as enumerated; under predicate caching most fiveway candidates cost
#: more after migration than before it (DESIGN.md, "Deviations").
MIGRATION_ABOVE_PULLRANK = {
    (10, "fiveway", True): (503.11, 502.735),
    (100, "fiveway", True): (5025.85, 5022.10),
}


def _claim_cells():
    for scale in (10, 100):
        for key in ("q1", "q2", "q3", "q4", "q5", "qor", "ldl_example",
                    "fiveway"):
            for caching in (False, True):
                known = MIGRATION_ABOVE_PULLRANK.get((scale, key, caching))
                marks = []
                if known is not None:
                    marks.append(pytest.mark.xfail(
                        strict=True,
                        reason=f"migration {known[0]} > pullrank {known[1]}",
                    ))
                yield pytest.param(
                    scale, key, caching, marks=marks,
                    id=f"s{scale}-{key}-cache{caching:d}",
                )


@functools.lru_cache(maxsize=None)
def _claim_database(scale: int):
    return build_database(scale=scale, seed=42)


class TestMigrationNotAbovePullRank:
    """Section 4.4: Predicate Migration is PullRank plus a post-pass, so
    its estimated cost is never above PullRank's."""

    @pytest.mark.parametrize("scale, key, caching", list(_claim_cells()))
    def test_estimate(self, scale, key, caching):
        db = _claim_database(scale)
        query = build_workload(db, key).query
        migration = optimize(db, query, "migration", caching=caching)
        pullrank = optimize(db, query, "pullrank", caching=caching)
        assert migration.estimated_cost <= pullrank.estimated_cost
