"""Budget-DNF coverage: the executor's cost-budget abort path.

The paper's Query 5 footnote ("never completed") is reproduced by a
charged-cost budget: execution stops the moment the meter's charge
exceeds it. These tests pin the DNF contract — where the abort can
strike (mid-selection, mid-join), what the meter and ``error`` field
must say afterwards, and that a budget exactly at the final charge is
*not* an abort (the check is strictly greater-than).
"""

import pytest

from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.catalog.datagen import build_database
from repro.errors import BudgetExceededError
from repro.exec import Executor
from repro.optimizer import optimize
from repro.sql import compile_query


@pytest.fixture(scope="module")
def db():
    database = build_database(scale=10, seed=42)
    ensure_workload_functions(database)
    return database


def selection_plan(db):
    """A single-table scan whose expensive filter dominates the charge."""
    query = compile_query(
        db, "SELECT * FROM t3 WHERE costly100(t3.u20)", name="sel"
    )
    return optimize(db, query, strategy="pushdown").plan


def join_plan(db):
    """Query 1's join, planned so the expensive filter runs mid-plan."""
    return optimize(
        db, build_workload(db, "q1").query, strategy="pushdown"
    ).plan


class TestBudgetDnf:
    def test_mid_selection_abort(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        assert full.completed
        budget = full.charged / 2
        result = Executor(db, budget=budget).execute(plan)
        assert not result.completed
        assert result.rows == [] or len(result.rows) < len(full.rows)
        # The structured DNF reason names both sides of the comparison.
        assert result.error == (
            f"budget: charged {result.charged:.1f} > budget {budget:.1f}"
        )
        # The meter stopped at the violating charge: above the budget,
        # but short of the fault-free total (execution really stopped).
        assert budget < result.charged < full.charged
        assert result.metrics["charged"] == result.charged
        assert (
            result.metrics["function_calls"] < full.metrics["function_calls"]
        )

    def test_mid_join_abort(self, db):
        plan = join_plan(db)
        full = Executor(db).execute(plan)
        assert full.completed
        budget = full.charged * 0.75
        result = Executor(db, budget=budget).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget: charged")
        assert budget < result.charged < full.charged
        assert len(result.rows) < len(full.rows)

    def test_budget_exactly_at_total_charge_completes(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        at_boundary = Executor(db, budget=full.charged).execute(plan)
        assert at_boundary.completed
        assert at_boundary.error == ""
        assert at_boundary.charged == full.charged
        assert sorted(at_boundary.rows) == sorted(full.rows)

    def test_budget_just_below_total_charge_aborts(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        result = Executor(
            db, budget=full.charged - 1e-6
        ).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget:")

    def test_raise_on_budget_propagates_structured_error(self, db):
        plan = selection_plan(db)
        full = Executor(db).execute(plan)
        executor = Executor(db, budget=full.charged / 2)
        with pytest.raises(BudgetExceededError) as exc_info:
            executor.execute(plan, raise_on_budget=True)
        assert exc_info.value.charged > exc_info.value.budget

    def test_dnf_restores_database_budget(self, db):
        plan = selection_plan(db)
        db.meter.budget = None
        result = Executor(db, budget=1.0).execute(plan)
        assert not result.completed
        # The executor must not leak its private budget into the shared
        # meter after a DNF.
        assert db.meter.budget is None

    def test_q5_workload_budget_reproduces_paper_dnf(self, db):
        workload = build_workload(db, "q5")
        assert workload.budget is not None
        plan = optimize(db, workload.query, strategy="pullup").plan
        result = Executor(db, budget=workload.budget).execute(plan)
        assert not result.completed
        assert result.error.startswith("budget:")

    @pytest.mark.parametrize("executor,error,charged", [
        ("row", "budget: charged 15317.9 > budget 15315.0", 15317.885),
        ("vector", "budget: charged 15410.0 > budget 15315.0", 15410.05),
    ])
    def test_q5_pullup_aborts_where_it_always_has(
        self, db, executor, error, charged
    ):
        """The expensive primary join charges once per outer row after
        evaluating it, whichever call form produced the verdicts, so the
        abort strikes at the same outer row: error and charged-at-abort
        are the values both engines printed before the vector engine's
        join learned the curried pair form (the engines differ from each
        other because batches charge in groups)."""
        workload = build_workload(db, "q5")
        plan = optimize(db, workload.query, strategy="pullup").plan
        result = Executor(
            db, budget=workload.budget, executor=executor
        ).execute(plan)
        assert not result.completed
        assert result.error == error
        assert result.charged == pytest.approx(charged)
