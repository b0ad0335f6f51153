"""Unit, integration, and property tests for the executor.

The key invariants: (1) every join method returns the same multiset of
rows; (2) measured charges follow the cost-model formulas; (3) plans give
the same answers regardless of predicate placement.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.catalog import TableEntry
from repro.catalog.schema import RelationSchema
from repro.catalog.statistics import measured_stats
from repro.cost.params import CostParams
from repro.database import Database
from repro.errors import BudgetExceededError, ExecutionError
from repro.exec import EXECUTORS, Executor
from repro.exec.operators import RuntimeContext, build_operator
from repro.plan.nodes import Join, JoinMethod, Plan, Scan
from repro.storage.btree import BTree
from repro.storage.heap import HeapFile
from tests.conftest import costly_filter, equijoin, execute_on


def reference_join(db, outer, inner, outer_col, inner_col):
    """Naive nested-loop ground truth over raw heap rows."""
    outer_entry = db.catalog.table(outer)
    inner_entry = db.catalog.table(inner)
    outer_slot = outer_entry.schema.position(outer_col)
    inner_slot = inner_entry.schema.position(inner_col)
    rows = []
    for o in outer_entry.heap.all_rows():
        for i in inner_entry.heap.all_rows():
            if o[outer_slot] == i[inner_slot]:
                rows.append(o + i)
    return sorted(rows)


def join_plan(db, method, outer="t2", inner="t3",
              outer_col="ua1", inner_col="a1",
              filters=None, inner_filters=None, outer_filters=None):
    return Plan(Join(
        filters=filters or [],
        outer=Scan(filters=outer_filters or [], table=outer),
        inner=Scan(filters=inner_filters or [], table=inner),
        method=method,
        primary=equijoin(db, (outer, outer_col), (inner, inner_col)),
    ))


#: Every join method on every engine. A row case keeps the id it had
#: before the vector engine ran these plans (``[JoinMethod.HASH]``).
method_on_engine = pytest.mark.parametrize(
    "method,executor",
    [
        pytest.param(
            method,
            executor,
            id=str(method) if executor == "row" else f"{method}-{executor}",
        )
        for method in JoinMethod
        for executor in EXECUTORS
    ],
)


class TestJoinMethodEquivalence:
    @method_on_engine
    def test_matches_reference(self, tiny_db, method, executor):
        plan = join_plan(tiny_db, method)
        result = execute_on(tiny_db, plan, executor)
        assert result.completed
        assert sorted(result.rows) == reference_join(
            tiny_db, "t2", "t3", "ua1", "a1"
        )

    @method_on_engine
    def test_duplicate_join_keys(self, tiny_db, method, executor):
        # t3.ua20 repeats each value ~20 times: real duplicate handling.
        plan = join_plan(
            tiny_db, method, outer="t2", inner="t3",
            outer_col="ua1", inner_col="a20",
        )
        result = execute_on(tiny_db, plan, executor)
        assert sorted(result.rows) == reference_join(
            tiny_db, "t2", "t3", "ua1", "a20"
        )

    @method_on_engine
    def test_filters_anywhere_same_answer(self, tiny_db, method, executor):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        below = join_plan(tiny_db, method, inner_filters=[predicate])
        above = join_plan(tiny_db, method, filters=[predicate])
        rows_below = execute_on(tiny_db, below, executor).rows
        rows_above = execute_on(tiny_db, above, executor).rows
        assert sorted(rows_below) == sorted(rows_above)


class TestChargingConsistency:
    """Measured charge should match the cost model when cardinality
    estimates are exact (single join of base tables)."""

    @pytest.mark.parametrize(
        "method", [JoinMethod.HASH, JoinMethod.MERGE, JoinMethod.NESTED_LOOP]
    )
    def test_join_io_matches_estimate(self, tiny_db, method):
        from repro.cost.model import CostModel

        plan = join_plan(tiny_db, method)
        estimate = CostModel(tiny_db.catalog, tiny_db.params).estimate_plan(
            plan.root
        )
        result = Executor(tiny_db).execute(plan)
        assert result.charged == pytest.approx(estimate.cost, rel=0.15)

    def test_function_charge_is_calls_times_cost(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        result = Executor(tiny_db).execute(plan)
        calls = result.metrics["function_calls"]
        assert calls == tiny_db.catalog.table("t3").cardinality
        assert result.metrics["function_charged"] == pytest.approx(
            100.0 * calls
        )

    def test_filter_order_respected(self, tiny_db):
        # Unique columns so the synthetic pass rates are realised even at
        # tiny scale.
        selective = costly_filter(tiny_db, "costly100sel10", ("t3", "ua1"))
        pricey = costly_filter(tiny_db, "costly100", ("t3", "a1"))
        cheap_first = Plan(Scan(filters=[selective, pricey], table="t3"))
        pricey_first = Plan(Scan(filters=[pricey, selective], table="t3"))
        a = Executor(tiny_db).execute(cheap_first)
        b = Executor(tiny_db).execute(pricey_first)
        assert sorted(a.rows) == sorted(b.rows)
        assert a.charged < b.charged


class TestBudget:
    def test_budget_aborts_and_reports_dnf(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        result = Executor(tiny_db, budget=500.0).execute(plan)
        assert not result.completed
        assert result.charged > 500.0  # the charge that tripped it

    def test_budget_raises_when_asked(self, tiny_db):
        from repro.errors import BudgetExceededError

        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        with pytest.raises(BudgetExceededError):
            Executor(tiny_db, budget=500.0).execute(
                plan, raise_on_budget=True
            )

    def test_budget_cleared_after_run(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        Executor(tiny_db, budget=500.0).execute(plan)
        assert tiny_db.meter.budget is None

    def test_preexisting_budget_restored_after_run(self, tiny_db):
        """Regression: execute() used to clear the shared meter's budget to
        None instead of restoring whatever the caller had set."""
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        tiny_db.meter.budget = 123456.0
        try:
            Executor(tiny_db, budget=500.0).execute(plan)
            assert tiny_db.meter.budget == 123456.0
            Executor(tiny_db).execute(plan)
            assert tiny_db.meter.budget == 123456.0
        finally:
            tiny_db.meter.budget = None


class TestProjectionAndResult:
    def test_projection(self, tiny_db):
        plan = Plan(Scan(filters=[], table="t3"))
        result = Executor(tiny_db).execute(plan, project=[("t3", "a1")])
        assert result.scope.columns == [("t3", "a1")]
        assert sorted(r[0] for r in result.rows) == list(
            range(tiny_db.catalog.table("t3").cardinality)
        )

    def test_column_accessor(self, tiny_db):
        plan = Plan(Scan(filters=[], table="t1"))
        result = Executor(tiny_db).execute(plan)
        values = result.column("t1", "a1")
        assert sorted(values) == list(
            range(tiny_db.catalog.table("t1").cardinality)
        )

    def test_fresh_metrics_each_run(self, tiny_db):
        plan = Plan(Scan(filters=[], table="t3"))
        first = Executor(tiny_db).execute(plan)
        second = Executor(tiny_db).execute(plan)
        assert first.charged == pytest.approx(second.charged)


class TestIndexScan:
    def test_index_scan_rows(self, tiny_db):
        plan = Plan(Scan(
            filters=[], table="t3", index_attr="a1", index_range=(5, 9)
        ))
        for executor in EXECUTORS:
            result = execute_on(tiny_db, plan, executor)
            assert sorted(result.column("t3", "a1")) == [5, 6, 7, 8, 9]

    def test_index_scan_missing_index_fails(self, tiny_db):
        plan = Plan(Scan(
            filters=[], table="t3", index_attr="ua1", index_range=(0, 5)
        ))
        for executor in EXECUTORS:
            with pytest.raises(ExecutionError):
                execute_on(tiny_db, plan, executor)


class TestNestedLoopCharging:
    def test_rescan_charged_per_outer_tuple(self, tiny_db):
        plan = join_plan(tiny_db, JoinMethod.NESTED_LOOP)
        result = Executor(tiny_db).execute(plan)
        outer_rows = tiny_db.catalog.table("t2").cardinality
        inner_pages = tiny_db.catalog.table("t3").pages
        assert result.metrics["seq_ios"] >= outer_rows * inner_pages

    def test_inner_filter_does_not_shrink_rescan(self, tiny_db):
        """The paper's constant-|S| claim, measured."""
        predicate = costly_filter(tiny_db, "costly100sel10", ("t3", "u20"))
        base = Executor(tiny_db).execute(
            join_plan(tiny_db, JoinMethod.NESTED_LOOP)
        )
        filtered = Executor(tiny_db).execute(
            join_plan(
                tiny_db, JoinMethod.NESTED_LOOP, inner_filters=[predicate]
            )
        )
        assert filtered.metrics["seq_ios"] >= base.metrics["seq_ios"]


class TestPropertyEquivalence:
    @given(
        method=st.sampled_from(list(JoinMethod)),
        outer=st.sampled_from(["t1", "t2"]),
        inner=st.sampled_from(["t2", "t3"]),
        inner_col=st.sampled_from(["a1", "a20"]),
        executor=st.sampled_from(EXECUTORS),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_joins_match_reference(
        self, tiny_db, method, outer, inner, inner_col, executor
    ):
        if outer == inner:
            return
        plan = join_plan(
            tiny_db, method, outer=outer, inner=inner,
            outer_col="ua1", inner_col=inner_col,
        )
        result = execute_on(tiny_db, plan, executor)
        assert sorted(result.rows) == reference_join(
            tiny_db, outer, inner, "ua1", inner_col
        )


def keyed_db(outer_keys, inner_keys, **params):
    """Hand-made ``t1`` (outer) and ``t2`` (inner): ``a1`` is the join key
    (indexed, may be NULL), ``ua1`` numbers the rows so no two are equal.
    ``cpu_per_tuple`` is a power of two, so *n* charges of it and one
    charge of *n* times it are the same float."""
    db = Database.empty(CostParams(cpu_per_tuple=2.0**-8, **params))
    page_size = db.params.page_size
    for name, keys in (("t1", outer_keys), ("t2", inner_keys)):
        schema = RelationSchema.from_names(name, ["a1", "ua1"])
        rows = [(key, 10 * int(name[1]) + i) for i, key in enumerate(keys)]
        heap = HeapFile(name, schema.tuple_width, db.pool, page_size=page_size)
        heap.bulk_load(rows)
        index = BTree(f"{name}_a1", db.pool, page_size=page_size)
        index.bulk_load(zip(keys, heap.rids()))
        db.catalog.register_table(TableEntry(
            schema=schema,
            stats=measured_stats(schema, rows, page_size),
            heap=heap,
            indexes={"a1": index},
        ))
    return db


def key_join(db, method):
    return join_plan(
        db, method, outer="t1", inner="t2", outer_col="a1", inner_col="a1"
    )


#: NULLs on both sides, a key only one side has.
NULL_OUTER, NULL_INNER = [1, None, 2, None], [1, None, 3]

join_keys = st.lists(st.one_of(st.none(), st.integers(0, 4)), max_size=9)
BATCH_ROWS = (1, 7, 1024)


class TestJoinKeyShapes:
    """NULL, duplicate, unique and empty sides: every join method on
    either engine returns the nested loop's rows, and the batch hash join
    is the row hash join row for row and charge for charge."""

    @method_on_engine
    def test_null_keys_never_match(self, method, executor):
        db = keyed_db(NULL_OUTER, NULL_INNER)
        result = Executor(db, executor=executor).execute(key_join(db, method))
        assert result.completed and result.rows == [(1, 10, 1, 20)]

    @given(outer_keys=join_keys, inner_keys=join_keys)
    @settings(max_examples=40, deadline=None)
    def test_every_method_returns_the_nested_loops_rows(
        self, outer_keys, inner_keys
    ):
        db = keyed_db(outer_keys, inner_keys)
        expected = Counter(
            Executor(db).execute(key_join(db, JoinMethod.NESTED_LOOP)).rows
        )
        assert sum(expected.values()) == sum(
            outer is not None and outer == inner
            for outer in outer_keys for inner in inner_keys
        )
        for method in JoinMethod:
            plan = key_join(db, method)
            assert Counter(Executor(db).execute(plan).rows) == expected, method
            for batch_rows in BATCH_ROWS:
                vector = Executor(
                    db, executor="vector", batch_rows=batch_rows
                ).execute(plan)
                assert Counter(vector.rows) == expected, (method, batch_rows)

    @given(
        outer_keys=join_keys,
        inner_keys=st.one_of(
            join_keys, st.permutations(range(6))  # a unique build side
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_hash_join_is_the_row_hash_join(
        self, outer_keys, inner_keys
    ):
        seq_ios = []
        for hash_memory_pages in (1024, 0):  # in memory, then Grace
            db = keyed_db(
                outer_keys, inner_keys, hash_memory_pages=hash_memory_pages
            )
            plan = key_join(db, JoinMethod.HASH)
            row = Executor(db).execute(plan)
            charged = db.meter.snapshot()
            seq_ios.append(charged["seq_ios"])
            for batch_rows in BATCH_ROWS:
                vector = Executor(
                    db, executor="vector", batch_rows=batch_rows
                ).execute(plan)
                assert vector.rows == row.rows, batch_rows
                assert db.meter.snapshot() == charged, batch_rows
        # Only a build side with rows in it has pages to spill.
        assert (seq_ios[1] > seq_ios[0]) == bool(inner_keys)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_budget_abort_is_a_dnf(self, executor):
        db = keyed_db(NULL_OUTER * 50, NULL_INNER * 50)
        plan = key_join(db, JoinMethod.HASH)
        complete = Executor(db, executor=executor).execute(plan)
        assert complete.completed and len(complete.rows) == 2500
        budget = complete.charged / 2
        result = Executor(db, executor=executor, budget=budget).execute(plan)
        assert not result.completed and result.error.startswith("budget:")
        with pytest.raises(BudgetExceededError):
            Executor(db, executor=executor, budget=budget).execute(
                plan, raise_on_budget=True
            )
