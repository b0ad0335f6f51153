"""Unit tests: index-scan access-path selection."""

import pytest

from repro.catalog.datagen import build_database
from repro.exec import EXECUTORS
from repro.expr.expressions import Column, Comparison, Const
from repro.expr.predicates import analyze_conjunct
from repro.optimizer import Query, optimize
from repro.optimizer.joinutil import index_access
from repro.plan.nodes import Scan
from tests.conftest import costly_filter, execute_on


@pytest.fixture(scope="module")
def wide_db():
    """Large enough that an index probe beats a sequential scan."""
    database = build_database(scale=300, seed=13)
    return database


def comparison(db, table, attribute, op, value):
    return analyze_conjunct(
        db.catalog, Comparison(op, Column(table, attribute), Const(value))
    )


class TestIndexAccessDecoding:
    def test_equality(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "a1", "=", 5)
        assert index_access(entry, predicate) == ("a1", 5, 5)

    def test_less_than(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "a1", "<", 10)
        stats = entry.stats.attribute("a1")
        assert index_access(entry, predicate) == ("a1", stats.low, 9)

    def test_greater_equal(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "a1", ">=", 10)
        stats = entry.stats.attribute("a1")
        assert index_access(entry, predicate) == ("a1", 10, stats.high)

    def test_flipped_constant_side(self, db):
        entry = db.catalog.table("t10")
        predicate = analyze_conjunct(
            db.catalog,
            Comparison(">", Const(10), Column("t10", "a1")),
        )
        stats = entry.stats.attribute("a1")
        assert index_access(entry, predicate) == ("a1", stats.low, 9)

    def test_unindexed_attribute_rejected(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "ua1", "=", 5)
        assert index_access(entry, predicate) is None

    def test_expensive_predicate_rejected(self, db):
        entry = db.catalog.table("t10")
        predicate = costly_filter(db, "costly100", ("t10", "u20"))
        assert index_access(entry, predicate) is None

    def test_not_equal_rejected(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "a1", "<>", 5)
        assert index_access(entry, predicate) is None

    def test_non_integer_rejected(self, db):
        entry = db.catalog.table("t10")
        predicate = comparison(db, "t10", "a1", "=", 2.5)
        assert index_access(entry, predicate) is None


class TestAccessPathChoice:
    def test_selective_equality_uses_index(self, wide_db):
        query = Query(
            tables=["t10"],
            predicates=[comparison(wide_db, "t10", "a1", "=", 5)],
        )
        plan = optimize(wide_db, query, strategy="migration").plan
        assert isinstance(plan.root, Scan)
        assert plan.root.index_attr == "a1"
        assert plan.root.index_range == (5, 5)
        for executor in EXECUTORS:
            result = execute_on(wide_db, plan, executor)
            assert result.column("t10", "a1") == [5]

    def test_unselective_range_uses_seq_scan(self, wide_db):
        query = Query(
            tables=["t10"],
            predicates=[comparison(wide_db, "t10", "a1", ">", 5)],
        )
        plan = optimize(wide_db, query, strategy="migration").plan
        assert plan.root.index_attr is None

    def test_index_scan_rows_match_seq_scan(self, wide_db):
        query = Query(
            tables=["t10"],
            predicates=[comparison(wide_db, "t10", "a20", "=", 3)],
        )
        plan = optimize(wide_db, query, strategy="migration").plan
        entry = wide_db.catalog.table("t10")
        slot = entry.schema.position("a20")
        expected = [r for r in entry.heap.all_rows() if r[slot] == 3]
        for executor in EXECUTORS:
            result = execute_on(wide_db, plan, executor)
            assert sorted(result.rows) == sorted(expected)

    def test_index_path_cheaper_when_chosen(self, wide_db):
        from repro.cost.model import CostModel

        model = CostModel(wide_db.catalog, wide_db.params)
        predicate = comparison(wide_db, "t10", "a1", "=", 5)
        seq = Scan(filters=[predicate], table="t10")
        index = Scan(
            filters=[], table="t10", index_attr="a1", index_range=(5, 5)
        )
        assert (
            model.estimate_plan(index).cost < model.estimate_plan(seq).cost
        )

    def test_index_scan_under_join_still_correct(self, wide_db):
        from tests.conftest import equijoin

        query = Query(
            tables=["t3", "t10"],
            predicates=[
                equijoin(wide_db, ("t3", "ua1"), ("t10", "a1")),
                comparison(wide_db, "t10", "a20", "=", 3),
            ],
        )
        # Ground truth via nested loops over raw rows, in canonical
        # (t3 columns, t10 columns) order.
        t3 = wide_db.catalog.table("t3")
        t10 = wide_db.catalog.table("t10")
        ua1 = t3.schema.position("ua1")
        a1 = t10.schema.position("a1")
        a20 = t10.schema.position("a20")
        expected = sorted(
            o + i
            for o in t3.heap.all_rows()
            for i in t10.heap.all_rows()
            if o[ua1] == i[a1] and i[a20] == 3
        )
        canonical = [
            ("t3", n) for n in t3.schema.attribute_names
        ] + [("t10", n) for n in t10.schema.attribute_names]
        for strategy in ("migration", "pushdown"):
            plan = optimize(wide_db, query, strategy=strategy).plan
            for executor in EXECUTORS:
                result = execute_on(
                    wide_db, plan, executor, project=canonical
                )
                assert result.completed
                assert sorted(result.rows) == expected
