"""Tests for the Section 5.1 caching alternatives: function-level caching,
LRU replacement, and the cache-bypass heuristic."""

import pytest

from repro.exec import Executor, PredicateCache
from repro.expr.expressions import Column, FuncCall, Logical
from repro.expr.predicates import analyze_conjunct
from repro.plan.nodes import Plan, Scan
from tests.conftest import costly_filter


def two_function_predicate(db):
    """costly10(t3.u20) AND costly100(t3.u100): one predicate, two UDFs
    over different columns — where predicate- and function-level caching
    genuinely differ."""
    return analyze_conjunct(
        db.catalog,
        Logical(
            "AND",
            (
                FuncCall("costly10", (Column("t3", "u20"),)),
                FuncCall("costly100", (Column("t3", "u100"),)),
            ),
        ),
    )


class TestFunctionLevelCaching:
    def test_same_rows_as_predicate_level(self, tiny_db):
        predicate = two_function_predicate(tiny_db)
        plan = Plan(Scan(filters=[predicate], table="t3"))
        by_predicate = Executor(tiny_db, caching=True).execute(plan)
        by_function = Executor(
            tiny_db, caching=True, cache_mode="function"
        ).execute(plan)
        assert sorted(by_predicate.rows) == sorted(by_function.rows)

    def test_function_mode_fewer_calls_on_compound_predicates(self, db):
        """Predicate caching keys on (u20, u100) pairs; function caching
        keys each UDF on its own column, so it evaluates at most
        nd(u20) + nd(u100) times instead of nd(u20) x nd(u100)."""
        predicate = two_function_predicate(db)
        plan = Plan(Scan(filters=[predicate], table="t3"))
        by_predicate = Executor(db, caching=True).execute(plan)
        by_function = Executor(
            db, caching=True, cache_mode="function"
        ).execute(plan)
        stats = db.catalog.table("t3").stats
        nd_pairs = stats.ndistinct("u20") * stats.ndistinct("u100")
        nd_separate = stats.ndistinct("u20") + stats.ndistinct("u100")
        assert by_function.metrics["function_calls"] <= nd_separate
        assert by_predicate.metrics["function_calls"] >= (
            by_function.metrics["function_calls"]
        )
        assert by_predicate.cache_entries <= nd_pairs

    def test_single_function_modes_equivalent_calls(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        by_predicate = Executor(tiny_db, caching=True).execute(plan)
        by_function = Executor(
            tiny_db, caching=True, cache_mode="function"
        ).execute(plan)
        assert (
            by_predicate.metrics["function_calls"]
            == by_function.metrics["function_calls"]
        )

    def test_unknown_mode_rejected(self, tiny_db):
        from repro.errors import ExecutionError

        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        with pytest.raises(ExecutionError):
            Executor(tiny_db, caching=True, cache_mode="weird").execute(plan)


class TestReplacementPolicies:
    def test_lru_keeps_hot_entries(self):
        cache = PredicateCache(max_entries_per_predicate=2, replacement="lru")
        cache.store(1, ("a",), True)
        cache.store(1, ("b",), True)
        cache.lookup(1, ("a",))  # touch "a": "b" becomes LRU
        cache.store(1, ("c",), True)  # evicts "b"
        assert cache.lookup(1, ("a",))[0] is True
        assert cache.lookup(1, ("b",))[0] is False

    def test_fifo_ignores_recency(self):
        cache = PredicateCache(max_entries_per_predicate=2, replacement="fifo")
        cache.store(1, ("a",), True)
        cache.store(1, ("b",), True)
        cache.lookup(1, ("a",))
        cache.store(1, ("c",), True)  # evicts "a" despite the touch
        assert cache.lookup(1, ("a",))[0] is False

    def test_invalid_policy_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            PredicateCache(replacement="random")

    @pytest.mark.parametrize("bound", [0, -1])
    @pytest.mark.parametrize(
        "field", ["max_entries_per_predicate", "max_total_entries"]
    )
    def test_non_positive_bound_rejected(self, field, bound):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match=f"{field} must be positive"):
            PredicateCache(**{field: bound})

    def test_executor_rejects_zero_cache_limit(self, tiny_db):
        # Used to run to completion with every store evicted at once:
        # 0 hits and 0 entries where the unbounded run hits 95 times.
        from repro.errors import ExecutionError

        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        with pytest.raises(ExecutionError, match="must be positive, got 0"):
            Executor(tiny_db, caching=True, cache_limit=0).execute(plan)

    def test_executor_accepts_lru(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        result = Executor(
            tiny_db, caching=True, cache_limit=2, cache_replacement="lru"
        ).execute(plan)
        assert result.completed


class TestCacheBypass:
    def test_unique_binding_predicate_bypassed(self, db):
        """On a unique column every binding is distinct: caching buys
        nothing, and the bypass heuristic skips it (no cache entries)."""
        predicate = costly_filter(db, "costly100", ("t3", "ua1"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        bypassing = Executor(
            db, caching=True, cache_bypass=True
        ).execute(plan)
        caching = Executor(db, caching=True).execute(plan)
        cardinality = db.catalog.table("t3").cardinality
        assert bypassing.metrics["function_calls"] == cardinality
        assert caching.metrics["function_calls"] == cardinality
        assert bypassing.cache_entries == 0
        assert caching.cache_entries == cardinality

    def test_repetitive_predicate_still_cached(self, db):
        predicate = costly_filter(db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        result = Executor(db, caching=True, cache_bypass=True).execute(plan)
        ndistinct = db.catalog.table("t3").stats.ndistinct("u20")
        assert result.metrics["function_calls"] == ndistinct
        assert result.cache_entries == ndistinct

    def test_bypass_does_not_change_rows(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "ua1"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        plain = Executor(tiny_db, caching=True).execute(plan)
        bypassed = Executor(
            tiny_db, caching=True, cache_bypass=True
        ).execute(plan)
        assert sorted(plain.rows) == sorted(bypassed.rows)
