"""Unit and integration tests: predicate caching (Section 5.1)."""

import sys
import tracemalloc

import pytest

from repro.exec import Executor, PredicateCache
from repro.exec.operators import RuntimeContext
from repro.exec.predicate import PredicateRunner
from repro.plan.nodes import Join, JoinMethod, Plan, Scan
from tests.conftest import costly_filter, equijoin


class TestPredicateCacheUnit:
    def test_miss_then_hit(self):
        cache = PredicateCache()
        found, _ = cache.lookup(1, ("x",))
        assert not found
        cache.store(1, ("x",), True)
        found, value = cache.lookup(1, ("x",))
        assert found and value is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_null_results_cached(self):
        # The paper: entries are true, false, or NULL (beardless people).
        cache = PredicateCache()
        cache.store(1, ("x",), None)
        found, value = cache.lookup(1, ("x",))
        assert found and value is None

    def test_predicates_have_separate_tables(self):
        cache = PredicateCache()
        cache.store(1, ("x",), True)
        found, _ = cache.lookup(2, ("x",))
        assert not found

    def test_eviction_bound(self):
        cache = PredicateCache(max_entries_per_predicate=2)
        for key in range(5):
            cache.store(1, (key,), True)
        assert cache.entries(1) == 2
        assert cache.stats.evictions == 3

    def test_fifo_eviction_order(self):
        cache = PredicateCache(max_entries_per_predicate=2)
        cache.store(1, ("a",), True)
        cache.store(1, ("b",), True)
        cache.store(1, ("c",), True)  # evicts "a"
        assert cache.lookup(1, ("a",))[0] is False
        assert cache.lookup(1, ("c",))[0] is True

    def test_total_entries(self):
        cache = PredicateCache()
        cache.store(1, ("a",), True)
        cache.store(2, ("b",), False)
        assert cache.total_entries() == 2


class TestCachedExecution:
    def test_invocations_equal_distinct_bindings(self, tiny_db):
        """The central caching claim: one evaluation per distinct value."""
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        result = Executor(tiny_db, caching=True).execute(plan)
        ndistinct = tiny_db.catalog.table("t3").stats.ndistinct("u20")
        assert result.metrics["function_calls"] == ndistinct
        assert result.cache_stats.misses == ndistinct

    def test_same_rows_with_and_without_cache(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        cached = Executor(tiny_db, caching=True).execute(plan)
        uncached = Executor(tiny_db, caching=False).execute(plan)
        assert sorted(cached.rows) == sorted(uncached.rows)
        assert cached.charged < uncached.charged

    def test_cache_rescues_fanout_pullup(self, tiny_db):
        """Section 4.2: 'join selectivities greater than 1 can be avoided
        by using function caching'. Pulling a selection above a fanout
        join multiplies invocations — unless cached."""
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        fanout_join = Plan(Join(
            filters=[predicate],
            outer=Scan(filters=[], table="t3"),
            inner=Scan(filters=[], table="t10"),
            method=JoinMethod.HASH,
            primary=equijoin(tiny_db, ("t3", "ua1"), ("t10", "ua20")),
        ))
        uncached = Executor(tiny_db, caching=False).execute(fanout_join)
        cached = Executor(tiny_db, caching=True).execute(fanout_join)
        t3 = tiny_db.catalog.table("t3").cardinality
        assert uncached.metrics["function_calls"] > t3  # fanout multiplied
        assert (
            cached.metrics["function_calls"]
            <= tiny_db.catalog.table("t3").stats.ndistinct("u20")
        )
        assert sorted(cached.rows) == sorted(uncached.rows)

    def test_join_predicate_cached_on_both_inputs(self, tiny_db):
        from repro.expr.expressions import Column, FuncCall
        from repro.expr.predicates import analyze_conjunct

        primary = analyze_conjunct(
            tiny_db.catalog,
            FuncCall(
                "expjoin10", (Column("t1", "u20"), Column("t2", "u20"))
            ),
        )
        plan = Plan(Join(
            filters=[],
            outer=Scan(filters=[], table="t1"),
            inner=Scan(filters=[], table="t2"),
            method=JoinMethod.NESTED_LOOP,
            primary=primary,
        ))
        result = Executor(tiny_db, caching=True).execute(plan)
        nd1 = tiny_db.catalog.table("t1").stats.ndistinct("u20")
        nd2 = tiny_db.catalog.table("t2").stats.ndistinct("u20")
        assert result.metrics["function_calls"] <= nd1 * nd2

    def test_cache_limit_still_correct(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        unlimited = Executor(tiny_db, caching=True).execute(plan)
        limited = Executor(tiny_db, caching=True, cache_limit=2).execute(plan)
        assert sorted(limited.rows) == sorted(unlimited.rows)
        assert limited.metrics["function_calls"] >= unlimited.metrics[
            "function_calls"
        ]


class TestGlobalCapacity:
    """The global entry bound (``max_total_entries``): one budget shared
    by every predicate's table, evicted first-in under ``"fifo"`` (the
    library default) and least-recently-used under ``"lru"`` (what the
    CLI's ``--cache-capacity`` asks for)."""

    def test_global_bound_evicts_oldest_across_owners(self):
        cache = PredicateCache(max_total_entries=3)
        cache.store(1, ("a",), True)
        cache.store(2, ("b",), True)
        cache.store(1, ("c",), True)
        cache.store(3, ("d",), True)  # evicts (1, "a") — oldest anywhere
        assert cache.total_entries() == 3
        assert cache.stats.evictions == 1
        assert cache.lookup(1, ("a",))[0] is False
        assert cache.lookup(2, ("b",))[0] is True
        assert cache.lookup(3, ("d",))[0] is True

    def test_lru_hit_refreshes_global_order(self):
        cache = PredicateCache(max_total_entries=2, replacement="lru")
        cache.store(1, ("a",), True)
        cache.store(2, ("b",), True)
        cache.lookup(1, ("a",))  # refresh: (2, "b") is now the LRU
        cache.store(3, ("c",), True)
        assert cache.lookup(2, ("b",))[0] is False
        assert cache.lookup(1, ("a",))[0] is True

    def test_fifo_hits_do_not_refresh(self):
        cache = PredicateCache(max_total_entries=2, replacement="fifo")
        cache.store(1, ("a",), True)
        cache.store(2, ("b",), True)
        cache.lookup(1, ("a",))  # no refresh under fifo
        cache.store(3, ("c",), True)  # still evicts (1, "a")
        assert cache.lookup(1, ("a",))[0] is False
        assert cache.lookup(2, ("b",))[0] is True

    def test_composes_with_per_owner_bound(self):
        cache = PredicateCache(
            max_entries_per_predicate=2, max_total_entries=3
        )
        for key in range(3):  # per-owner bound evicts (1, (0,))
            cache.store(1, (key,), True)
        cache.store(2, ("x",), True)
        cache.store(2, ("y",), True)  # global bound evicts (1, (1,))
        assert cache.total_entries() == 3
        assert cache.entries(1) == 1
        assert cache.entries(2) == 2
        assert cache.stats.evictions == 2

    def test_restore_after_global_eviction(self):
        cache = PredicateCache(max_total_entries=1)
        cache.store(1, ("a",), True)
        cache.store(1, ("b",), False)
        cache.store(1, ("a",), None)  # re-admitted with the new value
        found, value = cache.lookup(1, ("a",))
        assert found and value is None
        assert cache.total_entries() == 1

    def test_invalid_capacity_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            PredicateCache(max_total_entries=0)

    def test_executor_capacity_still_correct(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        unlimited = Executor(tiny_db, caching=True).execute(plan)
        bounded = Executor(
            tiny_db, caching=True, cache_capacity=1
        ).execute(plan)
        assert sorted(bounded.rows) == sorted(unlimited.rows)
        assert bounded.metrics["function_calls"] >= unlimited.metrics[
            "function_calls"
        ]
        assert bounded.cache_entries <= 1

    def test_executor_capacity_vector_matches_row(self, tiny_db):
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        plan = Plan(Scan(filters=[predicate], table="t3"))
        row = Executor(
            tiny_db, caching=True, cache_capacity=2
        ).execute(plan)
        vector = Executor(
            tiny_db, caching=True, cache_capacity=2, executor="vector"
        ).execute(plan)
        assert sorted(vector.rows) == sorted(row.rows)
        # Same sequential binding stream, same bounded cache: the
        # hit/miss/eviction history is identical too.
        assert vector.cache_stats.hits == row.cache_stats.hits
        assert vector.cache_stats.evictions == row.cache_stats.evictions


def python_calls(function, *args) -> int:
    """Python-level calls made while ``function(*args)`` runs (C calls
    are not counted): a count, so it repeats exactly."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(hook)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return count


class TestBatchProbeCost:
    """What a batch costs an unbounded cache, in counts rather than
    seconds: interpreter calls per batch and table bytes per entry."""

    @pytest.fixture()
    def runner(self, tiny_db):
        # ``costly100(t3.u20)``: a direct function, so misses take the
        # registry's batch form.
        predicate = costly_filter(tiny_db, "costly100", ("t3", "u20"))
        ctx = RuntimeContext(
            catalog=tiny_db.catalog,
            meter=tiny_db.meter,
            params=tiny_db.params,
            caching=True,
        )
        return PredicateRunner(predicate, ctx)

    def test_all_hit_batch_makes_a_constant_number_of_calls(self, runner):
        bindings = [(value % 50,) for value in range(1024)]
        runner.evaluate_bindings(bindings)
        before = runner.ctx.cache.stats.hits
        # One call per binding (> 1 024) when every probe was a
        # ``lookup`` call out of a per-binding loop.
        assert python_calls(runner.evaluate_bindings, bindings) <= 10
        assert runner.ctx.cache.stats.hits == before + 1024

    def test_distinct_misses_do_not_add_calls(self, runner):
        few = [(value,) for value in range(10)]
        many = [(value,) for value in range(1000, 1500)] * 2
        few_calls = python_calls(runner.evaluate_bindings, few)
        assert python_calls(runner.evaluate_bindings, many) == few_calls <= 20
        assert runner.ctx.cache.stats.misses == 10 + 500
        assert runner.ctx.cache.stats.hits == 500

    def test_table_overhead_per_entry(self):
        keys = [(value, value + 1) for value in range(100_000)]
        cache = PredicateCache()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            cache.resolve(1, keys, lambda missing: [True] * len(missing))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.entries(1) == 100_000
        # A plain dict is 52 B per entry; an OrderedDict was 105.
        assert (after - before) / 100_000 <= 60
