"""Tests for the metrics registry (repro.obs.metrics)."""

from repro import Executor, compile_query, optimize
from repro.obs import MetricsRegistry, record_run

SQL = (
    "SELECT * FROM t3, t10 "
    "WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)"
)


class TestRegistry:
    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("level", 1.0)
        registry.gauge("level", 7.0)
        assert registry.snapshot()["level"] == 7.0

    def test_snapshot_is_flat_and_complete(self):
        registry = MetricsRegistry()
        registry.gauge("plan.cost", 1.0)
        registry.gauge("exec.rows", 2.0)
        assert registry.snapshot() == {"plan.cost": 1.0, "exec.rows": 2.0}


class TestRecordRun:
    def test_uniform_names_mirror_run_attributes(self, db):
        query = compile_query(db, SQL, name="metrics-test")
        optimized = optimize(db, query, strategy="pushdown")
        result = Executor(db).execute(optimized.plan)

        snapshot = record_run(
            MetricsRegistry(), optimized, result
        ).snapshot()

        assert snapshot["plan.wall_seconds"] == optimized.planning_seconds
        assert snapshot["exec.wall_seconds"] == result.wall_seconds
        assert snapshot["exec.rows"] == result.row_count
        assert snapshot["exec.completed"] == 1.0
        assert snapshot["exec.charged"] == result.charged
        # every optimizer note lands under plan.*
        assert snapshot["plan.subplans_enumerated"] >= 1
        assert "plan.subplans_pruned" in snapshot
        # the original attributes are untouched
        assert optimized.planning_seconds == snapshot["plan.wall_seconds"]

    def test_cache_stats_recorded_when_caching(self, db):
        query = compile_query(db, SQL, name="metrics-cache")
        optimized = optimize(db, query, strategy="pushdown", caching=True)
        result = Executor(db, caching=True).execute(optimized.plan)

        snapshot = record_run(
            MetricsRegistry(), optimized, result
        ).snapshot()
        assert "exec.cache_hits" in snapshot
        assert "exec.cache_misses" in snapshot

    def test_partial_record_plan_only(self, db):
        query = compile_query(db, SQL, name="metrics-partial")
        optimized = optimize(db, query, strategy="pushdown")
        snapshot = record_run(MetricsRegistry(), optimized).snapshot()
        assert "plan.wall_seconds" in snapshot
        assert not any(name.startswith("exec.") for name in snapshot)
