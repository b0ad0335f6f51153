"""Unit tests: the Database assembly and workload SQL construction."""

import pytest

from repro.bench.workloads import WORKLOADS, build_all, build_workload
from repro.database import Database


class TestDatabase:
    def test_empty_database(self):
        db = Database.empty()
        assert db.catalog.table_names() == []
        assert db.meter.charged == 0.0
        assert db.pool.capacity_pages == 64

    def test_size_of_empty_is_zero(self):
        assert Database.empty().size_bytes() == 0

    def test_size_counts_heap_and_indexes(self, db):
        page_size = db.params.page_size
        with_indexes = db.catalog.total_bytes(page_size, include_indexes=True)
        without = db.catalog.total_bytes(page_size, include_indexes=False)
        assert with_indexes > without > 0
        assert db.size_megabytes() == pytest.approx(
            with_indexes / (1024 * 1024)
        )

    def test_meter_and_pool_shared(self, fresh_db):
        from repro.storage.meter import IOKind

        fresh_db.pool.fetch(0, 1, IOKind.RANDOM)
        assert fresh_db.meter.random_ios == 1
        fresh_db.meter.reset()
        fresh_db.pool.clear()


class TestWorkloads:
    def test_all_workloads_build(self, db):
        workloads = build_all(db)
        assert set(workloads) == set(WORKLOADS)
        for workload in workloads.values():
            assert workload.query.tables
            assert workload.sql
            assert workload.diagnostic

    def test_workload_sql_parses_to_its_query(self, db):
        for key in WORKLOADS:
            workload = build_workload(db, key)
            assert set(workload.query.tables) <= set(db.catalog.table_names())

    def test_only_q5_has_budget(self, db):
        workloads = build_all(db)
        assert workloads["q5"].budget is not None
        for key, workload in workloads.items():
            if key != "q5":
                assert workload.budget is None

    def test_ensure_functions_idempotent(self, db):
        from repro.bench.workloads import ensure_workload_functions

        ensure_workload_functions(db)
        ensure_workload_functions(db)  # no DuplicateNameError

    def test_q4_threshold_scales_with_stats(self, db):
        workload = build_workload(db, "q4")
        stats = db.catalog.table("t10").stats.attribute("a20")
        threshold = stats.low + max(1, round(0.1 * stats.width))
        assert f"t10.a20 < {threshold}" in workload.sql
