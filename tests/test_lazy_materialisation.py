"""The laziness contract: ``build_database`` registers, first reads build.

Table data = f(seed, name), realised on first read. Planning reads only
declared statistics and index names, so it builds nothing; an execution
builds exactly the heaps and B-trees its plan reads; building charges
nothing, leaves the buffer pool alone, and gives the same bytes whatever
was built before it.
"""

import copy
import gc
import runpy
import tracemalloc
from collections.abc import Sized
from pathlib import Path

import pytest

from repro import (
    Executor,
    Tracer,
    build_database,
    compile_query,
    explain,
    optimize,
)
from repro.__main__ import main
from repro.bench.workloads import WORKLOADS, build_workload
from repro.catalog import RelationSchema, TableEntry
from repro.catalog.statistics import measured_stats
from repro.database import Database
from repro.errors import OptimizerError
from repro.exec import materialise_plan
from repro.obs import PhaseProfiler
from repro.optimizer.optimizer import STRATEGIES
from repro.plan.nodes import Join, JoinMethod, Scan
from repro.storage import BTree, HeapFile
from repro.storage.meter import IOKind

SCALE = 20
EVERYTHING = (float("-inf"), float("inf"))


def built_tables(db):
    return {entry.name for entry in db.catalog if entry.heap_built}


def built_indexes(db):
    return {
        (entry.name, attribute)
        for entry in db.catalog
        for attribute in entry.indexes.built()
    }


def indexes_named_by(plan):
    """Index scans and index nested-loop joins, read off the plan tree."""
    named = set()
    for node in plan.root.walk():
        if isinstance(node, Scan) and node.index_attr is not None:
            named.add((node.table, node.index_attr))
        if isinstance(node, Join) and node.method is JoinMethod.INDEX_NESTED_LOOP:
            _, inner = node.join_columns()
            named.add((inner.table, inner.attribute))
    return named


def run(db, key, strategy="migration", executor="vector", **kwargs):
    workload = build_workload(db, key)
    optimized = optimize(db, workload.query, strategy)
    result = Executor(
        db, budget=workload.budget, executor=executor, **kwargs
    ).execute(optimized.plan)
    return optimized.plan, result


class TestNothingIsBuiltEarly:
    def test_build_database_generates_nothing(self):
        db = build_database(scale=SCALE, seed=7)
        assert db.materialised == []
        assert built_tables(db) == set() and built_indexes(db) == set()

    def test_planning_every_workload_under_every_strategy(self):
        db = build_database(scale=SCALE, seed=7)
        assert len(STRATEGIES) == 7
        for key in WORKLOADS:
            sql = build_workload(db, key).sql
            for strategy in STRATEGIES:
                query = compile_query(db, sql)
                try:
                    optimized = optimize(db, query, strategy)
                except OptimizerError:
                    continue  # ldl-ikkbz refuses q5's expensive join
                assert explain(optimized.plan)
        assert db.materialised == []
        assert built_tables(db) == set() and built_indexes(db) == set()

    def test_catalog_questions_are_answered_from_declarations(self):
        db = build_database(scale=SCALE, seed=7)
        t3 = db.catalog.table("t3")
        assert t3.has_index("a1") and not t3.has_index("ua1")
        assert "a20" in t3.indexes and "u20" not in t3.indexes
        assert len(t3.indexes) == 3
        assert list(t3.indexes) == ["a1", "a20", "a100"]
        assert (t3.cardinality, t3.pages) == (3 * SCALE, 1)
        assert db.size_megabytes() > 0
        assert db.materialised == []

    def test_declared_sizes_equal_built_sizes(self):
        db = build_database(scale=SCALE, seed=7)
        declared = db.size_bytes()
        for entry in db.catalog:
            for attribute in entry.indexes:
                assert entry.indexes.pages(attribute) == entry.index(
                    attribute
                ).pages
            assert entry.heap.pages == entry.pages
        assert db.size_bytes() == declared
        assert len(db.materialised) == 10 + 30


class TestExecutionBuildsWhatThePlanReads:
    @pytest.mark.parametrize("executor", ["row", "vector"])
    def test_q1_reads_t3_and_t10(self, executor):
        db = build_database(scale=SCALE, seed=7)
        plan, result = run(db, "q1", executor=executor)
        assert result.completed
        assert built_tables(db) == {"t3", "t10"}
        assert built_indexes(db) == indexes_named_by(plan)

    @pytest.mark.parametrize("executor", ["row", "vector"])
    @pytest.mark.parametrize("strategy", ["pushdown", "migration", "pullup"])
    @pytest.mark.parametrize("key", sorted(WORKLOADS))
    def test_built_set_is_the_plans(self, key, strategy, executor):
        db = build_database(scale=SCALE, seed=11)
        plan, _ = run(db, key, strategy, executor)
        assert built_tables(db) == set(plan.root.tables())
        assert built_indexes(db) == indexes_named_by(plan)

    def test_some_workload_does_use_an_index(self):
        """Else the index half of the test above would be vacuous."""
        db = build_database(scale=SCALE, seed=11)
        used = set()
        for key in WORKLOADS:
            workload = build_workload(db, key)
            for strategy in ("pushdown", "migration", "pullup"):
                used |= indexes_named_by(
                    optimize(db, workload.query, strategy).plan
                )
        assert used

    def test_materialise_plan_leaves_nothing_for_operator_build(self):
        db = build_database(scale=SCALE, seed=11)
        for key in WORKLOADS:
            workload = build_workload(db, key)
            plan = optimize(db, workload.query, "pushdown").plan
            materialise_plan(db, plan)
            before = list(db.materialised)
            assert materialise_plan(db, plan) == []
            Executor(db, budget=workload.budget).execute(plan)
            assert db.materialised == before


class TestOrderIndependence:
    def snapshot(self, db):
        plan, result = run(db, "q1", executor="row")
        tables = {}
        for name in ("t3", "t10"):
            entry = db.catalog.table(name)
            tables[name] = (
                entry.heap.all_rows(),
                {
                    attribute: list(
                        entry.index(attribute).range_entries(*EVERYTHING)
                    )
                    for attribute in entry.indexes
                },
            )
        return tables, sorted(result.rows), result.charged, result.metrics

    def test_touch_order_changes_nothing(self):
        first = build_database(scale=SCALE, seed=42)
        first.catalog.table("t10").index("a1")
        first.catalog.table("t3").heap
        second = build_database(scale=SCALE, seed=42)
        second.catalog.table("t3").index("a100")
        second.catalog.table("t7").heap  # a bystander built in between
        second.catalog.table("t10").heap
        untouched = build_database(scale=SCALE, seed=42)
        assert (
            self.snapshot(first)
            == self.snapshot(second)
            == self.snapshot(untouched)
        )


class TestFootprint:
    """A read pays for the rows it reads: no RID per tuple until a B-tree
    wants them, and one int object per value of the table."""

    def test_bytes_per_tuple_of_a_heap_read(self):
        """Allocation counts, so the same on every run (the eager RID list
        and per-column ints read 244 resident / 320 peak)."""
        entry = build_database(scale=1000, seed=42).catalog.table("t10")
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            entry.heap
            resident, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (resident - before) / entry.cardinality <= 170
        assert (peak - before) / entry.cardinality <= 250

    def test_a_generated_table_keeps_no_rids(self):
        entry = build_database(scale=SCALE, seed=42).catalog.table("t10")
        entry.heap
        assert not [
            name for name, value in vars(entry.source).items()
            if isinstance(value, Sized) and len(value) >= entry.cardinality
        ]

    def test_equal_values_of_a_table_are_one_object(self):
        # Scale 100: values up to 999, past CPython's shared small ints.
        rows = build_database(scale=100).catalog.table("t10").heap.all_rows()
        objects = {row[0]: row[0] for row in rows}
        assert len(objects) == len(rows)
        assert all(value is objects[value] for row in rows for value in row)

    def test_an_index_read_later_is_the_tree_built_with_the_heap(self):
        db = build_database(scale=SCALE, seed=42)
        entry = db.catalog.table("t10")
        rows = entry.heap.all_rows()
        run(db, "q1")  # time passes; nothing held the RIDs meanwhile
        scratch = Database.empty()
        heap = HeapFile("t10", entry.schema.tuple_width, scratch.pool)
        rids = [heap.insert(row) for row in rows]
        for attribute in entry.indexes:
            position = entry.schema.position(attribute)
            eager = BTree(f"t10_{attribute}", scratch.pool)
            eager.bulk_load(
                [(row[position], rid) for row, rid in zip(rows, rids)]
            )
            index = entry.index(attribute)
            assert (index.entries, index.height, index.pages) == (
                eager.entries, eager.height, eager.pages
            )
            assert list(index.range_entries(*EVERYTHING)) == list(
                eager.range_entries(*EVERYTHING)
            )
            assert index.range_search(3, 5) == eager.range_search(3, 5)
            index.check_invariants()


class TestBuildingIsInvisibleToTheMeter:
    def test_mid_run_materialisation(self):
        db = build_database(scale=SCALE, seed=7)
        # A metered run in progress: part of t3 read, pool partly filled.
        for _ in db.catalog.table("t3").heap.scan():
            pass
        db.catalog.table("t3").index("a1").search(5)
        db.pool.fetch(99, 0, IOKind.RANDOM)
        meter = db.meter.snapshot()
        assert meter["seq_ios"] > 0 and meter["random_ios"] > 0
        stats = copy.copy(db.pool.stats)
        lru = list(db.pool._lru)

        t10 = db.catalog.table("t10")
        assert t10.heap.cardinality == 10 * SCALE
        assert t10.index("a1").entries == 10 * SCALE
        assert t10.index("a20").height >= 1

        assert db.meter.snapshot() == meter
        assert db.meter.charged == sum(
            meter[part]
            for part in ("io_charged", "cpu_charged", "function_charged")
        )
        assert db.pool.stats == stats
        assert db.pool.cached_pages == len(lru)
        assert list(db.pool._lru) == lru

    @pytest.mark.parametrize("executor", ["row", "vector"])
    def test_cold_and_warm_executions_charge_alike(self, executor):
        db = build_database(scale=SCALE, seed=7)
        _, cold = run(db, "q4", executor=executor)
        _, warm = run(db, "q4", executor=executor)
        assert cold.metrics == warm.metrics
        assert cold.charged == warm.charged
        assert sorted(cold.rows) == sorted(warm.rows)


class TestManualRegistration:
    def build(self):
        db = Database.empty()
        schema = RelationSchema.from_names("t1", ["a1", "ua20"])
        rows = [(i, i % 3) for i in range(50)]
        page_size = db.params.page_size
        heap = HeapFile("t1", schema.tuple_width, db.pool, page_size=page_size)
        heap.bulk_load(rows)
        index = BTree("t1_a1", db.pool, page_size=page_size)
        index.bulk_load(
            [(row[0], rid) for row, rid in zip(rows, heap.rids())]
        )
        return db, schema, rows, heap, index

    def test_prebuilt_heap_and_indexes(self):
        db, schema, rows, heap, index = self.build()
        entry = db.catalog.register_table(TableEntry(
            schema=schema,
            stats=measured_stats(schema, rows, db.params.page_size),
            heap=heap,
            indexes={"a1": index},
        ))
        assert entry.heap is heap and entry.heap_built
        assert entry.index("a1") is index and entry.indexes.built() == ["a1"]
        assert db.size_bytes() == (heap.pages + index.pages) * 8192
        query = compile_query(db, "SELECT * FROM t1 WHERE t1.a1 < 10")
        result = Executor(db).execute(optimize(db, query, "pushdown").plan)
        assert sorted(result.rows) == rows[:10]
        assert db.materialised == []

    def test_index_assigned_after_construction(self):
        db, schema, rows, heap, index = self.build()
        entry = TableEntry(
            schema=schema,
            stats=measured_stats(schema, rows, db.params.page_size),
            heap=heap,
        )
        assert not entry.has_index("a1") and len(entry.indexes) == 0
        entry.indexes["a1"] = index
        assert entry.has_index("a1") and entry.index("a1") is index

    def test_heapless_entry_sizes_with_the_databases_page_size(self):
        db = Database.empty()
        schema = RelationSchema.from_names("t1", ["a1"])
        stats = measured_stats(schema, [(i,) for i in range(500)], 1024)
        db.catalog.register_table(TableEntry(schema=schema, stats=stats))
        assert db.catalog.total_bytes(1024) == stats.pages * 1024
        assert db.catalog.table("t1").heap is None

    def test_beard_colors_example(self, capsys):
        example = Path(__file__).parent.parent / "examples" / "beard_colors.py"
        runpy.run_path(str(example), run_name="__main__")
        assert "students found" in capsys.readouterr().out


class TestTheMovedTimeIsVisible:
    def test_records_name_rows_and_time(self):
        db = build_database(scale=SCALE, seed=7)
        db.catalog.table("t2").index("a20")
        names = [(m.name, m.rows) for m in db.materialised]
        assert names == [("t2", 2 * SCALE), ("t2.a20", 2 * SCALE)]
        assert all(m.ms > 0 for m in db.materialised)

    def test_span_and_phase_on_the_first_execution_only(self):
        db = build_database(scale=SCALE, seed=7)
        tracer, profiler = Tracer(), PhaseProfiler()
        run(db, "q1", tracer=tracer, profiler=profiler)
        run(db, "q1", tracer=tracer, profiler=profiler)
        first, second = tracer.find("datagen.materialize")
        assert sorted(first.attrs["built"]) == ["t10", "t3"]
        assert second.attrs["built"] == []
        # Before the execute span and the executor's own clock start, so
        # wall_seconds and the exec.* phases time execution only.
        assert first.parent_id is None
        assert first.end <= tracer.find("execute")[0].start
        assert profiler.stat("datagen.materialize").count == 2

    def test_cli_prints_one_materialised_line(self, capsys):
        code = main([
            "--workload", "q1", "--scale", str(SCALE), "--stats",
            "--explain-analyze",
        ])
        out = capsys.readouterr().out
        assert code == 0
        (line,) = [l for l in out.splitlines() if "materialised:" in l]
        assert "t3 (60 rows" in line and "t10 (200 rows" in line

    def test_cli_plain_run_prints_none(self, capsys):
        assert main(["--workload", "q1", "--scale", str(SCALE)]) == 0
        assert "materialised" not in capsys.readouterr().out
