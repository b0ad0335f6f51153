"""Differential property suite: the vector executor is the row
executor's semantic twin.

Every workload × strategy × data seed must produce the identical row
multiset under ``executor="row"`` and ``executor="vector"``, with the
same completion verdict and — for completed runs — the same charged
totals and cache statistics (under the default unbounded cache, whose
hit/miss history is evaluation-order independent in totals). The chaos
invariants must also survive batching: lossy containment policies keep
their subset/superset relationship to the fault-free oracle.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro import Executor, build_database, compile_query, optimize
from repro.bench.harness import DEFAULT_STRATEGIES
from repro.bench.workloads import build_workload, ensure_workload_functions
from repro.errors import ExecutionError
from repro.exec import FailurePolicy
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs.artifacts import plan_fingerprint
from repro.obs.feedback import FeedbackCollector
from repro.obs.runtime_telemetry import RuntimeMonitor
from repro.storage.columnar import DEFAULT_BATCH_ROWS

QUERY_WORKLOADS = ("q1", "q2", "q3", "q4", "q5")
SEEDS = (7, 11, 13)
SCALE = 12


def _databases():
    """One database per seed, shared across the parametrized tests."""
    databases = {}
    for seed in SEEDS:
        db = build_database(scale=SCALE, seed=seed)
        ensure_workload_functions(db)
        databases[seed] = db
    return databases


_DATABASES = _databases()


def _run(db, plan, budget, executor, **kwargs):
    return Executor(
        db, budget=budget, executor=executor, **kwargs
    ).execute(plan)


class TestRowVectorEquivalence:
    @pytest.mark.parametrize("workload_key", QUERY_WORKLOADS)
    @pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
    def test_identical_multisets_all_seeds(self, workload_key, strategy):
        for seed in SEEDS:
            db = _DATABASES[seed]
            workload = build_workload(db, workload_key)
            plan = optimize(
                db, workload.query, strategy=strategy
            ).plan
            row = _run(db, plan, workload.budget, "row")
            vector = _run(db, plan, workload.budget, "vector")
            label = f"{workload_key}/{strategy}/seed={seed}"
            assert vector.completed == row.completed, label
            assert Counter(vector.rows) == Counter(row.rows), label
            if row.completed:
                assert vector.charged == pytest.approx(row.charged), label
                for metric in (
                    "io_charged",
                    "function_charged",
                    "function_calls",
                    "cpu_charged",
                ):
                    assert vector.metrics[metric] == pytest.approx(
                        row.metrics[metric]
                    ), f"{label}:{metric}"

    @pytest.mark.parametrize("caching_kwargs", [
        {"caching": True},
        {"caching": True, "cache_mode": "function"},
    ])
    def test_cached_runs_match(self, caching_kwargs):
        db = _DATABASES[7]
        workload = build_workload(db, "q4")
        plan = optimize(
            db, workload.query, strategy="migration", caching=True
        ).plan
        row = _run(db, plan, workload.budget, "row", **caching_kwargs)
        vector = _run(db, plan, workload.budget, "vector", **caching_kwargs)
        assert Counter(vector.rows) == Counter(row.rows)
        assert vector.charged == pytest.approx(row.charged)
        if row.cache_stats is not None:
            assert vector.cache_stats.hits == row.cache_stats.hits
            assert vector.cache_stats.misses == row.cache_stats.misses

    def test_odd_batch_sizes_change_nothing(self):
        db = _DATABASES[11]
        workload = build_workload(db, "q5")
        plan = optimize(db, workload.query, strategy="pushdown").plan
        reference = _run(db, plan, workload.budget, "row")
        for batch_rows in (1, 7, 64, 100_000):
            vector = Executor(
                db,
                budget=workload.budget,
                executor="vector",
                batch_rows=batch_rows,
            ).execute(plan)
            assert Counter(vector.rows) == Counter(reference.rows), batch_rows
            assert vector.charged == pytest.approx(reference.charged)

    def test_unknown_executor_rejected(self):
        db = _DATABASES[7]
        with pytest.raises(ExecutionError) as excinfo:
            Executor(db, executor="warp")
        assert "row" in str(excinfo.value)
        assert "vector" in str(excinfo.value)


class TestExpensivePrimaryJoin:
    """Query 5's nested loop over ``expjoin10``: the vector engine takes
    the function's curried pair form when nothing needs to see a call
    one at a time, and the generic ``evaluate_bindings`` path otherwise;
    rows, charges and counts are the row engine's either way."""

    #: q5 as the workloads define it (the inner table's column is the
    #: first argument) and its twin with the arguments swapped.
    ARGUMENTS = {0: "t7.ua1, t3.ua1", 1: "t3.ua1, t7.ua1"}

    @pytest.fixture(scope="class")
    def db(self):
        # The smallest round scale at which the expensive selection on
        # t3 keeps any row (below it expjoin10 is never called).
        db = build_database(scale=100, seed=42)
        ensure_workload_functions(db)
        return db

    @pytest.fixture
    def pair_positions(self, db, monkeypatch):
        """Argument positions at which the pair form was prepared."""
        fn = db.catalog.functions.get("expjoin10").fn
        prepared = []

        def spy(inner, position, pairs=fn.pairs):
            prepared.append(position)
            return pairs(inner, position)

        monkeypatch.setattr(fn, "pairs", spy)
        return prepared

    def _plan(self, db, position=0, strategy="migration", caching=False):
        workload = build_workload(db, "q5")
        sql = workload.sql.replace(self.ARGUMENTS[0], self.ARGUMENTS[position])
        assert self.ARGUMENTS[position] in sql
        query = compile_query(db, sql, name=f"q5/{position}")
        plan = optimize(db, query, strategy=strategy, caching=caching).plan
        return plan, workload.budget

    def _calls(self, db):
        functions = db.catalog.functions
        return {name: functions.get(name).calls for name in functions.names()}

    @pytest.mark.parametrize("batch_rows", [7, DEFAULT_BATCH_ROWS])
    @pytest.mark.parametrize("position", [0, 1])
    def test_pair_form_matches_row_engine(
        self, db, pair_positions, position, batch_rows
    ):
        plan, budget = self._plan(db, position)
        row = _run(db, plan, budget, "row")
        row_calls = self._calls(db)
        assert row.completed and row.rows
        assert not pair_positions
        vector = _run(db, plan, budget, "vector", batch_rows=batch_rows)
        assert pair_positions == [position]
        assert vector.completed
        assert Counter(vector.rows) == Counter(row.rows)
        assert vector.charged == pytest.approx(row.charged)
        assert vector.metrics["function_calls"] == row.metrics["function_calls"]
        assert self._calls(db) == row_calls
        assert row_calls["expjoin10"] > 1000

    @contextmanager
    def _pair_form(self, db, present):
        """``present=False``: the engine path of the parent commit."""
        fn = db.catalog.functions.get("expjoin10").fn
        pairs = fn.pairs
        if not present:
            del fn.pairs
        try:
            yield
        finally:
            fn.pairs = pairs

    def test_collector_sees_every_call(self, db, pair_positions):
        plan, budget = self._plan(db)
        observed = []
        for executor, present in (
            ("vector", True), ("vector", False), ("row", True)
        ):
            collector = FeedbackCollector()
            with self._pair_form(db, present):
                _run(db, plan, budget, executor, collector=collector)
            observed.append([o.as_dict() for o in collector.observations()])
        assert not pair_positions
        assert observed[0] == observed[1] == observed[2]
        assert any("expjoin10" in o["predicate"] for o in observed[0])

    def test_monitor_sees_every_call(self, db, pair_positions):
        plan, budget = self._plan(db)
        reports = []
        for present in (True, False):
            monitor = RuntimeMonitor()
            with self._pair_form(db, present):
                result = _run(db, plan, budget, "vector", monitor=monitor)
            telemetry = [
                (p.predicate, p.evaluated, p.passed, p.cost.count)
                for p in monitor.predicates.values()
            ]
            reports.append((result.resources, telemetry))
        assert not pair_positions
        assert reports[0] == reports[1]
        assert reports[0][0].udf_calls > 1000

    def test_predicate_cache_sees_every_binding(self, db, pair_positions):
        plan, budget = self._plan(db, caching=True)
        stats = []
        for executor, present in (
            ("vector", True), ("vector", False), ("row", True)
        ):
            with self._pair_form(db, present):
                r = _run(db, plan, budget, executor, caching=True)
            stats.append((
                r.cache_stats.hits, r.cache_stats.misses, r.cache_entries,
                r.charged, Counter(r.rows),
            ))
        assert not pair_positions
        assert stats[0] == stats[1] == stats[2]
        assert stats[0][1] > 1000

    def test_containment_and_faults_see_every_call(self, db, pair_positions):
        plan, budget = self._plan(db)
        oracle = Counter(_run(db, plan, budget, "row").rows)
        specs = (
            FaultSpec("expjoin10", "error", first_call=50, failures=2),
            FaultSpec("expjoin10", "latency", first_call=7, every=100,
                      latency_units=2.0),
        )
        outcomes = []
        for executor in ("vector", "row"):
            injector = FaultInjector(FaultPlan(seed=0, specs=specs))
            with injector.install(db.catalog):
                result = _run(
                    db, plan, budget, executor,
                    failure_policy=FailurePolicy(retries=2),
                    clock=injector.clock,
                )
            outcomes.append((
                result.quarantine.as_dict(), result.charged,
                Counter(result.rows), injector.stats, self._calls(db),
            ))
        assert not pair_positions
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0]["recovered"] == 1
        assert outcomes[0][2] == oracle
        # Containment alone (no fault, forms intact) is per-tuple too.
        contained = _run(
            db, plan, budget, "vector", failure_policy=FailurePolicy()
        )
        assert not pair_positions
        assert Counter(contained.rows) == oracle

    def test_injected_fault_strips_the_forms(self, db, pair_positions):
        """No containment policy, so the runner is built and would take
        the pair form — but the injector replaced ``fn``. The schedule
        fires on the same 1-based call index on both engines."""
        plan, budget = self._plan(db)
        specs = (
            FaultSpec("expjoin10", "error", first_call=321, transient=False),
        )
        errors = []
        for executor in ("vector", "row"):
            with FaultInjector(FaultPlan(seed=0, specs=specs)).install(
                db.catalog
            ):
                result = _run(db, plan, budget, executor)
            assert not result.completed
            errors.append(result.error)
        assert not pair_positions
        assert errors[0] == errors[1]
        assert "call #321" in errors[0]


class TestBatchBuilderDrain:
    """Join output re-chunking: full batches in arrival order, the
    remainder left pending, ``rows`` mutated in place (joins alias it)."""

    def test_batches_order_remainder_and_single_front_deletion(self):
        from repro.exec.vector import _BatchBuilder
        from repro.expr.expressions import Scope

        class Rows(list):
            deletions = 0

            def __delitem__(self, index):
                type(self).deletions += 1
                super().__delitem__(index)

        builder = _BatchBuilder(Scope([("t", "a")]), batch_rows=4)
        pending = builder.rows = Rows((i,) for i in range(14))
        batches = list(builder.drain())
        assert [list(b.iter_rows()) for b in batches] == [
            [(0,), (1,), (2,), (3,)],
            [(4,), (5,), (6,), (7,)],
            [(8,), (9,), (10,), (11,)],
        ]
        assert builder.rows is pending and pending == [(12,), (13,)]
        # One deletion per emitted batch shifts every pending row each
        # time: quadratic when one outer batch joins to many rows.
        assert Rows.deletions == 1
        pending.append((14,))
        assert list(builder.drain()) == []
        assert pending == [(12,), (13,), (14,)]
        assert [list(b.iter_rows()) for b in builder.flush()] == [
            [(12,), (13,), (14,)]
        ]
        assert pending == []


class TestRowPathNeutrality:
    def test_vector_runs_leave_plans_untouched(self):
        """Running the vector executor must not perturb the catalog or
        statistics the planner reads: fingerprints before and after a
        vector run are byte-identical."""
        db = _DATABASES[13]
        workload = build_workload(db, "q4")
        before = plan_fingerprint(
            optimize(db, workload.query, strategy="migration").plan
        )
        plan = optimize(db, workload.query, strategy="migration").plan
        _run(db, plan, workload.budget, "vector")
        after = plan_fingerprint(
            optimize(
                db, build_workload(db, "q4").query, strategy="migration"
            ).plan
        )
        assert before == after


class TestChaosUnderBatching:
    """Containment's lossy policies keep their oracle relationship when
    predicate evaluation happens batch-at-a-time."""

    @pytest.mark.parametrize("policy,allowed", [
        ("skip-row", {"equal", "subset"}),
        ("assume-fail", {"equal", "subset"}),
        ("assume-pass", {"equal", "superset"}),
    ])
    def test_policy_relation_survives_batching(self, policy, allowed):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            "q1",
            seeds=(7,),
            strategies=("pushdown", "migration"),
            policy=policy,
            scale=4,
            executor="vector",
        )
        assert report.passed, report.violations
        assert report.executor == "vector"
        for outcome in report.outcomes:
            if outcome.completed:
                assert outcome.rows_vs_oracle in allowed, (
                    policy,
                    outcome.strategy,
                    outcome.rows_vs_oracle,
                )

    def test_chaos_vector_matches_row_report_shape(self):
        from repro.faults.chaos import run_chaos

        row_report = run_chaos(
            "q2", seeds=(11,), strategies=("pushdown",), scale=4,
            executor="row",
        )
        vector_report = run_chaos(
            "q2", seeds=(11,), strategies=("pushdown",), scale=4,
            executor="vector",
        )
        assert row_report.passed and vector_report.passed
        pairs = zip(row_report.outcomes, vector_report.outcomes)
        for row_outcome, vector_outcome in pairs:
            assert (
                vector_outcome.rows_vs_oracle == row_outcome.rows_vs_oracle
            )
            assert vector_outcome.row_count == row_outcome.row_count
