"""Tests for executor UDF failure containment (retries, policies,
quarantine) driven end-to-end through injected faults."""

import pytest

from repro.bench.workloads import build_workload
from repro.catalog.datagen import build_database
from repro.errors import ExecutionError
from repro.exec import EXECUTORS, Executor, FailurePolicy
from repro.exec.containment import (
    EXHAUSTION_POLICIES,
    ContainmentState,
    QuarantineReport,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.obs import Tracer
from repro.optimizer import optimize


def q1_setup(scale=5):
    db = build_database(scale=scale, seed=42)
    workload = build_workload(db, "q1")
    optimized = optimize(db, workload.query, strategy="pushdown")
    return db, optimized.plan


def run_with_faults(db, plan, specs, policy, clock=None, executor="row"):
    fault_plan = FaultPlan(seed=0, specs=tuple(specs))
    injector = FaultInjector(fault_plan)
    with injector.install(db.catalog):
        runner = Executor(
            db,
            failure_policy=policy,
            clock=injector.clock,
            executor=executor,
        )
        return runner.execute(plan), injector


class TestFailurePolicy:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ExecutionError) as exc_info:
            FailurePolicy(on_exhausted="explode")
        for name in EXHAUSTION_POLICIES:
            assert name in str(exc_info.value)

    def test_negative_retries_rejected(self):
        with pytest.raises(ExecutionError):
            FailurePolicy(retries=-1)

    def test_backoff_units_grow_exponentially(self):
        policy = FailurePolicy(backoff_base=1.0, backoff_multiplier=2.0)
        assert [policy.backoff_units(a) for a in range(3)] == [
            1.0, 2.0, 4.0,
        ]


class TestRetryRecovery:
    def test_transient_fault_within_retries_recovers_exactly(self):
        db, plan = q1_setup()
        oracle = sorted(Executor(db).execute(plan).rows)
        specs = [
            FaultSpec(
                "costly100", "error", first_call=3, failures=2,
                transient=True,
            )
        ]
        result, _ = run_with_faults(
            db, plan, specs, FailurePolicy(retries=2)
        )
        assert result.completed
        assert sorted(result.rows) == oracle
        assert result.quarantine is not None
        assert result.quarantine.quarantined == 0
        assert result.quarantine.retries == 2
        assert result.quarantine.recovered == 1
        assert result.metrics["udf.retries"] == 2.0
        # Backoff: 1.0 for attempt 0 plus 2.0 for attempt 1.
        assert result.metrics["udf.backoff_units"] == 3.0

    def test_retry_ignores_transient_flag_on_permanent_faults(self):
        # Real systems cannot see fault metadata: permanent faults still
        # burn the whole retry budget before the policy applies.
        db, plan = q1_setup()
        specs = [
            FaultSpec(
                "costly100", "error", first_call=1, transient=False
            )
        ]
        result, _ = run_with_faults(
            db, plan, specs, FailurePolicy(retries=3, on_exhausted="skip-row")
        )
        assert result.completed
        assert result.quarantine.retries >= 3


class TestExhaustionPolicies:
    def setup_method(self):
        self.db, self.plan = q1_setup()
        self.oracle = sorted(Executor(self.db).execute(self.plan).rows)
        self.permanent = [
            FaultSpec(
                "costly100", "error", first_call=4, transient=False
            )
        ]

    def test_abort_surfaces_structured_dnf(self):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=1, on_exhausted="abort"),
        )
        assert not result.completed
        assert result.error.startswith("udf:")
        assert "costly100" in result.error

    def test_skip_row_yields_subset(self):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=1, on_exhausted="skip-row"),
        )
        assert result.completed
        assert result.error == ""
        assert result.quarantine.quarantined > 0
        oracle = set(self.oracle)
        assert all(row in oracle for row in result.rows)
        assert result.degraded

    def test_assume_fail_matches_skip_row_rows(self):
        skip, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=1, on_exhausted="skip-row"),
        )
        assume, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=1, on_exhausted="assume-fail"),
        )
        assert sorted(skip.rows) == sorted(assume.rows)

    def test_assume_pass_yields_superset(self):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=1, on_exhausted="assume-pass"),
        )
        assert result.completed
        assert result.quarantine.quarantined > 0
        rows = sorted(result.rows)
        assert len(rows) >= len(self.oracle)
        remaining = list(rows)
        for row in self.oracle:
            assert row in remaining
            remaining.remove(row)

    def test_quarantine_entries_name_function_and_predicate(self):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=0, on_exhausted="skip-row"),
        )
        entry = result.quarantine.entries[0]
        assert entry.function == "costly100"
        assert "costly100" in entry.predicate
        assert entry.action == "skip-row"
        assert entry.attempts == 1
        assert entry.row_preview

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_row_preview_is_the_binding_the_udf_saw(self, executor):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=0, on_exhausted="skip-row"),
            executor=executor,
        )
        entry = result.quarantine.entries[0]
        # The preview is the binding the UDF saw — ``costly100(t10.u20)``
        # failed from its fourth call, on the fourth t10 row's ``u20`` —
        # not a prefix of the composite row.
        t10 = self.db.catalog.table("t10")
        slot = t10.schema.attribute_names.index("u20")
        fourth = list(t10.heap.all_rows())[3]
        assert entry.row_preview == repr((fourth[slot],))

    def test_quarantine_report_serialises(self):
        result, _ = run_with_faults(
            self.db, self.plan, self.permanent,
            FailurePolicy(retries=0, on_exhausted="skip-row"),
        )
        data = result.quarantine.as_dict()
        assert data["quarantined"] == result.quarantine.quarantined
        assert isinstance(data["entries"], list)

    def test_no_policy_means_no_containment(self):
        fault_plan = FaultPlan(seed=0, specs=tuple(self.permanent))
        with FaultInjector(fault_plan).install(self.db.catalog):
            result = Executor(self.db).execute(self.plan)
        # Without a FailurePolicy the executor still converts the escape
        # into a structured DNF (never a traceback), with no quarantine.
        assert not result.completed
        assert result.error.startswith("udf:")
        assert result.quarantine is None


class TestContainmentEvents:
    def test_retry_and_quarantine_emit_trace_events(self):
        db, plan = q1_setup()
        tracer = Tracer()
        fault_plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    "costly100", "error", first_call=2, transient=False
                ),
            ),
        )
        injector = FaultInjector(fault_plan)
        with injector.install(db.catalog):
            executor = Executor(
                db,
                failure_policy=FailurePolicy(
                    retries=1, on_exhausted="skip-row"
                ),
                clock=injector.clock,
                tracer=tracer,
            )
            executor.execute(plan)
        events = [
            event["name"]
            for span in tracer.spans
            for event in span.events
        ]
        assert "udf.retry" in events
        assert "udf.quarantine" in events

    def test_metrics_include_latency_from_shared_clock(self):
        db, plan = q1_setup()
        specs = [
            FaultSpec(
                "costly100", "latency", first_call=1, every=1,
                latency_units=2.0,
            )
        ]
        result, injector = run_with_faults(
            db, plan, specs, FailurePolicy(retries=0)
        )
        assert result.completed
        assert (
            result.metrics["udf.latency_units"]
            == injector.clock.latency_units
            > 0
        )


class TestQuarantineCap:
    def test_entries_bounded_but_count_accurate(self, monkeypatch):
        import repro.exec.containment as containment_module

        monkeypatch.setattr(
            containment_module, "MAX_QUARANTINE_ENTRIES", 3
        )
        db, plan = q1_setup()
        specs = [
            FaultSpec(
                "costly100", "error", first_call=1, transient=False
            )
        ]
        result, _ = run_with_faults(
            db, plan, specs, FailurePolicy(retries=0, on_exhausted="skip-row")
        )
        assert len(result.quarantine.entries) == 3
        assert result.metrics["udf.quarantined"] > 3
