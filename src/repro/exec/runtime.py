"""The executor facade: run a plan, return rows plus charged-cost metrics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cost.model import CostModel
from repro.errors import BudgetExceededError, ExecutionError, UdfError
from repro.exec.cache import CacheStats, PredicateCache
from repro.exec.containment import (
    ContainmentState,
    FailurePolicy,
    QuarantineReport,
)
from repro.exec.operators import (
    OperatorStats,
    RuntimeContext,
    build_operator,
)
from repro.exec.vector import VectorPlanRunner
from repro.storage.columnar import DEFAULT_BATCH_ROWS
from repro.expr.expressions import QualifiedColumn, Scope
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import NULL_TRACER
from repro.plan.display import _node_label
from repro.plan.nodes import Join, JoinMethod, Plan, PlanNode, Scan

if TYPE_CHECKING:
    from repro.adaptive.controller import AdaptiveController, AdaptivePolicy
    from repro.faults.clock import SimulatedClock

#: Execution engines the facade can dispatch to: the tuple-at-a-time
#: iterator tree, or the batch-at-a-time columnar tree (identical row
#: multisets and charge totals; the vector path is the fast one).
EXECUTORS = ("row", "vector")

#: ``cache_bypass`` skips caching a predicate whose estimated distinct
#: input bindings reach this share of the tuples that will reach it.
CACHE_BYPASS_THRESHOLD = 0.95


@dataclass
class QueryResult:
    """Rows plus the charged-cost ledger of one execution.

    ``charged`` is the paper's "running time": random I/Os + weighted
    sequential I/Os + function invocations × per-call cost. ``completed``
    is ``False`` when the run was aborted by the cost budget — the
    reproduction's analogue of the paper's "never completed" plans.
    """

    rows: list[tuple]
    scope: Scope | None
    completed: bool
    charged: float
    metrics: dict[str, float] = field(default_factory=dict)
    cache_stats: CacheStats | None = None
    cache_entries: int = 0
    wall_seconds: float = 0.0
    #: Per-plan-node actuals keyed by ``id(plan_node)``; filled only when
    #: the execution was instrumented (EXPLAIN ANALYZE).
    node_stats: dict[int, OperatorStats] | None = None
    #: Batch-granular actuals keyed by ``id(plan_node)`` (values are
    #: :class:`~repro.exec.operators.BatchNodeStats`); filled only on
    #: instrumented ``executor="vector"`` runs. ``None`` on the row path
    #: — the row-path totals in ``node_stats`` are the parity-gated
    #: figures and never change shape.
    batch_stats: dict[int, object] | None = None
    #: Structured DNF reason when ``completed`` is ``False`` — e.g.
    #: ``"budget: charged 1234.0 > budget 1000.0"`` or
    #: ``"udf: UDF 'costly100' failed on call #5 (permanent): ..."``.
    error: str = ""
    #: Degraded-run ledger: tuples whose predicate verdicts came from the
    #: failure policy rather than evaluation. ``None`` unless the executor
    #: ran with a :class:`FailurePolicy`.
    quarantine: QuarantineReport | None = None
    #: Per-query resource roll-up
    #: (:class:`~repro.obs.runtime_telemetry.QueryResourceReport`).
    #: ``None`` unless the executor ran with a live telemetry monitor.
    resources: object | None = None
    #: What the mid-query re-optimization loop did
    #: (:class:`~repro.adaptive.controller.AdaptiveReport`). ``None``
    #: unless the executor ran with an :class:`AdaptivePolicy`.
    adaptive: object | None = None

    @property
    def degraded(self) -> bool:
        """Completed, but with policy-decided tuples in quarantine."""
        return (
            self.completed
            and self.quarantine is not None
            and self.quarantine.quarantined > 0
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def column(self, table: str, attribute: str) -> list[object]:
        """Extract one output column (for assertions in tests/examples)."""
        assert self.scope is not None
        slot = self.scope.slot(table, attribute)
        return [row[slot] for row in self.rows]


def _storage_read(node: PlanNode):
    """``(table, index attribute or None)`` per access path of a plan, as
    the operator constructors resolve them."""
    if isinstance(node, Scan):
        yield node.table, node.index_attr
    elif isinstance(node, Join):
        yield from _storage_read(node.outer)
        columns = node.join_columns()
        if (
            node.method is JoinMethod.INDEX_NESTED_LOOP
            and isinstance(node.inner, Scan)
            and columns is not None
        ):
            yield node.inner.table, columns[1].attribute
        else:
            yield from _storage_read(node.inner)


def materialise_plan(db, plan: Plan | PlanNode) -> list:
    """Realise the heaps and B-trees ``plan`` reads, so that what follows
    times (and profiles) execution only; returns the new
    ``db.materialised`` records. :meth:`Executor.execute` does this
    itself before its clock starts — call it when timing around
    ``execute``."""
    mark = len(db.materialised)
    node = plan.root if isinstance(plan, Plan) else plan
    for table, attribute in _storage_read(node):
        entry = db.catalog.table(table)
        entry.heap
        if attribute is not None and entry.has_index(attribute):
            entry.index(attribute)
    return db.materialised[mark:]


class Executor:
    """Runs plans against a :class:`~repro.database.Database`."""

    def __init__(
        self,
        db,
        caching: bool = False,
        budget: float | None = None,
        cache_limit: int | None = None,
        cache_mode: str = "predicate",
        cache_replacement: str = "fifo",
        cache_bypass: bool = False,
        tracer=None,
        profiler=None,
        failure_policy: FailurePolicy | None = None,
        clock: SimulatedClock | None = None,
        collector=None,
        monitor=None,
        executor: str = "row",
        batch_rows: int = DEFAULT_BATCH_ROWS,
        cache_capacity: int | None = None,
        flight=None,
        adaptive: AdaptivePolicy | None = None,
        ledger=None,
        adaptive_stats_store=None,
        adaptive_stats_meta: dict | None = None,
    ) -> None:
        """``cache_mode`` selects predicate-level (Montage) or
        function-level ([Jhi88]) memoisation; ``cache_bypass`` enables the
        paper's Section 5.1 heuristic of not caching predicates whose
        distinct-bindings-to-tuples ratio exceeds
        :data:`CACHE_BYPASS_THRESHOLD` (caching
        such predicates costs memory and buys nothing). ``tracer`` records
        execute-phase spans (default: the zero-overhead null tracer);
        ``profiler`` accumulates build/run wall-clock plus, on
        instrumented runs, per-operator actuals (``exec.op.<label>``).
        ``failure_policy`` enables UDF failure containment (bounded
        retries with simulated-clock backoff, then the policy's
        on-exhaustion action); ``clock`` is the
        :class:`~repro.faults.clock.SimulatedClock` backoff and injected
        latency accrue on (a private one is created when omitted);
        ``collector`` receives per-predicate evaluation feedback
        (verdict plus charged function cost — normally a
        :class:`~repro.obs.feedback.FeedbackCollector`; the default
        ``None`` keeps predicate evaluation feedback-free); ``monitor``
        receives live telemetry — per-operator progress, predicate
        cost histograms, resource accounting (normally a
        :class:`~repro.obs.runtime_telemetry.RuntimeMonitor`; the
        default ``None`` keeps the hot path telemetry-free).
        ``executor`` selects the engine: ``"row"`` (tuple-at-a-time,
        the baseline whose charge stream all baselines are pinned to)
        or ``"vector"`` (batch-at-a-time columnar, same rows and charge
        totals, faster); ``batch_rows`` sizes the vector engine's
        column batches. ``cache_capacity`` bounds the predicate cache's
        *total* entry count across all predicates (global LRU/FIFO per
        ``cache_replacement``), composing with the per-predicate
        ``cache_limit``. ``flight`` attaches an execution flight
        recorder (normally a
        :class:`~repro.obs.flightrec.FlightRecorder`): operators emit
        bounded batch/milestone events into its ring buffer, and a
        budget- or UDF-aborted run marks the recorder tripped so the
        caller can serialize a crash dump; the default ``None`` keeps
        every hot path recorder-free. ``adaptive`` enables mid-query
        re-optimization under the given
        :class:`~repro.adaptive.controller.AdaptivePolicy`: the plan's
        predicate placement may be re-planned and spliced in place at
        safe leaf boundaries when observed selectivities drift from
        the declarations (adaptive runs always use the row engine —
        with ``executor="vector"`` the boundary cadence becomes every
        ``batch_rows`` leaf rows instead of power-of-two milestones);
        ``ledger`` (a :class:`~repro.obs.ProvenanceLedger`) receives
        the mandatory ``plan.replan``/``stats.drift`` events;
        ``adaptive_stats_store`` plus ``adaptive_stats_meta`` (a
        :class:`~repro.obs.feedback.StatsFeedbackStore` and
        ``strategy``/``scale``/``seed`` metadata) make each applied
        re-plan snapshot its observations as a mid-query stats
        epoch."""
        if executor not in EXECUTORS:
            raise ExecutionError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.db = db
        self.executor = executor
        self.batch_rows = batch_rows
        self.cache_capacity = cache_capacity
        self.caching = caching
        self.budget = budget
        self.cache_limit = cache_limit
        self.cache_mode = cache_mode
        self.cache_replacement = cache_replacement
        self.cache_bypass = cache_bypass
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.profiler = NULL_PROFILER if profiler is None else profiler
        self.failure_policy = failure_policy
        self.clock = clock
        self.collector = collector
        self.monitor = monitor
        self.flight = flight
        self.adaptive = adaptive
        self.ledger = ledger
        self.adaptive_stats_store = adaptive_stats_store
        self.adaptive_stats_meta = adaptive_stats_meta

    def _bypass_ids(self, node: PlanNode) -> frozenset[int]:
        """Predicates not worth caching: nearly every binding is distinct.

        The estimate follows the paper: compare the predicate's distinct
        input bindings against the tuples that will reach it — approximated
        here by its relation's cardinality, an upper bound on either.
        """
        if not self.cache_bypass:
            return frozenset()
        bypass: set[int] = set()
        catalog = self.db.catalog
        for predicate in node.all_predicates():
            if not predicate.is_expensive:
                continue
            distinct = 1.0
            for table, attribute in predicate.input_columns():
                distinct *= max(
                    1, catalog.table(table).stats.ndistinct(attribute)
                )
            tuples = max(
                catalog.table(table).stats.cardinality
                for table in predicate.tables
            ) if predicate.tables else 1
            if distinct >= CACHE_BYPASS_THRESHOLD * tuples:
                bypass.add(predicate.pred_id)
        return frozenset(bypass)

    def execute(
        self,
        plan: Plan | PlanNode,
        project: list[QualifiedColumn] | None = None,
        raise_on_budget: bool = False,
        instrument: bool = False,
    ) -> QueryResult:
        """Execute ``plan`` cold (fresh meter, empty buffer pool, reset
        function counters) and return rows plus metrics.

        When the cost budget is exceeded, returns a ``completed=False``
        result (or re-raises if ``raise_on_budget``). ``instrument=True``
        wraps every operator to collect per-node actuals (rows, charged
        cost, cache hits) in :attr:`QueryResult.node_stats` — the EXPLAIN
        ANALYZE data source.
        """
        node = plan.root if isinstance(plan, Plan) else plan
        db = self.db
        tracer = self.tracer
        profiler = self.profiler
        with tracer.span("datagen.materialize") as span, \
                profiler.phase("datagen.materialize"):
            span.set(built=[m.name for m in materialise_plan(db, node)])
        db.meter.reset()
        previous_budget = db.meter.budget
        db.meter.budget = self.budget
        db.pool.clear()
        db.pool.reset_stats()
        db.catalog.functions.reset_counters()

        cache = (
            PredicateCache(
                max_entries_per_predicate=self.cache_limit,
                replacement=self.cache_replacement,
                max_total_entries=self.cache_capacity,
            )
            if self.caching
            else None
        )
        node_stats: dict[int, OperatorStats] | None = (
            {} if instrument else None
        )
        # Adaptive runs always drive the row pipeline — the vector engine
        # has no safe splice point.
        vectorized = self.executor == "vector" and self.adaptive is None
        batch_stats: dict[int, object] | None = (
            {} if instrument and vectorized else None
        )
        containment = (
            ContainmentState(
                self.failure_policy,
                clock=self.clock,
                tracer=tracer,
                flight=self.flight,
            )
            if self.failure_policy is not None
            else None
        )
        monitor = self.monitor
        if monitor is not None:
            # Register every node's estimated work budget before any
            # operator is built (MonitoredOperator activates at
            # construction). The monitor's model mirrors this executor's
            # charging configuration.
            monitor.attach(
                node,
                CostModel(db.catalog, db.params, caching=self.caching),
            )
        controller: AdaptiveController | None = None
        if self.adaptive is not None:
            # A vector request's batch granularity becomes the row
            # pipeline's boundary cadence. The controller doubles as the
            # feedback collector (tee-ing to any user-supplied one) so
            # drift detection rides the predicate runner's per-evaluation
            # sink bracket.
            from repro.adaptive.controller import AdaptiveController

            controller = AdaptiveController(
                node,
                catalog=db.catalog,
                params=db.params,
                meter=db.meter,
                caching=self.caching,
                policy=self.adaptive,
                collector=self.collector,
                ledger=self.ledger if self.ledger is not None else NULL_LEDGER,
                flight=self.flight,
                cadence=(
                    self.batch_rows if self.executor == "vector" else 0
                ),
                stats_store=self.adaptive_stats_store,
                stats_meta=self.adaptive_stats_meta,
            )
            controller.cache = cache
        feed_on = controller is not None and controller.active
        ctx = RuntimeContext(
            catalog=db.catalog,
            meter=db.meter,
            params=db.params,
            caching=self.caching,
            cache=cache,
            cache_mode=self.cache_mode,
            bypass_ids=self._bypass_ids(node),
            node_stats=node_stats,
            containment=containment,
            collector=controller if feed_on else self.collector,
            monitor=monitor,
            batch_stats=batch_stats,
            flight=self.flight,
            feed=controller if feed_on else None,
        )
        started = time.perf_counter()
        rows: list[tuple] = []
        completed = True
        error = ""
        scope: Scope | None = None
        with tracer.span(
            "execute", caching=self.caching, instrumented=instrument
        ) as span:
            try:
                with tracer.span("executor.build"), \
                        profiler.phase("exec.build"):
                    if vectorized:
                        runner = VectorPlanRunner(node, ctx, self.batch_rows)
                    else:
                        runner = build_operator(node, ctx)
                scope = runner.scope
                with tracer.span("executor.run"), \
                        profiler.phase("exec.run"):
                    if vectorized:
                        runner.run_into(rows)
                    else:
                        for row in runner:
                            rows.append(row)
            except BudgetExceededError as exc:
                error = (
                    f"budget: charged {exc.charged:.1f} > "
                    f"budget {exc.budget:.1f}"
                )
                if monitor is not None:
                    monitor.freeze(error)
                if self.flight is not None:
                    self.flight.note_abort(error)
                if raise_on_budget:
                    raise
                completed = False
            except UdfError as exc:
                # Only the ``abort`` exhaustion policy lets a UdfError
                # escape the operators; surface it as a structured DNF
                # rather than a traceback.
                completed = False
                error = f"udf: {exc}"
                if monitor is not None:
                    monitor.freeze(error)
                if self.flight is not None:
                    self.flight.note_abort(error)
            finally:
                # Restore whatever budget the shared Database carried
                # before this execution, not unconditionally None.
                db.meter.budget = previous_budget
            span.set(
                rows=len(rows),
                completed=completed,
                charged=db.meter.charged,
                error=error,
            )
        elapsed = time.perf_counter() - started

        if profiler.enabled and node_stats is not None:
            # Fold the instrumented per-node actuals into the profiler so
            # operator hotspots rank alongside the optimizer's phases.
            # wall_seconds is inclusive of each node's subtree, so only
            # record()-style totals (no self-time split) make sense here.
            for plan_node in node.walk():
                stats = node_stats.get(id(plan_node))
                if stats is not None:
                    profiler.record(
                        f"exec.op.{_node_label(plan_node)}",
                        stats.wall_seconds,
                    )

        if profiler.enabled and batch_stats is not None:
            # Per-kernel self time: each predicate's evaluate_batch wall
            # clock, measured exclusively (masking included, children
            # excluded), so kernels rank against operators and optimizer
            # phases in the hotspot report.
            for plan_node in node.walk():
                stats = batch_stats.get(id(plan_node))
                if stats is None:
                    continue
                for pred_stats in stats.predicates:
                    profiler.record(
                        f"exec.kernel.{pred_stats.predicate}",
                        pred_stats.kernel_seconds,
                    )

        if project is not None and scope is not None and completed:
            slots = [scope.slot(table, attribute) for table, attribute in project]
            rows = [tuple(row[slot] for slot in slots) for row in rows]
            scope = Scope(list(project))

        metrics = db.meter.snapshot()
        if containment is not None:
            metrics.update(containment.metrics())

        result = QueryResult(
            rows=rows,
            scope=scope,
            completed=completed,
            charged=db.meter.charged,
            metrics=metrics,
            cache_stats=cache.stats if cache is not None else None,
            cache_entries=cache.total_entries() if cache is not None else 0,
            wall_seconds=elapsed,
            node_stats=node_stats,
            batch_stats=batch_stats,
            error=error,
            quarantine=(
                containment.report if containment is not None else None
            ),
            adaptive=(
                controller.report if controller is not None else None
            ),
        )
        if monitor is not None:
            if completed:
                monitor.complete()
            clock = self.clock
            if clock is None and containment is not None:
                clock = containment.clock
            result.resources = monitor.resource_report(result, clock=clock)
        return result
