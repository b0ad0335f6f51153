"""Live query telemetry: mid-flight progress, selectivity, and resources.

Every observability layer before this one (tracer, provenance ledger,
bench artifacts, statistics feedback) reports *after* a query finishes.
This module watches a plan while it runs: a :class:`RuntimeMonitor`
rides :class:`~repro.exec.operators.RuntimeContext` as a None-guarded
``monitor`` hook — the exact pattern of the feedback ``collector`` — so
the default path pays nothing, and an attached monitor sees every
operator pull and every predicate verdict as they happen.

Three concerns live here:

**Progress estimation** (driver-node style). At attach time each plan
node gets a work budget from the optimizer's own estimates: its
estimated output cardinality and its *self* cost (the node's estimated
cost minus its children's — the cost model's estimates are inclusive).
Per-operator percent-done is ``rows_out / estimated_rows``; whole-plan
percent-done is the self-cost-weighted average over operators that
actually ran. Estimates are refined online: once a predicate has enough
evaluations (:data:`REFINE_MIN_EVALS`), its observed selectivity
replaces the declared one in the node's cardinality estimate — the
paper's rank inputs, measured instead of assumed. Two guarantees hold
regardless of how wrong the estimates were:

* *monotone*: reported fractions never decrease (per-operator and
  whole-plan fractions are max-clamped, and a running operator is
  pinned below :data:`PROGRESS_RUNNING_CAP` until its
  ``StopIteration`` proves it finished);
* *terminal*: :meth:`RuntimeMonitor.complete` drives a successful run
  to exactly 1.0, and :meth:`RuntimeMonitor.freeze` pins an aborted
  run's progress at its last value with a structured reason — DNF runs
  report "stopped at 43% because <reason>", never a lie of 100%.

**Resource accounting.** :meth:`RuntimeMonitor.resource_report` rolls
one execution's meter, cache, quarantine, and simulated-clock state
into a :class:`QueryResourceReport` — deterministic (no wall-clock, no
ids) so it can embed in ``BENCH_*.json`` artifacts.

**Streaming histograms.** Per-predicate charged evaluation cost in
:class:`~repro.obs.histograms.StreamingHistogram` buckets (p50/p90/p99
of what each conjunct actually charges per tuple), and per-operator
pull latency for the export surface. Latency histograms are wall-clock
and therefore *never* serialised into gated artifacts — they surface
only through ``--metrics-export`` and ``repro top``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.feedback import predicate_fingerprint
from repro.obs.histograms import StreamingHistogram
from repro.obs.quality import fmt_stat
from repro.obs.tables import Column, Table, fmt_cell
from repro.plan.display import _node_label
from repro.plan.nodes import Plan, PlanNode

#: A running operator never reports more than this fraction done — only
#: its StopIteration can claim 1.0. Keeps progress honest (and monotone)
#: when an operator produces more rows than estimated.
PROGRESS_RUNNING_CAP = 0.99

#: Minimum evaluations before a predicate's observed selectivity is
#: trusted to refine its operator's cardinality estimate.
REFINE_MIN_EVALS = 32

#: Every node carries at least this much estimated work/cardinality so
#: weighted averages and ratios never divide by zero.
WORK_FLOOR = 1.0

#: Observed/declared selectivity ratios are clamped to this band before
#: refining an estimate — one absurd declaration cannot zero out or
#: explode a node's work budget.
REFINE_RATIO_BAND = (1.0 / 1024.0, 1024.0)

#: Default callback cadence for live refresh: every N operator events.
DEFAULT_REFRESH_EVERY = 4096


@dataclass
class OperatorProgress:
    """Progress state for one plan node.

    ``declared_rows`` is the optimizer's original cardinality estimate
    (never changed); ``estimated_rows`` is the live, refined one.
    ``active`` distinguishes nodes that actually ran as operators from
    registered-but-never-built ones (an index-nested-loop join probes
    its inner relation directly — the inner Scan node exists in the plan
    but no operator is ever constructed for it). Only active nodes
    contribute to whole-plan progress.
    """

    index: int
    label: str
    declared_rows: float
    estimated_rows: float
    work_units: float
    is_leaf: bool
    rows_out: int = 0
    active: bool = False
    done: bool = False
    fraction: float = 0.0


@dataclass
class PredicateTelemetry:
    """Live observed-vs-declared state for one predicate."""

    fingerprint: str
    predicate: str
    declared_selectivity: float
    declared_cost_per_call: float
    #: ``id()`` key of the plan node this predicate filters (0 when the
    #: predicate surfaced at runtime without an attach-time registration).
    node_key: int
    evaluated: int = 0
    passed: int = 0
    cost: StreamingHistogram = field(default_factory=StreamingHistogram)

    @property
    def observed_selectivity(self) -> float:
        if self.evaluated <= 0:
            return math.nan
        return self.passed / self.evaluated


@dataclass
class QueryResourceReport:
    """One execution's resource roll-up — deterministic, artifact-safe."""

    state: str
    reason: str
    progress: float
    rows_in: int
    rows_out: int
    udf_calls: int
    charged: float
    io_charged: float
    function_charged: float
    cpu_charged: float
    cache_hits: int
    cache_misses: int
    cache_entries: int
    quarantined: int
    retried: int
    recovered: int
    clock_now: float
    latency_units: float
    backoff_units: float

    def as_dict(self) -> dict:
        """Artifact form: key order fixed, floats via ``fmt_stat`` —
        byte-stable across interpreters (no wall-clock fields)."""
        return {
            "state": self.state,
            "reason": self.reason,
            "progress": fmt_stat(round(self.progress, 6)),
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "udf_calls": self.udf_calls,
            "charged": fmt_stat(self.charged),
            "io_charged": fmt_stat(self.io_charged),
            "function_charged": fmt_stat(self.function_charged),
            "cpu_charged": fmt_stat(self.cpu_charged),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_entries": self.cache_entries,
            "quarantined": self.quarantined,
            "retried": self.retried,
            "recovered": self.recovered,
            "clock_now": fmt_stat(self.clock_now),
            "latency_units": fmt_stat(self.latency_units),
            "backoff_units": fmt_stat(self.backoff_units),
        }


class RuntimeMonitor:
    """The live telemetry sink one :class:`~repro.exec.runtime.Executor`
    execution reports into.

    Lifecycle: the executor calls :meth:`attach` with the plan and its
    cost model before building operators; each
    :class:`~repro.exec.operators.MonitoredOperator` calls
    :meth:`activate` at construction and :meth:`on_rows`/:meth:`on_done`
    per pull; :class:`~repro.exec.predicate.PredicateRunner` calls
    :meth:`observe_predicate` per verdict; the executor finishes with
    :meth:`complete` (success) or :meth:`freeze` (DNF). All callbacks are cheap tallies — no
    allocation on the per-row path beyond the first touch of a key.
    """

    def __init__(
        self,
        refresh_callback=None,
        refresh_every: int = DEFAULT_REFRESH_EVERY,
    ) -> None:
        self.refresh_callback = refresh_callback
        self.refresh_every = max(1, int(refresh_every))
        self.reset()

    def reset(self) -> None:
        #: Keyed by ``id(plan_node)``, plan pre-order.
        self.operators: dict[int, OperatorProgress] = {}
        #: Keyed by ``pred_id``.
        self.predicates: dict[int, PredicateTelemetry] = {}
        self._node_predicates: dict[int, list[int]] = {}
        #: Per-operator pull latency (wall-clock; export-only).
        self.latency: dict[int, StreamingHistogram] = {}
        #: Per-node selection-vector density totals from the vector
        #: executor's filter chains: ``node_key -> [rows_in, rows_out]``.
        self.filter_density: dict[int, list[int]] = {}
        self.state = "pending"
        self.reason = ""
        self._plan_fraction = 0.0
        self._events = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, plan: Plan | PlanNode, model) -> None:
        """Register every plan node with its estimated work budget.

        ``model`` is the executor's :class:`~repro.cost.model.CostModel`;
        a node the model cannot estimate (never the case for executable
        plans, but guarded anyway) gets the floor budget rather than
        poisoning the run.
        """
        node = plan.root if isinstance(plan, Plan) else plan
        self.reset()
        self.state = "running"
        order = list(node.walk())
        estimates: dict[int, tuple[float, float]] = {}
        for plan_node in order:
            try:
                estimate = model.estimate_plan(plan_node)
                rows = max(float(estimate.rows), WORK_FLOOR)
                cost = max(float(estimate.cost), 0.0)
            except Exception:
                rows, cost = WORK_FLOOR, 0.0
            estimates[id(plan_node)] = (rows, cost)
        for index, plan_node in enumerate(order):
            rows, cost = estimates[id(plan_node)]
            children = list(plan_node.children())
            self_cost = cost - sum(
                estimates[id(child)][1] for child in children
            )
            self.operators[id(plan_node)] = OperatorProgress(
                index=index,
                label=_node_label(plan_node),
                declared_rows=rows,
                estimated_rows=rows,
                work_units=max(self_cost, WORK_FLOOR),
                is_leaf=not children,
            )
            for predicate in _node_predicates(plan_node):
                self._register_predicate(predicate, id(plan_node))

    def _register_predicate(
        self, predicate, node_key: int
    ) -> PredicateTelemetry:
        telemetry = self.predicates.get(predicate.pred_id)
        if telemetry is None:
            telemetry = PredicateTelemetry(
                fingerprint=predicate_fingerprint(predicate),
                predicate=str(predicate),
                declared_selectivity=float(predicate.selectivity),
                declared_cost_per_call=float(predicate.cost_per_tuple),
                node_key=node_key,
            )
            self.predicates[predicate.pred_id] = telemetry
            if node_key:
                self._node_predicates.setdefault(node_key, []).append(
                    predicate.pred_id
                )
        return telemetry

    def freeze(self, reason: str) -> None:
        """Pin progress at its current value with a structured reason.

        Called by the executor when a run dies (budget DNF, UDF abort).
        Idempotent; later :meth:`complete`/:meth:`on_rows` calls cannot
        thaw a frozen run.
        """
        if self.state == "aborted":
            return
        self.progress()  # fold the final per-operator state in first
        self.state = "aborted"
        self.reason = reason

    def complete(self) -> None:
        """Drive a successful run to exactly 100%."""
        if self.state == "aborted":
            return
        for operator in self.operators.values():
            if operator.active:
                operator.fraction = 1.0
                operator.done = True
        self.state = "completed"
        self._plan_fraction = 1.0

    # -- operator callbacks --------------------------------------------------

    def activate(self, key: int) -> None:
        """A MonitoredOperator for this node was constructed — it counts."""
        operator = self.operators.get(key)
        if operator is None:
            # A node that was not registered at attach time (defensive;
            # keeps a hand-built operator tree from crashing the monitor).
            operator = OperatorProgress(
                index=len(self.operators),
                label=f"op#{len(self.operators)}",
                declared_rows=WORK_FLOOR,
                estimated_rows=WORK_FLOOR,
                work_units=WORK_FLOOR,
                is_leaf=False,
            )
            self.operators[key] = operator
        operator.active = True

    def on_rows(self, key: int, count: int, seconds: float) -> None:
        """One pull's report: ``count`` rows (1 on the row engine, a
        batch on the vector engine) took ``seconds``. Progress stays
        monotone; the latency histogram records one sample per pull,
        which is fine because pull-latency histograms are export-only
        and never gated."""
        operator = self.operators.get(key)
        if operator is None or self.state == "aborted" or count <= 0:
            return
        operator.rows_out += count
        if operator.rows_out > operator.estimated_rows:
            # The estimate was too low; grow it so the capped fraction
            # keeps inching up instead of flatlining.
            operator.estimated_rows = (
                operator.rows_out / PROGRESS_RUNNING_CAP
            )
        fraction = min(
            operator.rows_out / operator.estimated_rows,
            PROGRESS_RUNNING_CAP,
        )
        if fraction > operator.fraction:
            operator.fraction = fraction
        histogram = self.latency.get(key)
        if histogram is None:
            histogram = self.latency[key] = StreamingHistogram()
        histogram.observe(seconds)
        self._events += 1
        if (
            self.refresh_callback is not None
            and self._events % self.refresh_every == 0
        ):
            self.refresh_callback(self)

    def on_done(self, key: int, seconds: float) -> None:
        operator = self.operators.get(key)
        if operator is None or self.state == "aborted":
            return
        operator.done = True
        operator.fraction = 1.0
        histogram = self.latency.get(key)
        if histogram is None:
            histogram = self.latency[key] = StreamingHistogram()
        histogram.observe(seconds)
        if self.refresh_callback is not None:
            self.refresh_callback(self)

    # -- predicate callback --------------------------------------------------

    def observe_predicate(self, predicate, passed: bool, charged: float) -> None:
        telemetry = self.predicates.get(predicate.pred_id)
        if telemetry is None:
            telemetry = self._register_predicate(predicate, 0)
        telemetry.evaluated += 1
        if passed:
            telemetry.passed += 1
        telemetry.cost.observe(charged)
        # Refine the owning node's estimate at power-of-two milestones —
        # O(log n) refinements per predicate, never per row.
        count = telemetry.evaluated
        if (
            telemetry.node_key
            and count >= REFINE_MIN_EVALS
            and (count & (count - 1)) == 0
        ):
            self._refine(telemetry.node_key)

    def observe_predicate_batch(
        self, predicate, evaluated: int, passed: int, charges
    ) -> None:
        """Bulk verdict report from the vector executor: ``evaluated``
        evaluations of which ``passed`` were true, with ``charges`` the
        per-evaluation charged costs for the histogram (may be shorter
        than ``evaluated`` — e.g. empty for a free column comparison,
        where every charge is zero). Refines the owning node's estimate
        once per batch instead of at power-of-two milestones."""
        if evaluated <= 0:
            return
        telemetry = self.predicates.get(predicate.pred_id)
        if telemetry is None:
            telemetry = self._register_predicate(predicate, 0)
        telemetry.evaluated += evaluated
        telemetry.passed += passed
        observe = telemetry.cost.observe
        for charged in charges:
            observe(charged)
        if (
            telemetry.node_key
            and telemetry.evaluated >= REFINE_MIN_EVALS
        ):
            self._refine(telemetry.node_key)

    def on_filter_batch(
        self,
        node_key: int,
        rows_in: int,
        rows_out: int,
        declared_selectivity: float,
    ) -> None:
        """Per-batch selection-vector density report from the vector
        executor's filter chains: ``rows_in`` rows entered the chain and
        ``rows_out`` survived it, against a declared (optimizer) chain
        selectivity of ``declared_selectivity``.

        Unlike the per-predicate refinement in :meth:`_refine` — a
        product of independent ratios — the joint chain density sees
        predicate correlation, so it refines the node's cardinality
        estimate *every batch* instead of waiting for per-predicate
        power-of-two milestones. Same clamps as :meth:`_refine`: the
        ratio band keeps one absurd declaration from zeroing or
        exploding the work budget, and ``rows_out``/``WORK_FLOOR``
        floors keep the fraction monotone.
        """
        if rows_in <= 0 or self.state == "aborted":
            return
        totals = self.filter_density.get(node_key)
        if totals is None:
            totals = self.filter_density[node_key] = [0, 0]
        totals[0] += rows_in
        totals[1] += rows_out
        if totals[0] < REFINE_MIN_EVALS:
            return
        operator = self.operators.get(node_key)
        if operator is None:
            return
        declared = declared_selectivity
        if math.isnan(declared) or not declared > 0.0:
            return
        observed = totals[1] / totals[0]
        low, high = REFINE_RATIO_BAND
        ratio = min(max(observed / declared, low), high)
        operator.estimated_rows = max(
            operator.declared_rows * ratio,
            float(operator.rows_out),
            WORK_FLOOR,
        )

    def _refine(self, node_key: int) -> None:
        """Replace declared selectivities with observed ones in the
        node's cardinality estimate. Shrinking estimates push fractions
        up (monotone by construction); growing ones are absorbed by the
        per-operator max-clamp."""
        operator = self.operators.get(node_key)
        if operator is None:
            return
        low, high = REFINE_RATIO_BAND
        ratio = 1.0
        for pred_id in self._node_predicates.get(node_key, ()):
            telemetry = self.predicates[pred_id]
            if telemetry.evaluated < REFINE_MIN_EVALS:
                continue
            declared = telemetry.declared_selectivity
            observed = telemetry.observed_selectivity
            if (
                math.isnan(observed)
                or math.isnan(declared)
                or not declared > 0.0
            ):
                continue
            ratio *= min(max(observed / declared, low), high)
        operator.estimated_rows = max(
            operator.declared_rows * min(max(ratio, low), high),
            float(operator.rows_out),
            WORK_FLOOR,
        )

    # -- read side -----------------------------------------------------------

    def progress(self) -> float:
        """Whole-plan fraction done in [0, 1]; monotone non-decreasing;
        frozen at its abort-time value for DNF runs."""
        if self.state == "aborted":
            return self._plan_fraction
        active = [
            operator
            for operator in self.operators.values()
            if operator.active
        ]
        if self.state == "completed":
            value = 1.0
        elif not active:
            value = 0.0
        else:
            total = sum(operator.work_units for operator in active)
            value = (
                sum(
                    operator.work_units * operator.fraction
                    for operator in active
                )
                / total
            )
        if value > self._plan_fraction:
            self._plan_fraction = value
        return self._plan_fraction

    def resource_report(self, result, clock=None) -> QueryResourceReport:
        """Roll one finished execution into a :class:`QueryResourceReport`.

        ``result`` is the executor's :class:`~repro.exec.runtime.QueryResult`;
        ``clock`` the execution's :class:`~repro.faults.clock.SimulatedClock`
        (``None`` reports zero elapsed units).
        """
        metrics = result.metrics or {}
        cache_stats = result.cache_stats
        quarantine = result.quarantine
        rows_in = sum(
            operator.rows_out
            for operator in self.operators.values()
            if operator.active and operator.is_leaf
        )
        return QueryResourceReport(
            state=self.state,
            reason=self.reason or result.error,
            progress=self.progress(),
            rows_in=rows_in,
            rows_out=result.row_count,
            udf_calls=int(metrics.get("function_calls", 0)),
            charged=result.charged,
            io_charged=float(metrics.get("io_charged", 0.0)),
            function_charged=float(metrics.get("function_charged", 0.0)),
            cpu_charged=float(metrics.get("cpu_charged", 0.0)),
            cache_hits=cache_stats.hits if cache_stats is not None else 0,
            cache_misses=(
                cache_stats.misses if cache_stats is not None else 0
            ),
            cache_entries=result.cache_entries,
            quarantined=(
                quarantine.quarantined if quarantine is not None else 0
            ),
            retried=quarantine.retries if quarantine is not None else 0,
            recovered=(
                quarantine.recovered if quarantine is not None else 0
            ),
            clock_now=clock.now if clock is not None else 0.0,
            latency_units=(
                clock.latency_units if clock is not None else 0.0
            ),
            backoff_units=(
                clock.backoff_units if clock is not None else 0.0
            ),
        )


def _node_predicates(plan_node: PlanNode) -> list:
    """The predicates evaluated *at* this node: its filter chain plus,
    for a join, its primary join predicate."""
    predicates = list(getattr(plan_node, "filters", ()) or ())
    primary = getattr(plan_node, "primary", None)
    if primary is not None:
        predicates.append(primary)
    return predicates


def format_top(
    monitor: RuntimeMonitor,
    title: str = "",
    resources: QueryResourceReport | None = None,
) -> str:
    """The ``repro top`` view: one snapshot of a monitor as text.

    Deterministic for deterministic monitor state — operators in plan
    pre-order, predicates in first-registration order, no wall-clock
    fields (pull-latency histograms are export-only).
    """
    lines: list[str] = []
    percent = monitor.progress() * 100.0
    status = f"state={monitor.state}  progress {percent:5.1f}%"
    if monitor.reason:
        status += f"  reason: {monitor.reason}"
    lines.append(f"top: {title}  {status}" if title else f"top: {status}")
    lines.append("")

    operators = Table(
        [
            Column("op", 3),
            Column("operator", 28, align="left", gap=2),
            Column("est.rows", 10),
            Column("rows.out", 9),
            Column("done%", 7),
            Column("work", 12),
        ]
    )
    for operator in sorted(
        monitor.operators.values(), key=lambda item: item.index
    ):
        if operator.active:
            done = f"{operator.fraction * 100.0:.1f}"
        else:
            done = "—"
        operators.row(
            operator.index,
            operator.label[:28],
            f"{operator.estimated_rows:.0f}",
            operator.rows_out,
            done,
            f"{operator.work_units:.1f}",
        )
    lines.append(operators.render())
    lines.append("")

    if monitor.predicates:
        predicates = Table(
            [
                Column("predicate", 28, align="left"),
                Column("decl.sel", 9),
                Column("obs.sel", 9),
                Column("evals", 7),
                Column("cost.p50", 9),
                Column("cost.p90", 9),
                Column("cost.p99", 9),
            ]
        )
        for telemetry in monitor.predicates.values():
            quantiles = telemetry.cost.quantiles()
            predicates.row(
                telemetry.predicate[:28],
                fmt_cell(telemetry.declared_selectivity),
                fmt_cell(telemetry.observed_selectivity),
                telemetry.evaluated,
                fmt_cell(quantiles["p50"], 2),
                fmt_cell(quantiles["p90"], 2),
                fmt_cell(quantiles["p99"], 2),
            )
        lines.append(predicates.render())
        lines.append("")

    if resources is not None:
        lines.append(
            f"resources: rows {resources.rows_in} -> "
            f"{resources.rows_out}  udf calls {resources.udf_calls}  "
            f"charged {resources.charged:.1f} "
            f"(io {resources.io_charged:.1f}, "
            f"fn {resources.function_charged:.1f}, "
            f"cpu {resources.cpu_charged:.1f})"
        )
        lines.append(
            f"cache: {resources.cache_hits} hits / "
            f"{resources.cache_misses} misses / "
            f"{resources.cache_entries} entries   "
            f"quarantine: {resources.quarantined} "
            f"(retried {resources.retried}, "
            f"recovered {resources.recovered})"
        )
        lines.append(
            f"clock: now {resources.clock_now:.1f}  "
            f"latency {resources.latency_units:.1f}  "
            f"backoff {resources.backoff_units:.1f}"
        )
    return "\n".join(lines).rstrip()
