"""Physical operators: the executor half of each cost-model formula.

An operator is an iterable of chunks with a :class:`Scope` — the one
protocol of ``exec/``. A chunk is a composite row on the row engine (this
module) and a :class:`~repro.storage.columnar.ColumnBatch` on the vector
engine (:mod:`repro.exec.vector`); an :class:`Engine` names the operators
one engine compiles plan nodes into, and :func:`build_operator` is the
single plan compiler both share. Charging rules mirror
:mod:`repro.cost.model` exactly:

* sequential scans charge one sequential I/O per heap page (via the pool);
* index probes charge one random I/O per touched B-tree node and one per
  fetched heap tuple (via the pool, so hot pages may hit);
* nested loop materialises the (filtered) inner once, then charges the
  *base* relation's page count per outer-tuple rescan — the paper's
  "constant irrespective of expensive selections on the inner";
* sorts charge two sequential passes over the stream's pages;
* every expensive-predicate evaluation charges the predicate's per-call
  cost — unless the predicate cache already holds the binding's result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator

from repro.catalog.catalog import Catalog
from repro.cost.params import CostParams
from repro.errors import ExecutionError, PlanError
from repro.exec.cache import PredicateCache
from repro.exec.containment import ContainmentState
from repro.exec.predicate import PredicateRunner, live_filter
from repro.expr.expressions import Scope
from repro.expr.predicates import Predicate
from repro.obs.histograms import StreamingHistogram
from repro.plan.display import _node_label
from repro.plan.nodes import Join, JoinMethod, PlanNode, Scan
from repro.storage.meter import CostMeter, IOKind


@dataclass
class OperatorStats:
    """Actuals for one plan node, collected by EXPLAIN ANALYZE.

    All charge figures are *inclusive* of the node's subtree — the same
    convention the cost model uses for estimates, so the two compare
    directly. ``rows_out`` counts rows the node's output (after its own
    filters) produced.

    ``charged`` is derived from the component ledgers exactly the way
    :attr:`repro.storage.meter.CostMeter.charged` is (I/O + join CPU +
    function cost), never accumulated independently: a node's total is
    always self-consistent with its breakdown, and the row and vector
    engines — which bracket meter deltas at different granularities
    (per row vs per batch) — report bit-identical per-node actuals.
    """

    rows_out: int = 0
    io_charged: float = 0.0
    cpu_charged: float = 0.0
    function_charged: float = 0.0
    cache_hits: int = 0
    wall_seconds: float = 0.0

    @property
    def charged(self) -> float:
        """Total charged cost attributed to this node's subtree."""
        return self.io_charged + self.cpu_charged + self.function_charged

    def as_dict(self) -> dict[str, float]:
        return {
            "rows_out": self.rows_out,
            "charged": self.charged,
            "io_charged": self.io_charged,
            "function_charged": self.function_charged,
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
        }


class BatchNodeStats:
    """Batch-granular actuals for one plan node under the vector engine.

    The batch-level companion of :class:`OperatorStats` — it never
    replaces the row-path totals (those stay byte-identical to the row
    engine); it *adds* what only exists under batching: how many batches
    flowed, their size distribution, and how the selection vector decayed
    through the node's filter chain.
    """

    __slots__ = ("batches", "rows_in", "rows_out", "predicates")

    def __init__(self) -> None:
        #: Batches the node emitted (empty post-filter batches are
        #: dropped, so this can be lower than the input batch count,
        #: which is ``rows_in.count``).
        self.batches = 0
        #: Per-batch rows entering the node's filter chain.
        self.rows_in = StreamingHistogram()
        #: Per-batch rows the node emitted.
        self.rows_out = StreamingHistogram()
        #: Chain-ordered per-predicate stats
        #: (:class:`repro.exec.vector.BatchPredicateStats`; empty for
        #: filterless nodes).
        self.predicates: list = []

    @property
    def chain_rows(self) -> int:
        """Total rows that entered the filter chain."""
        return int(self.rows_in.finite_sum)

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "rows_in": self.rows_in.as_dict(),
            "rows_out": self.rows_out.as_dict(),
            "predicates": [p.as_dict() for p in self.predicates],
        }


def batch_node_stats(ctx: RuntimeContext, node: PlanNode) -> BatchNodeStats:
    """Get-or-create the batch stats slot for ``node`` (the vector
    engine's filter chain and the instrument wrapper both write into the
    same slot)."""
    stats = ctx.batch_stats.get(id(node))
    if stats is None:
        stats = ctx.batch_stats[id(node)] = BatchNodeStats()
    return stats


@dataclass
class RuntimeContext:
    """Everything operators need at run time."""

    catalog: Catalog
    meter: CostMeter
    params: CostParams
    caching: bool = False
    cache: PredicateCache | None = None
    #: "predicate" caches the whole predicate result per input binding
    #: (Montage's choice); "function" caches each UDF's value per argument
    #: tuple (the [Jhi88]/[HS93a] alternative).
    cache_mode: str = "predicate"
    #: Predicates whose caching is bypassed because nearly every binding is
    #: distinct (the paper's Section 5.1 planned optimisation).
    bypass_ids: frozenset[int] = frozenset()
    #: When not ``None``, :func:`build_operator` wraps every plan node in an
    #: :class:`InstrumentedOperator` and records its actuals here, keyed by
    #: ``id(plan_node)`` (EXPLAIN ANALYZE mode).
    node_stats: dict[int, OperatorStats] | None = None
    #: When not ``None``, predicate evaluation runs under UDF failure
    #: containment: bounded retries with simulated-clock backoff, then the
    #: policy's on-exhaustion action, with quarantine bookkeeping.
    containment: ContainmentState | None = None
    #: When not ``None``, every predicate evaluation reports its verdict
    #: and the function cost it charged to this sink: a
    #: :class:`repro.obs.feedback.FeedbackCollector` (``observe`` per
    #: evaluation on the row engine, ``observe_batch`` per batch on the
    #: vector engine) or, on adaptive runs — row engine only — the
    #: :class:`repro.adaptive.controller.AdaptiveController` tee-ing to
    #: one. ``None`` keeps the hot path free of any feedback branch,
    #: like the other optional sinks above.
    collector: object | None = None
    #: When not ``None``, live telemetry: a
    #: :class:`repro.obs.runtime_telemetry.RuntimeMonitor`.
    #: :func:`build_operator` wraps every node in a
    #: :class:`MonitoredOperator` reporting per-pull progress
    #: (``on_rows``/``on_done``), predicate evaluation reports verdicts
    #: (``observe_predicate`` per row, ``observe_predicate_batch`` per
    #: batch), and the vector engine's filter chains report
    #: selection-vector density (``on_filter_batch``). Same
    #: zero-overhead-when-off contract as ``collector``.
    monitor: object | None = None
    #: When not ``None``, the vector executor additionally collects
    #: batch-granular actuals (batches, per-batch row histograms,
    #: selection-vector density per predicate, kernel self-time, cache
    #: hit rates) here, keyed by ``id(plan_node)`` — the batch-level
    #: companion of ``node_stats``. Values are :class:`BatchNodeStats`.
    #: The row path ignores this field entirely; ``None`` keeps the
    #: batch hot loops free of any stats branch.
    batch_stats: dict[int, BatchNodeStats] | None = None
    #: When not ``None``, the execution flight recorder — a
    #: :class:`repro.obs.flightrec.FlightRecorder` — receiving bounded
    #: batch/milestone events so a crash dump can show what the engine
    #: was doing in its final moments. Same zero-overhead-when-off
    #: contract as the other optional sinks.
    flight: object | None = None
    #: When not ``None``, the adaptive mid-query re-optimization feed: a
    #: :class:`repro.adaptive.controller.AdaptiveController`. The build
    #: wraps the spine leaf's raw source in a :class:`LeafFeedOperator`
    #: (``feed.on_leaf_row`` fires at the safe splice boundary, *before*
    #: the row enters any filter) and taps the nodes in ``feed.tap_ids``
    #: with row counters (``feed.on_node_row``). With a feed installed,
    #: scans and joins always get a :class:`FilterChain`, even when their
    #: filter list is currently empty — a re-plan may move predicates
    #: onto them mid-query, and the chain re-reads the live list per row.
    #: ``None`` (always, unless ``--adaptive``) keeps every hot path and
    #: the built operator shapes byte-identical to the baselines.
    feed: object | None = None

    def __post_init__(self) -> None:
        if self.cache_mode not in ("predicate", "function"):
            raise ExecutionError(
                f"unknown cache_mode: {self.cache_mode!r}"
            )
        if self.caching and self.cache is None:
            self.cache = PredicateCache()
        self._function_cache_registry = None

    def caching_functions(self):
        """A function registry whose UDF calls are memoised per argument
        tuple (function-level cache mode)."""
        if self._function_cache_registry is None:
            self._function_cache_registry = _CachingFunctions(self)
        return self._function_cache_registry


class _CachingFunctions:
    """FunctionRegistry adapter adding per-function memoisation."""

    def __init__(self, ctx: RuntimeContext) -> None:
        self._ctx = ctx
        self._wrappers: dict[str, object] = {}

    def get(self, name: str):
        wrapper = self._wrappers.get(name)
        if wrapper is None:
            ctx = self._ctx
            function = ctx.catalog.functions.get(name)

            def miss(args: tuple) -> object:
                value = function(*args)
                if function.cost_per_call > 0:
                    ctx.meter.charge_function(function.cost_per_call)
                return value

            cached = ctx.cache.memoised(name, miss)
            wrapper = self._wrappers[name] = lambda *args: cached(args)
        return wrapper


class Operator:
    """Base class: an iterable of chunks with a fixed scope — composite
    rows on the row engine, column batches on the vector engine."""

    scope: Scope

    def __iter__(self) -> Iterator:
        raise NotImplementedError


class FilterChain(Operator):
    """Applies an ordered predicate list to a child's output; the list is
    read live (see :func:`~repro.exec.predicate.live_filter`)."""

    def __init__(
        self, child: Operator, filters: list[Predicate], ctx: RuntimeContext
    ) -> None:
        self.child = child
        self.filters = filters
        self.scope = child.scope
        self.passes = live_filter(filters, self.scope, ctx)

    def __iter__(self) -> Iterator[tuple]:
        return filter(self.passes, self.child)


class SeqScanOp(Operator):
    def __init__(self, table: str, ctx: RuntimeContext) -> None:
        entry = ctx.catalog.table(table)
        if entry.heap is None:
            raise ExecutionError(f"relation {table!r} has no heap file")
        self.entry = entry
        self.ctx = ctx
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def __iter__(self) -> Iterator[tuple]:
        yield from self.entry.heap.scan()


class IndexScanOp(Operator):
    """Range scan through a B-tree with random heap fetches (unclustered)."""

    def __init__(
        self,
        table: str,
        attribute: str,
        low: object,
        high: object,
        ctx: RuntimeContext,
    ) -> None:
        entry = ctx.catalog.table(table)
        if not entry.has_index(attribute):
            raise ExecutionError(f"no index on {table}.{attribute}")
        self.entry = entry
        self.heap = entry.heap
        self.index = entry.index(attribute)
        self.low = low
        self.high = high
        self.ctx = ctx
        self.scope = Scope(
            [(table, name) for name in entry.schema.attribute_names]
        )

    def __iter__(self) -> Iterator[tuple]:
        fetch_rid = self.heap.fetch_rid
        for rid in self.index.range_search(self.low, self.high):
            yield fetch_rid(rid)


class NestedLoopJoinOp(Operator):
    """Tuple-at-a-time nested loop; the only method that accepts an
    arbitrary (possibly expensive) primary join predicate."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        self.runner = PredicateRunner(join.primary, ctx)
        inner_node = join.inner
        # The paper's constant-|S| rescan volume: the base relation's page
        # count for a scan inner; for a bushy (joined) inner, the pages of
        # the materialised intermediate.
        if isinstance(inner_node, Scan):
            self.inner_base_pages: int | None = ctx.catalog.table(
                inner_node.table
            ).pages
        else:
            self.inner_base_pages = None  # computed after materialisation

    def rescan_pages(self, inner_count: int) -> int:
        """Pages one outer tuple's rescan of the inner charges."""
        if self.inner_base_pages is not None:
            return self.inner_base_pages
        width = _scope_width(self.inner.scope, self.ctx.catalog)
        return int(self.ctx.params.pages_for(inner_count, width))

    def __iter__(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        cpu = self.ctx.params.cpu_per_tuple
        inner_rows = list(self.inner)  # filters evaluated once, here
        meter.charge_cpu(cpu * len(inner_rows))
        rescan_pages = self.rescan_pages(len(inner_rows))
        primary = self.runner.row_evaluator(self.scope)
        for outer_row in self.outer:
            meter.charge_cpu(cpu)
            # The paper's constant-|S| term: every outer tuple rescans the
            # full inner's blocks.
            meter.charge_io(IOKind.SEQUENTIAL, rescan_pages)
            for inner_row in inner_rows:
                row = outer_row + inner_row
                if primary(row):
                    yield row


class IndexNestedLoopJoinOp(Operator):
    """Index nested loop: probe the inner index per outer tuple."""

    def __init__(self, join: Join, outer: Operator, ctx: RuntimeContext) -> None:
        inner_scan = join.inner
        if not isinstance(inner_scan, Scan):
            raise PlanError("left-deep plans require a scan inner input")
        columns = join.join_columns()
        if columns is None:
            raise PlanError("index nested loop requires an equijoin primary")
        outer_column, inner_column = columns
        entry = ctx.catalog.table(inner_scan.table)
        if not entry.has_index(inner_column.attribute):
            raise ExecutionError(
                f"no index on {inner_column.table}.{inner_column.attribute}"
            )
        self.join = join
        self.outer = outer
        self.ctx = ctx
        self.entry = entry
        self.heap = entry.heap
        self.index = entry.index(inner_column.attribute)
        self.inner_scope = Scope(
            [(inner_scan.table, name) for name in entry.schema.attribute_names]
        )
        self.inner_passes = live_filter(
            inner_scan.filters, self.inner_scope, ctx
        )
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.scope = outer.scope.concat(self.inner_scope)

    def __iter__(self) -> Iterator[tuple]:
        cpu = self.ctx.params.cpu_per_tuple
        fetch_rid = self.heap.fetch_rid
        inner_passes = self.inner_passes
        for outer_row in self.outer:
            self.ctx.meter.charge_cpu(cpu)
            key = outer_row[self.outer_slot]
            if key is None:  # NULL keys never match
                continue
            for rid in self.index.search(key):
                inner_row = fetch_rid(rid)
                if inner_passes(inner_row):
                    yield outer_row + inner_row


class MergeJoinOp(Operator):
    """Sort-merge join on an equijoin primary."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("merge join requires an equijoin primary")
        outer_column, inner_column = columns
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )

    def _sorted_rows(self, child: Operator, slot: int) -> list[tuple]:
        """The child's rows in key order, charged as an external sort of
        all of them; NULL keys never match, so those rows are dropped."""
        rows = list(child)
        width = _scope_width(child.scope, self.ctx.catalog)
        params = self.ctx.params
        pages = int(params.pages_for(len(rows), width))
        # External sort: two sequential I/Os per page per pass (write runs,
        # read back), with extra merge passes for inputs beyond workspace.
        self.ctx.meter.charge_io(
            IOKind.SEQUENTIAL, 2 * pages * params.sort_passes(pages)
        )
        self.ctx.meter.charge_cpu(params.cpu_per_tuple * len(rows))
        return sorted(
            (row for row in rows if row[slot] is not None),
            key=itemgetter(slot),
        )

    def __iter__(self) -> Iterator[tuple]:
        outer_rows = self._sorted_rows(self.outer, self.outer_slot)
        inner_rows = self._sorted_rows(self.inner, self.inner_slot)
        inner_len = len(inner_rows)
        inner_pos = 0
        for outer_row in outer_rows:
            key = outer_row[self.outer_slot]
            while (
                inner_pos < inner_len
                and inner_rows[inner_pos][self.inner_slot] < key
            ):
                inner_pos += 1
            probe = inner_pos
            while (
                probe < inner_len
                and inner_rows[probe][self.inner_slot] == key
            ):
                yield outer_row + inner_rows[probe]
                probe += 1


class HashJoinOp(Operator):
    """In-memory (or Grace, by charging) hash join on an equijoin primary."""

    def __init__(
        self, join: Join, outer: Operator, inner: Operator, ctx: RuntimeContext
    ) -> None:
        columns = join.join_columns()
        if columns is None:
            raise PlanError("hash join requires an equijoin primary")
        outer_column, inner_column = columns
        self.join = join
        self.outer = outer
        self.inner = inner
        self.ctx = ctx
        self.scope = outer.scope.concat(inner.scope)
        self.outer_slot = outer.scope.slot(
            outer_column.table, outer_column.attribute
        )
        self.inner_slot = inner.scope.slot(
            inner_column.table, inner_column.attribute
        )
        #: Did the build side spill (Grace)? Decided per execution in
        #: ``__iter__``; a Grace run buffers its *outer* too, making this
        #: join a full pipeline breaker — the adaptive planner treats
        #: every spine hash join as one, conservatively, since this flag
        #: only settles at run time.
        self.grace = False

    def __iter__(self) -> Iterator[tuple]:
        meter = self.ctx.meter
        cpu = self.ctx.params.cpu_per_tuple
        table: dict[object, list[tuple]] = {}
        inner_count = 0
        for inner_row in self.inner:
            meter.charge_cpu(cpu)
            table.setdefault(inner_row[self.inner_slot], []).append(inner_row)
            inner_count += 1
        table.pop(None, None)  # NULL keys never match
        inner_width = _scope_width(self.inner.scope, self.ctx.catalog)
        inner_pages = self.ctx.params.pages_for(inner_count, inner_width)
        if inner_pages > self.ctx.params.hash_memory_pages:
            self.grace = True
            # Grace hash join: partition both sides to disk and back.
            outer_rows = list(self.outer)
            outer_width = _scope_width(self.outer.scope, self.ctx.catalog)
            outer_pages = self.ctx.params.pages_for(
                len(outer_rows), outer_width
            )
            self.ctx.meter.charge_io(
                IOKind.SEQUENTIAL, 2 * int(inner_pages + outer_pages)
            )
            outer_iter: Iterator[tuple] = iter(outer_rows)
        else:
            outer_iter = iter(self.outer)
        for outer_row in outer_iter:
            meter.charge_cpu(cpu)
            for inner_row in table.get(outer_row[self.outer_slot], ()):
                yield outer_row + inner_row


def _scope_width(scope: Scope, catalog: Catalog) -> int:
    tables = sorted({table for table, _ in scope.columns})
    return sum(catalog.table(name).schema.tuple_width for name in tables)


#: What :class:`InstrumentedOperator` has ``next`` return for an exhausted
#: child, so the final pull is bracketed by the same code as every other.
_EXHAUSTED = object()


class InstrumentedOperator(Operator):
    """Transparent wrapper measuring one plan node's actuals.

    Every pull through the wrapped operator is bracketed with meter and
    cache snapshots, so the deltas attribute all charges incurred while
    this node's subtree ran (its own work plus its children's — inclusive,
    like the estimates). On the vector engine each pull is a batch, and an
    instrumented run also tallies the batch-granular companion stats.
    Only constructed in EXPLAIN ANALYZE mode; the default path never sees
    this class.
    """

    def __init__(
        self,
        node: PlanNode,
        child: Operator,
        ctx: RuntimeContext,
        chunk_rows: Callable[[object], int],
    ) -> None:
        assert ctx.node_stats is not None
        self.child = child
        self.ctx = ctx
        self.chunk_rows = chunk_rows
        self.scope = child.scope
        self.stats = OperatorStats()
        ctx.node_stats[id(node)] = self.stats
        self.batch_stats: BatchNodeStats | None = (
            batch_node_stats(ctx, node)
            if ctx.batch_stats is not None
            else None
        )

    def __iter__(self) -> Iterator:
        meter = self.ctx.meter
        cache = self.ctx.cache
        stats = self.stats
        batch_stats = self.batch_stats
        chunk_rows = self.chunk_rows
        iterator = iter(self.child)
        while True:
            io_before = meter.io_charged
            cpu_before = meter.cpu_charged
            function_before = meter.function_charged
            hits_before = cache.stats.hits if cache is not None else 0
            started = time.perf_counter()
            chunk = next(iterator, _EXHAUSTED)
            stats.wall_seconds += time.perf_counter() - started
            stats.io_charged += meter.io_charged - io_before
            stats.cpu_charged += meter.cpu_charged - cpu_before
            stats.function_charged += meter.function_charged - function_before
            if cache is not None:
                stats.cache_hits += cache.stats.hits - hits_before
            if chunk is _EXHAUSTED:
                return
            rows = chunk_rows(chunk)
            stats.rows_out += rows
            if batch_stats is not None:
                batch_stats.batches += 1
                batch_stats.rows_out.observe(float(rows))
            yield chunk


class MonitoredOperator(Operator):
    """Transparent wrapper reporting one plan node's pulls to the live
    telemetry monitor.

    Construction marks the node *active* (a plan node with no operator —
    an index-nested-loop join's inner scan — never activates and is
    excluded from whole-plan progress). Each pull reports the chunk's
    rows and its wall-clock latency; exhaustion reports completion. Only
    constructed when the context carries a ``monitor``; the default
    path never sees this class.
    """

    def __init__(
        self,
        node: PlanNode,
        child: Operator,
        ctx: RuntimeContext,
        chunk_rows: Callable[[object], int],
    ) -> None:
        assert ctx.monitor is not None
        self.child = child
        self.monitor = ctx.monitor
        self.chunk_rows = chunk_rows
        self.key = id(node)
        self.scope = child.scope
        self.monitor.activate(self.key)

    def __iter__(self) -> Iterator:
        monitor = self.monitor
        key = self.key
        chunk_rows = self.chunk_rows
        iterator = iter(self.child)
        while True:
            started = time.perf_counter()
            try:
                chunk = next(iterator)
            except StopIteration:
                monitor.on_done(key, time.perf_counter() - started)
                return
            monitor.on_rows(
                key, chunk_rows(chunk), time.perf_counter() - started
            )
            yield chunk


class FlightOperator(Operator):
    """Transparent wrapper feeding the execution flight recorder on the
    row path.

    Rows are too fine-grained to record individually, so events fire at
    power-of-two row counts — O(log n) events per node, each carrying
    the cumulative charge so a postmortem can see where the meter stood
    when the engine died. Monitor progress snapshots ride the same
    milestones. Only constructed when the context carries a ``flight``
    recorder; the default path never sees this class.
    """

    def __init__(
        self, node: PlanNode, child: Operator, ctx: RuntimeContext
    ) -> None:
        assert ctx.flight is not None
        self.child = child
        self.ctx = ctx
        self.flight = ctx.flight
        self.label = _node_label(node)
        self.scope = child.scope

    def __iter__(self) -> Iterator[tuple]:
        ctx = self.ctx
        flight = self.flight
        meter = ctx.meter
        monitor = ctx.monitor
        label = self.label
        rows = 0
        for row in self.child:
            rows += 1
            if (rows & (rows - 1)) == 0:
                flight.record(
                    "rows", op=label, rows=rows, charged=meter.charged
                )
                if monitor is not None:
                    flight.record(
                        "progress",
                        op=label,
                        rows=rows,
                        fraction=round(monitor.progress(), 6),
                    )
            yield row
        flight.record(
            "op.done", op=label, rows=rows, charged=meter.charged
        )


class LeafFeedOperator(Operator):
    """The adaptive safe boundary: wraps the spine leaf's *raw* source.

    ``feed.on_leaf_row()`` fires after the leaf produces a row but
    before that row enters any filter. The row pipeline is a synchronous
    pull chain, so zero rows are in flight above the leaf at that
    instant — the feed may splice a re-planned predicate placement into
    the live filter lists and every row (including this one) is still
    evaluated against each predicate exactly once. Only constructed when
    the context carries a ``feed``; the default path never sees this
    class.
    """

    def __init__(self, child: Operator, feed) -> None:
        self.child = child
        self.feed = feed
        self.scope = child.scope

    def __iter__(self) -> Iterator[tuple]:
        feed = self.feed
        for row in self.child:
            feed.on_leaf_row()
            yield row


class TapOperator(Operator):
    """Transparent row counter feeding the adaptive controller's join
    fan-out observations. Charges nothing, changes nothing; only
    constructed for nodes in ``feed.tap_ids``."""

    def __init__(self, node: PlanNode, child: Operator, feed) -> None:
        self.child = child
        self.feed = feed
        self.key = id(node)
        self.scope = child.scope

    def __iter__(self) -> Iterator[tuple]:
        feed = self.feed
        key = self.key
        for row in self.child:
            feed.on_node_row(key)
            yield row


@dataclass(frozen=True)
class Engine:
    """One engine's operator table: what :func:`build_operator` compiles
    each plan node into. All of an engine's operators exchange the same
    kind of chunk, and ``chunk_rows`` says how many rows one holds."""

    #: ``(table, ctx)``
    seq_scan: Callable[..., Operator]
    #: ``(table, attribute, low, high, ctx)``
    index_scan: Callable[..., Operator]
    #: ``(child, filters, ctx, node)``
    filter: Callable[..., Operator]
    #: ``(join, outer, inner, ctx)`` per method; ``inner`` is ``None`` for
    #: index nested loop, which probes the inner relation's index itself.
    joins: dict[JoinMethod, Callable[..., Operator]]
    #: ``(node, child, ctx)`` — the flight wrappers stay per engine: their
    #: event vocabularies are pinned in ``FLIGHT_*.json``.
    flight: Callable[..., Operator]
    chunk_rows: Callable[[object], int]


ROW_ENGINE = Engine(
    seq_scan=SeqScanOp,
    index_scan=IndexScanOp,
    filter=lambda child, filters, ctx, node: FilterChain(child, filters, ctx),
    joins={
        JoinMethod.NESTED_LOOP: NestedLoopJoinOp,
        JoinMethod.INDEX_NESTED_LOOP: (
            lambda join, outer, inner, ctx: IndexNestedLoopJoinOp(
                join, outer, ctx
            )
        ),
        JoinMethod.MERGE: MergeJoinOp,
        JoinMethod.HASH: HashJoinOp,
    },
    flight=FlightOperator,
    chunk_rows=lambda row: 1,
)


def build_operator(
    node: PlanNode, ctx: RuntimeContext, engine: Engine = ROW_ENGINE
) -> Operator:
    """Compile a plan tree into ``engine``'s operator tree (the row
    engine's unless told otherwise): filtered when the node carries
    predicates, instrumented when the context carries a ``node_stats``
    sink, flight-recorded when it carries a ``flight`` recorder,
    monitored when it carries a ``monitor``. The adaptive ``feed`` only
    ever reaches the row engine."""
    feed = ctx.feed
    if isinstance(node, Scan):
        if node.index_attr is not None:
            low, high = node.index_range  # type: ignore[misc]
            operator = engine.index_scan(
                node.table, node.index_attr, low, high, ctx
            )
        else:
            operator = engine.seq_scan(node.table, ctx)
        if feed is not None and id(node) == feed.leaf_id:
            operator = LeafFeedOperator(operator, feed)
    elif isinstance(node, Join):
        outer = build_operator(node.outer, ctx, engine)
        inner = (
            None
            if node.method is JoinMethod.INDEX_NESTED_LOOP
            else build_operator(node.inner, ctx, engine)
        )
        operator = engine.joins[node.method](node, outer, inner, ctx)
    else:
        raise PlanError(f"cannot execute node type: {type(node).__name__}")
    if node.filters or feed is not None:
        operator = engine.filter(operator, node.filters, ctx, node)
    if feed is not None and id(node) in feed.tap_ids:
        operator = TapOperator(node, operator, feed)
    if ctx.node_stats is not None:
        operator = InstrumentedOperator(
            node, operator, ctx, engine.chunk_rows
        )
    if ctx.flight is not None:
        operator = engine.flight(node, operator, ctx)
    if ctx.monitor is not None:
        operator = MonitoredOperator(node, operator, ctx, engine.chunk_rows)
    return operator
