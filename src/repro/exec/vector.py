"""Batch-at-a-time (vectorized) execution: the row executor's fast twin.

Operators here speak the same protocol as the row engine's — an iterable
of chunks with a scope — with a :class:`~repro.storage.columnar.
ColumnBatch` as the chunk instead of a single row, and two speed levers
over the row engine (predicates run the same compiled
:class:`~repro.exec.predicate.PredicateRunner` on both):

* **selection vectors** — filters fill a byte mask and gather survivors
  column-at-a-time, so each expensive-UDF call is made (and charged)
  only for selection-vector survivors;
* **bulk metering** — per-tuple CPU and rescan-I/O charges accrue once
  per batch (``cost × n``) instead of once per row.

A batch twin exists only where a ``BENCHMARK.json`` workload executes it:
sequential scan, filter, nested-loop join and hash join. Merge join, index
scan and index nested-loop join run through the *row* operators between
two adaptors (:class:`RowsOfBatches`, :class:`BatchesOfRows`), so those
nodes charge exactly what the row engine charges.

Charging parity is the contract: a completed vector run charges exactly
what the row executor charges (same ``charged``, ``io_charged``,
``function_charged``, ``function_calls``, and — with unbounded caches —
the same hit/miss counts), and produces the identical row multiset. Runs
that exceed the cost budget DNF in both executors (charges accrue
monotonically to the same total), though the partial ``charged`` at
abort time may differ because batches charge in groups — and so may the
cache's hit/miss tallies and entries, which an aborted batch leaves
untouched.

Failure containment and the FeedbackCollector / RuntimeMonitor sinks are
the runner's business: with any of them attached it evaluates one binding
at a time inside the batch (retry/quarantine semantics, and the chaos
suite's subset/superset audits, are the row engine's) and reports to the
sinks once per batch via their ``observe_batch`` /
``observe_predicate_batch`` / ``on_rows`` bulk hooks. Detached, they cost
nothing.
"""

from __future__ import annotations

import time
from itertools import compress
from operator import concat, itemgetter
from typing import Iterator

from repro.errors import ExecutionError
from repro.exec.operators import (
    ROW_ENGINE,
    BatchNodeStats,
    Engine,
    HashJoinOp,
    NestedLoopJoinOp,
    Operator,
    RuntimeContext,
    SeqScanOp,
    _scope_width,
    batch_node_stats,
    build_operator,
)
from repro.exec.predicate import PredicateRunner
from repro.expr.expressions import Scope
from repro.expr.predicates import Predicate
from repro.obs.quality import fmt_stat
from repro.plan.display import _node_label
from repro.plan.nodes import Join, JoinMethod, PlanNode
from repro.storage.columnar import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    batches_from_heap,
    batches_from_rows,
)
from repro.storage.meter import IOKind


# -- batch-granular actuals (EXPLAIN ANALYZE companion data) -----------------


class BatchPredicateStats:
    """Batch-granular actuals for one predicate in a filter chain.

    ``rows_in`` counts rows that reached this predicate (survivors of the
    predicates before it in the chain), ``rows_out`` the rows its
    selection mask kept — so ``rows_in / chain_rows`` is the selection-
    vector density *before* the predicate and ``rows_out / chain_rows``
    the density after it. ``kernel_seconds`` is the wall-clock spent
    inside ``evaluate_batch`` (the compiled kernel plus masking), and the
    cache deltas give this predicate's hit rate under caching runs.
    """

    __slots__ = (
        "predicate",
        "batches",
        "rows_in",
        "rows_out",
        "kernel_seconds",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = str(predicate)
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0
        self.kernel_seconds = 0.0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def selectivity(self) -> float:
        if self.rows_in <= 0:
            return float("nan")
        return self.rows_out / self.rows_in

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        if lookups <= 0:
            return float("nan")
        return self.cache_hits / lookups

    def as_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "batches": self.batches,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "selectivity": fmt_stat(self.selectivity),
            "kernel_seconds": self.kernel_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


# -- batch operators ---------------------------------------------------------


class BatchSeqScan(SeqScanOp):
    def __init__(
        self, table: str, ctx: RuntimeContext, batch_rows: int
    ) -> None:
        super().__init__(table, ctx)
        self.batch_rows = batch_rows

    def __iter__(self) -> Iterator[ColumnBatch]:
        return batches_from_heap(self.entry.heap, self.scope, self.batch_rows)


class BatchFilter(Operator):
    """Applies an ordered predicate list batch-at-a-time.

    Each predicate fills a selection mask over the current survivors and
    the batch is compacted before the next predicate runs — so, exactly
    like the row engine's short-circuiting chain, predicate *k* only
    ever evaluates (and charges for) rows that passed predicates
    ``< k``.
    """

    def __init__(
        self,
        child: Operator,
        filters: list[Predicate],
        ctx: RuntimeContext,
        node: PlanNode,
    ) -> None:
        self.child = child
        self.filters = filters
        self.ctx = ctx
        self.scope = child.scope
        self.node_key = id(node)
        #: Product of the chain's declared selectivities — what the
        #: optimizer expected the chain to keep (for the monitor's
        #: density-based refinement).
        self.declared_selectivity = 1.0
        for predicate in filters:
            self.declared_selectivity *= float(predicate.selectivity)
        self._stats: BatchNodeStats | None = None
        self._pred_stats: list[BatchPredicateStats] = []
        if ctx.batch_stats is not None:
            self._stats = batch_node_stats(ctx, node)
            self._pred_stats = [BatchPredicateStats(p) for p in filters]
            self._stats.predicates.extend(self._pred_stats)
        #: The monitor's per-batch density callback, or ``None``.
        self._on_filter_batch = (
            ctx.monitor.on_filter_batch if ctx.monitor is not None else None
        )
        self._runners = [
            (runner, runner.input_slots(self.scope))
            for runner in (PredicateRunner(p, ctx) for p in filters)
        ]

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        runners = self._runners
        stats = self._stats
        on_filter_batch = self._on_filter_batch
        if stats is None and on_filter_batch is None:
            # Detached fast path: no stats branch anywhere in the loop.
            for batch in self.child:
                for runner, slots in runners:
                    if batch.length == 0:
                        break
                    mask = runner.evaluate_batch(batch, slots)
                    batch = batch.take(mask)
                if batch.length:
                    yield batch
            return
        pred_stats = self._pred_stats or [None] * len(runners)
        cache = ctx.cache
        for batch in self.child:
            rows_in = batch.length
            if stats is not None:
                stats.rows_in.observe(float(rows_in))
            for (runner, slots), pstats in zip(runners, pred_stats):
                if batch.length == 0:
                    break
                if pstats is None:
                    mask = runner.evaluate_batch(batch, slots)
                    batch = batch.take(mask)
                    continue
                hits_before = cache.stats.hits if cache is not None else 0
                misses_before = (
                    cache.stats.misses if cache is not None else 0
                )
                started = time.perf_counter()
                mask = runner.evaluate_batch(batch, slots)
                pstats.kernel_seconds += time.perf_counter() - started
                pstats.batches += 1
                pstats.rows_in += batch.length
                batch = batch.take(mask)
                pstats.rows_out += batch.length
                if cache is not None:
                    pstats.cache_hits += cache.stats.hits - hits_before
                    pstats.cache_misses += (
                        cache.stats.misses - misses_before
                    )
            if on_filter_batch is not None:
                on_filter_batch(
                    self.node_key,
                    rows_in,
                    batch.length,
                    self.declared_selectivity,
                )
            if batch.length:
                yield batch


class _BatchBuilder:
    """Accumulates joined rows and flushes fixed-size column batches."""

    def __init__(self, scope: Scope, batch_rows: int) -> None:
        self.scope = scope
        self.batch_rows = batch_rows
        self.rows: list[tuple] = []

    def drain(self) -> Iterator[ColumnBatch]:
        rows = self.rows
        size = self.batch_rows
        full = len(rows) - len(rows) % size
        for start in range(0, full, size):
            yield ColumnBatch.from_rows(self.scope, rows[start : start + size])
        # One front-deletion for all emitted chunks (one per chunk is
        # quadratic in the pending rows), and in place: callers hold
        # aliases to ``self.rows``.
        del rows[:full]

    def flush(self) -> Iterator[ColumnBatch]:
        if self.rows:
            # Copy before clearing: batches no longer copy on
            # construction, and callers alias ``self.rows``.
            rows = list(self.rows)
            self.rows.clear()
            yield ColumnBatch.from_rows(self.scope, rows)


class BatchNestedLoopJoin(NestedLoopJoinOp):
    """Nested loop over batches.

    The primary evaluates per pair through a compiled
    :class:`PredicateRunner` — the same O(|R|·|S|) walk the row operator
    does, one outer row against the whole inner side at a time (through
    :meth:`PredicateRunner.pair_evaluator` when the primary reads one
    column per side). All metering (inner materialisation CPU,
    per-outer-tuple CPU and rescan I/O, primary-predicate function
    charges) totals exactly what the row operator charges.
    """

    def __init__(
        self,
        join: Join,
        outer: Operator,
        inner: Operator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        super().__init__(join, outer, inner, ctx)
        self.batch_rows = batch_rows
        outer_scope, inner_scope = outer.scope, inner.scope
        self._getters = [
            (True, outer_scope.slot(table, attribute))
            if (table, attribute) in outer_scope
            else (False, inner_scope.slot(table, attribute))
            for table, attribute in join.primary.input_columns()
        ]

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        inner_rows: list[tuple] = []
        for batch in self.inner:  # filters evaluated once, here
            inner_rows.extend(batch.iter_rows())
        ctx.meter.charge_cpu(ctx.params.cpu_per_tuple * len(inner_rows))
        rescan_pages = self.rescan_pages(len(inner_rows))
        out = _BatchBuilder(self.scope, self.batch_rows)
        yield from self._pairwise(inner_rows, rescan_pages, out)
        yield from out.flush()

    def _pairwise(
        self,
        inner_rows: list[tuple],
        rescan_pages: int,
        out: _BatchBuilder,
    ) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        meter = ctx.meter
        cpu = ctx.params.cpu_per_tuple
        pending = out.rows
        runner = self.runner
        getters = self._getters
        # Two-column one-per-side primaries (the common UDF join shape,
        # e.g. ``expjoin10(t7.a, t3.a)``): the inner side's values
        # materialise once, and each outer row's single value is
        # evaluated against them in one call.
        two_col = (
            len(getters) == 2 and getters[0][0] is not getters[1][0]
        )
        if two_col and inner_rows:
            inner_position = int(getters[0][0])
            inner_slot = getters[inner_position][1]
            outer_slot = getters[1 - inner_position][1]
            mask_for = runner.pair_evaluator(
                [row[inner_slot] for row in inner_rows], inner_position
            )
            for obatch in self.outer:
                n = obatch.length
                meter.charge_cpu(cpu * n)
                meter.charge_io(IOKind.SEQUENTIAL, rescan_pages * n)
                for outer_row in obatch.rows:
                    mask = mask_for(outer_row[outer_slot])
                    for inner_row in compress(inner_rows, mask):
                        pending.append(outer_row + inner_row)
                yield from out.drain()
            return
        for obatch in self.outer:
            n = obatch.length
            meter.charge_cpu(cpu * n)
            meter.charge_io(IOKind.SEQUENTIAL, rescan_pages * n)
            if inner_rows:
                for outer_row in obatch.rows:
                    bindings = [
                        tuple(
                            (outer_row if from_outer else inner_row)[slot]
                            for from_outer, slot in getters
                        )
                        for inner_row in inner_rows
                    ]
                    mask = runner.evaluate_bindings(bindings)
                    for inner_row in compress(inner_rows, mask):
                        pending.append(outer_row + inner_row)
            yield from out.drain()


class BatchHashJoin(HashJoinOp):
    """Hash join; build/probe CPU and Grace-spill charges mirror the row
    operator (bulk-charged per batch).

    Build and probe run at C speed: the table is ``dict(zip(keys, rows))``
    and a batch probes with ``map(table.get, keys)``, whose result doubles
    as the batch's selection vector. The table maps a key to its *row*
    when the build proves the keys unique (as many entries as rows — the
    key–foreign-key join), and to the list of its rows otherwise. NULL
    keys never match.
    """

    def __init__(
        self,
        join: Join,
        outer: Operator,
        inner: Operator,
        ctx: RuntimeContext,
        batch_rows: int,
    ) -> None:
        super().__init__(join, outer, inner, ctx)
        self.batch_rows = batch_rows

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        meter = ctx.meter
        cpu = ctx.params.cpu_per_tuple
        inner_rows: list[tuple] = []
        for batch in self.inner:
            meter.charge_cpu(cpu * batch.length)
            inner_rows.extend(batch.rows)
        inner_count = len(inner_rows)
        inner_key = itemgetter(self.inner_slot)
        table: dict = dict(zip(map(inner_key, inner_rows), inner_rows))
        unique = len(table) == inner_count
        if not unique:
            table = {}
            for inner_row in inner_rows:
                table.setdefault(inner_key(inner_row), []).append(inner_row)
        del inner_rows  # the table holds them while the probe runs
        table.pop(None, None)
        inner_width = _scope_width(self.inner.scope, ctx.catalog)
        inner_pages = ctx.params.pages_for(inner_count, inner_width)
        out = _BatchBuilder(self.scope, self.batch_rows)
        pending = out.rows
        outer_key = itemgetter(self.outer_slot)
        if inner_pages > ctx.params.hash_memory_pages:
            # Grace hash join: partition both sides to disk and back.
            outer_batches = list(self.outer)
            outer_count = sum(batch.length for batch in outer_batches)
            outer_width = _scope_width(self.outer.scope, ctx.catalog)
            outer_pages = ctx.params.pages_for(outer_count, outer_width)
            meter.charge_io(
                IOKind.SEQUENTIAL, 2 * int(inner_pages + outer_pages)
            )
        else:
            outer_batches = self.outer
        for obatch in outer_batches:
            meter.charge_cpu(cpu * obatch.length)
            # An inner row or a non-empty bucket per matching outer row,
            # None for the rest: the probe's selection vector.
            found = list(map(table.get, map(outer_key, obatch.rows)))
            matching = compress(obatch.rows, found)
            if unique:
                pending.extend(map(concat, matching, filter(None, found)))
            else:
                for outer_row, bucket in zip(matching, filter(None, found)):
                    for inner_row in bucket:
                        pending.append(outer_row + inner_row)
            yield from out.drain()
        yield from out.flush()


# -- flight recorder wrapper -------------------------------------------------


class FlightBatchOperator(Operator):
    """Transparent wrapper feeding the execution flight recorder.

    One bounded event per emitted batch (the ring buffer caps total
    retention), plus monitor progress snapshots at power-of-two batch
    counts so a postmortem can show how far along the plan believed it
    was. Only constructed when the context carries a ``flight``
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

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        flight = self.flight
        meter = ctx.meter
        monitor = ctx.monitor
        label = self.label
        count = 0
        for batch in self.child:
            count += 1
            flight.record(
                "batch",
                op=label,
                batch=count,
                rows=batch.length,
                charged=meter.charged,
            )
            if monitor is not None and (count & (count - 1)) == 0:
                flight.record(
                    "progress",
                    op=label,
                    batch=count,
                    fraction=round(monitor.progress(), 6),
                )
            yield batch
        flight.record(
            "op.done", op=label, batches=count, charged=meter.charged
        )


# -- the row adaptors and the engine's operator table ------------------------


class RowsOfBatches(Operator):
    """batches→rows: a row operator over a batch operator."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.scope = child.scope

    def __iter__(self) -> Iterator[tuple]:
        for batch in self.child:
            yield from batch.iter_rows()


class BatchesOfRows(Operator):
    """rows→batches: a batch operator over a row operator."""

    def __init__(self, child: Operator, batch_rows: int) -> None:
        self.child = child
        self.batch_rows = batch_rows
        self.scope = child.scope

    def __iter__(self) -> Iterator[ColumnBatch]:
        return batches_from_rows(self.scope, self.child, self.batch_rows)


def vector_engine(batch_rows: int) -> Engine:
    """The vector engine's operator table for one batch size.

    The adaptor rule: a batch twin exists only where a ``BENCHMARK.json``
    workload executes it. Every other plan node runs the row engine's
    operator, fed rows by :class:`RowsOfBatches` and re-chunked by
    :class:`BatchesOfRows`.
    """

    def through_rows(row_join):
        def build(join, outer, inner, ctx):
            rows = row_join(
                join,
                RowsOfBatches(outer),
                None if inner is None else RowsOfBatches(inner),
                ctx,
            )
            return BatchesOfRows(rows, batch_rows)

        return build

    row_joins = ROW_ENGINE.joins
    return Engine(
        seq_scan=lambda table, ctx: BatchSeqScan(table, ctx, batch_rows),
        index_scan=lambda *args: BatchesOfRows(
            ROW_ENGINE.index_scan(*args), batch_rows
        ),
        filter=BatchFilter,
        joins={
            JoinMethod.NESTED_LOOP: (
                lambda *args: BatchNestedLoopJoin(*args, batch_rows)
            ),
            JoinMethod.HASH: lambda *args: BatchHashJoin(*args, batch_rows),
            JoinMethod.MERGE: through_rows(row_joins[JoinMethod.MERGE]),
            JoinMethod.INDEX_NESTED_LOOP: through_rows(
                row_joins[JoinMethod.INDEX_NESTED_LOOP]
            ),
        },
        flight=FlightBatchOperator,
        chunk_rows=len,  # ColumnBatch.__len__
    )


class VectorPlanRunner(RowsOfBatches):
    """Row-iterable adapter over a batch-operator tree — what the
    executor facade runs when ``executor="vector"``."""

    def __init__(
        self,
        node: PlanNode,
        ctx: RuntimeContext,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ) -> None:
        if ctx.feed is not None:
            # Defensive: batch operators snapshot compiled predicate
            # runners at build time and park remainder rows between
            # operators, so a mid-query re-plan has no safe splice
            # point here. The executor facade routes adaptive runs to
            # the row engine (batch-rows cadence); reaching this branch
            # means a caller wired a feed straight into the vector
            # path.
            raise ExecutionError(
                "adaptive re-optimization requires the row engine; "
                "the vector path cannot splice a re-planned suffix"
            )
        super().__init__(build_operator(node, ctx, vector_engine(batch_rows)))

    def run_into(self, rows: list[tuple]) -> None:
        """Collect all output rows with batch-level extends."""
        for batch in self.child:
            rows.extend(batch.iter_rows())
