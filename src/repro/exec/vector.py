"""Batch-at-a-time (vectorized) execution: the row executor's fast twin.

Operators here speak the same protocol as the row engine's — an iterable
of chunks with a scope — with a :class:`~repro.storage.columnar.
ColumnBatch` as the chunk instead of a single row, and three speed levers:

* **compiled kernels** — each predicate's expression tree is compiled
  once into nested closures over binding-slot indices, replacing the
  per-row recursive AST walk (and its per-column ``scope.slot`` dict
  lookups) with direct indexing;
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
abort time may differ because batches charge in groups.

Failure containment (`ctx.containment`) switches predicate evaluation to
the row path's per-tuple contained loop, so retry/quarantine semantics —
and the chaos suite's subset/superset audits — are preserved under
batching. FeedbackCollector / RuntimeMonitor sinks are observed
per batch via their ``observe_batch`` / ``observe_predicate_batch`` /
``on_rows`` bulk hooks, and cost nothing when detached.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Callable, Iterator

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
    evaluate_predicate,
)
from repro.expr.expressions import (
    _ARITHMETIC,
    _COMPARATORS,
    BinaryOp,
    Column,
    Comparison,
    Const,
    Expr,
    FuncCall,
    Logical,
    Not,
    Scope,
)
from repro.expr.predicates import BoolBranch, BoolLeaf, Predicate
from repro.obs.quality import fmt_stat
from repro.plan.display import _node_label
from repro.plan.nodes import Join, JoinMethod, PlanNode
from repro.storage.columnar import (
    DEFAULT_BATCH_ROWS,
    ColumnBatch,
    batches_from_heap,
    batches_from_rows,
    mask_count,
)
from repro.storage.meter import IOKind


# -- kernel compilation ------------------------------------------------------


def compile_kernel(
    expr: Expr, scope: Scope, functions
) -> Callable[[tuple], object]:
    """Compile an expression into a closure over binding tuples.

    Semantics mirror ``Expr.evaluate`` exactly (including three-valued
    NULL propagation); the only difference is that column slots and
    function objects are resolved once, at compile time.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda binding: value
    if isinstance(expr, Column):
        slot = scope.slot(expr.table, expr.attribute)
        return lambda binding: binding[slot]
    if isinstance(expr, FuncCall):
        fn = functions.get(expr.name)
        kernels = tuple(
            compile_kernel(arg, scope, functions) for arg in expr.args
        )
        if len(kernels) == 1:
            arg0 = kernels[0]
            return lambda binding: fn(arg0(binding))
        if len(kernels) == 2:
            arg0, arg1 = kernels
            return lambda binding: fn(arg0(binding), arg1(binding))
        return lambda binding: fn(*(k(binding) for k in kernels))
    if isinstance(expr, (Comparison, BinaryOp)):
        table = _COMPARATORS if isinstance(expr, Comparison) else _ARITHMETIC
        op = table[expr.op]
        left = compile_kernel(expr.left, scope, functions)
        right = compile_kernel(expr.right, scope, functions)

        def binary(binding):
            a = left(binding)
            b = right(binding)
            if a is None or b is None:
                return None
            return op(a, b)

        return binary
    if isinstance(expr, Logical):
        kernels = tuple(
            compile_kernel(operand, scope, functions)
            for operand in expr.operands
        )
        conjunctive = expr.op == "AND"

        def logical(binding):
            # All operands evaluate (three-valued), like Logical.evaluate.
            values = [k(binding) for k in kernels]
            if conjunctive:
                if any(value is False for value in values):
                    return False
                if any(value is None for value in values):
                    return None
                return True
            if any(value is True for value in values):
                return True
            if any(value is None for value in values):
                return None
            return False

        return logical
    if isinstance(expr, Not):
        inner = compile_kernel(expr.operand, scope, functions)

        def negate(binding):
            value = inner(binding)
            if value is None:
                return None
            return not value

        return negate
    raise ExecutionError(
        f"cannot compile expression type: {type(expr).__name__}"
    )


def _compile_tree_walk(
    tree: BoolBranch, scope: Scope, functions, meter
) -> Callable[[tuple], bool]:
    """Compile a cost-ordered boolean tree into a short-circuit closure.

    Each expensive leaf charges its per-call cost right after it
    evaluates (evaluate-then-charge, like the row path's
    ``_evaluate_tree``); pass ``meter=None`` under function-level
    caching, where the memoising wrappers do their own charging.
    """

    def build(node) -> Callable[[tuple], bool]:
        if isinstance(node, BoolLeaf):
            kernel = compile_kernel(node.expr, scope, functions)
            if meter is not None and node.is_expensive:
                cost = node.cost

                def leaf(binding):
                    value = kernel(binding)
                    meter.charge_function(cost)
                    return value is True

                return leaf
            return lambda binding: kernel(binding) is True
        children = tuple(build(child) for child in node.children)
        conjunctive = node.op == "AND"

        def branch(binding):
            for child in children:
                passed = child(binding)
                if passed is not conjunctive:
                    return passed
            return conjunctive

        return branch

    return build(tree)


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


# -- batch predicate evaluation ----------------------------------------------


class PredicateRunner:
    """Evaluates one predicate over binding batches with charging,
    caching, and observation totals identical to the row path's
    ``_evaluate_once``.

    Bindings are tuples of the predicate's ``input_columns()`` values in
    declaration order — exactly the row path's cache key — so predicate-
    cache contents and hit/miss totals match the row executor whenever
    the cache is unbounded (bounded caches are order-sensitive).

    Function costs charge in bulk per batch (``cost × evaluations``,
    via ``charge_function(cost, calls=n)``): total charge, call count,
    and the completed/DNF verdict all match the row executor; only the
    intermediate meter reading inside a batch differs. With feedback or
    telemetry sinks attached, evaluation drops to a per-binding bracket
    so observations carry exact per-call costs.
    """

    def __init__(self, predicate: Predicate, ctx: RuntimeContext) -> None:
        self.predicate = predicate
        self.ctx = ctx
        self.scope = Scope(list(predicate.input_columns()))
        self.caching = (
            ctx.caching
            and predicate.is_expensive
            and predicate.pred_id not in ctx.bypass_ids
        )
        self.function_mode = self.caching and ctx.cache_mode == "function"
        functions = (
            ctx.caching_functions()
            if self.function_mode
            else ctx.catalog.functions
        )
        tree = predicate.tree
        self.compound = isinstance(tree, BoolBranch)
        if self.compound:
            meter = None if self.function_mode else ctx.meter
            self._walk = _compile_tree_walk(tree, self.scope, functions, meter)
            self._kernel = None
        else:
            self._walk = None
            self._kernel = compile_kernel(predicate.expr, self.scope, functions)
        # Batchable-UDF shape: a lone function call whose arguments are
        # exactly the binding columns, in order — then bindings *are*
        # the call's argument tuples and the registry's vectorized
        # entry point applies. Gated on the implementation actually
        # carrying a ``batch`` form (bool-per-binding contract); a
        # fault-injector wrapper strips it, restoring per-call
        # dispatch. (Not under function-level caching, where the
        # memoising wrappers must see each call.)
        expr = predicate.expr
        self._direct_function = None
        if (
            not self.compound
            and not self.function_mode
            and isinstance(expr, FuncCall)
            and all(isinstance(arg, Column) for arg in expr.args)
            and [(arg.table, arg.attribute) for arg in expr.args]
            == list(predicate.input_columns())
        ):
            function = ctx.catalog.functions.get(expr.name)
            if function.batch_form is not None:
                self._direct_function = function
        # Free column-vs-constant comparisons (`t10.a20 < 5`) evaluate
        # column-at-a-time: one packed-column scan into the mask, no
        # binding tuples, no charges (the predicate is free).
        self._column_compare = None
        if (
            not self.compound
            and not predicate.is_expensive
            and isinstance(expr, Comparison)
        ):
            left, right = expr.left, expr.right
            op = _COMPARATORS[expr.op]
            if isinstance(left, Column) and isinstance(right, Const):
                self._column_compare = (op, right.value, False)
            elif isinstance(left, Const) and isinstance(right, Column):
                self._column_compare = (op, left.value, True)

    # One binding, mirroring `_evaluate_once`'s three paths. Used by the
    # observed (per-binding bracketed) regime only.
    def _evaluate_one(self, binding: tuple) -> bool:
        if self.function_mode:
            if self.compound:
                return self._walk(binding)
            return self._kernel(binding) is True
        if self.caching:
            cache = self.ctx.cache
            found, value = cache.lookup(self.predicate.pred_id, binding)
            if not found:
                if self.compound:
                    value = self._walk(binding)
                else:
                    value = self._kernel(binding)
                    self.ctx.meter.charge_function(
                        self.predicate.cost_per_tuple
                    )
                cache.store(self.predicate.pred_id, binding, value)
            return value is True
        if self.compound:
            return self._walk(binding)
        value = self._kernel(binding)
        if self.predicate.is_expensive:
            self.ctx.meter.charge_function(self.predicate.cost_per_tuple)
        return value is True

    def evaluate_batch(self, batch: ColumnBatch, slots: list[int]) -> bytearray:
        """Fill a selection mask over a whole batch, reading columns
        directly when the predicate shape allows it."""
        ctx = self.ctx
        if self._column_compare is not None and ctx.collector is None:
            # A monitor alone does not force the per-binding bracketed
            # regime: the predicate is free (every charge is zero), so
            # the observation can be reported in bulk from the mask —
            # same density information, none of the per-row overhead.
            op, const, reversed_ = self._column_compare
            if const is None:  # comparisons against NULL never pass
                mask = bytearray(batch.length)
            else:
                column = batch.column(slots[0])
                if reversed_:
                    mask = bytearray(
                        (v is not None and op(const, v)) is True
                        for v in column
                    )
                else:
                    mask = bytearray(
                        (v is not None and op(v, const)) is True
                        for v in column
                    )
            monitor = ctx.monitor
            if monitor is not None and batch.length:
                monitor.observe_predicate_batch(
                    self.predicate, batch.length, mask_count(mask), ()
                )
            return mask
        return self.evaluate_bindings(_bindings_from_batch(batch, slots))

    def evaluate_bindings(self, bindings: list[tuple]) -> bytearray:
        """Fill a selection mask over one batch of bindings."""
        ctx = self.ctx
        if ctx.collector is not None or ctx.monitor is not None:
            return self._evaluate_observed(bindings)
        n = len(bindings)
        mask = bytearray(n)
        if not n:
            return mask
        predicate = self.predicate
        if self.caching and not self.function_mode:
            # Predicate-level cache: per-binding lookups (hit/miss
            # parity with the row path), misses charged in bulk.
            cache = ctx.cache
            lookup = cache.lookup
            store = cache.store
            pred_id = predicate.pred_id
            walk = self._walk
            kernel = self._kernel
            misses = 0
            for i, binding in enumerate(bindings):
                found, value = lookup(pred_id, binding)
                if not found:
                    if walk is not None:
                        value = walk(binding)  # charges its own leaves
                    else:
                        value = kernel(binding)
                        misses += 1
                    store(pred_id, binding, value)
                if value is True:
                    mask[i] = 1
            if misses:
                ctx.meter.charge_function(predicate.cost_per_tuple, misses)
            return mask
        if self._direct_function is not None:
            verdicts = self._direct_function.call_batch(bindings)
            if predicate.is_expensive:
                ctx.meter.charge_function(predicate.cost_per_tuple, n)
            # batch-form verdicts are bools, which pack straight into
            # the selection mask at C speed.
            return bytearray(verdicts)
        evaluate = self._walk if self._walk is not None else self._kernel
        for i, binding in enumerate(bindings):
            if evaluate(binding) is True:
                mask[i] = 1
        if (
            self._walk is None
            and not self.function_mode
            and predicate.is_expensive
        ):
            ctx.meter.charge_function(predicate.cost_per_tuple, n)
        return mask

    def pair_evaluator(
        self, inner_vals: list, position: int
    ) -> Callable[[object], bytearray | list[bool]]:
        """For a nested-loop primary reading one column per side: a
        function from an outer row's value to the selection mask over
        the inner rows, whose values ``inner_vals`` are binding column
        ``position``.

        A direct, uncached, unobserved function call takes the
        function's curried pair form when it has one — the verdicts,
        count and per-outer-row charge (evaluate, then charge, so a
        budget abort strikes at the same outer row) are those of
        :meth:`evaluate_bindings`, minus the binding tuples and the
        per-pair re-hash of the inner value. Everything else builds the
        outer row's bindings and goes through :meth:`evaluate_bindings`.
        """
        ctx = self.ctx
        if (
            self._direct_function is not None
            and not self.caching
            and ctx.collector is None
            and ctx.monitor is None
        ):
            verdicts = self._direct_function.pair_form(inner_vals, position)
            if verdicts is not None:
                if not self.predicate.is_expensive:
                    return verdicts
                charge = ctx.meter.charge_function
                cost = self.predicate.cost_per_tuple
                count = len(inner_vals)

                def charged_verdicts(outer_value: object) -> list[bool]:
                    mask = verdicts(outer_value)
                    charge(cost, count)
                    return mask

                return charged_verdicts
        evaluate = self.evaluate_bindings
        if position == 0:
            return lambda ov: evaluate([(iv, ov) for iv in inner_vals])
        return lambda ov: evaluate([(ov, iv) for iv in inner_vals])

    def _evaluate_observed(self, bindings: list[tuple]) -> bytearray:
        """Attached regime: bracket each evaluation with the meter's
        function-charge delta so batch observations carry the exact
        per-call costs the row path would have reported."""
        mask = bytearray(len(bindings))
        if not bindings:
            return mask
        meter = self.ctx.meter
        evaluate_one = self._evaluate_one
        passed_count = 0
        charges: list[float] = []
        for i, binding in enumerate(bindings):
            before = meter.function_charged
            if evaluate_one(binding):
                mask[i] = 1
                passed_count += 1
            charges.append(meter.function_charged - before)
        collector = self.ctx.collector
        if collector is not None:
            charged_calls = 0
            charged_cost = 0.0
            for charge in charges:
                if charge > 0:
                    charged_calls += 1
                    charged_cost += charge
            collector.observe_batch(
                self.predicate,
                len(charges),
                passed_count,
                charged_calls,
                charged_cost,
            )
        monitor = self.ctx.monitor
        if monitor is not None:
            monitor.observe_predicate_batch(
                self.predicate, len(charges), passed_count, charges
            )
        return mask


def _bindings_from_batch(
    batch: ColumnBatch, slots: list[int]
) -> list[tuple]:
    if not slots:
        return [()] * batch.length
    return list(zip(*(batch.column(slot) for slot in slots)))


def _input_slots(predicate: Predicate, scope: Scope) -> list[int]:
    return [
        scope.slot(table, attribute)
        for table, attribute in predicate.input_columns()
    ]


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
    like the row path's short-circuiting ``all()``, predicate *k* only
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
        if ctx.containment is None:
            self._runners = [
                (PredicateRunner(p, ctx), _input_slots(p, self.scope))
                for p in filters
            ]

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self.ctx
        if ctx.containment is not None:
            # Containment slow path: per-tuple contained evaluation keeps
            # retry, backoff, and quarantine semantics row-identical.
            scope = self.scope
            filters = self.filters
            stats = self._stats
            on_filter_batch = self._on_filter_batch
            for batch in self.child:
                rows_in = batch.length
                mask = bytearray(rows_in)
                for i, row in enumerate(batch.iter_rows()):
                    if all(
                        evaluate_predicate(predicate, row, scope, ctx)
                        for predicate in filters
                    ):
                        mask[i] = 1
                batch = batch.take(mask)
                if stats is not None:
                    stats.rows_in.observe(float(rows_in))
                if on_filter_batch is not None:
                    on_filter_batch(
                        self.node_key,
                        rows_in,
                        batch.length,
                        self.declared_selectivity,
                    )
                if batch.length:
                    yield batch
            return
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
        if ctx.containment is None:
            primary = join.primary
            self._runner = PredicateRunner(primary, ctx)
            outer_scope, inner_scope = outer.scope, inner.scope
            self._getters = [
                (True, outer_scope.slot(table, attribute))
                if (table, attribute) in outer_scope
                else (False, inner_scope.slot(table, attribute))
                for table, attribute in primary.input_columns()
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
        primary = self.join.primary
        contained = ctx.containment is not None
        pending = out.rows
        scope = self.scope
        if contained:
            for obatch in self.outer:
                n = obatch.length
                meter.charge_cpu(cpu * n)
                meter.charge_io(IOKind.SEQUENTIAL, rescan_pages * n)
                for outer_row in obatch.rows:
                    for inner_row in inner_rows:
                        row = outer_row + inner_row
                        if evaluate_predicate(primary, row, scope, ctx):
                            pending.append(row)
                yield from out.drain()
            return
        runner = self._runner
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
    operator (bulk-charged per batch)."""

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
        inner_slot = self.inner_slot
        table: dict[object, list[tuple]] = {}
        inner_count = 0
        for batch in self.inner:
            meter.charge_cpu(cpu * batch.length)
            inner_count += batch.length
            for inner_row in batch.iter_rows():
                table.setdefault(inner_row[inner_slot], []).append(inner_row)
        inner_width = _scope_width(self.inner.scope, ctx.catalog)
        inner_pages = ctx.params.pages_for(inner_count, inner_width)
        out = _BatchBuilder(self.scope, self.batch_rows)
        pending = out.rows
        outer_slot = self.outer_slot
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
            for outer_row in obatch.rows:
                matched = table.get(outer_row[outer_slot])
                if matched:
                    for inner_row in matched:
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
