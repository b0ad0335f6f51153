"""The one predicate evaluator of ``exec/``.

The paper charges ``invocations × cost`` and runs no work inside a UDF
(Section 2), so everything between "a binding arrives" and "a verdict plus
a charge" is simulator machinery, and it is written once, here:
:class:`PredicateRunner` compiles one predicate and evaluates it for both
engines.

A *binding* is the tuple of the predicate's ``input_columns()`` values in
declaration order — the predicate cache's key. Every regime runs the same
compiled kernel (:func:`~repro.expr.expressions.compile_kernel`) or, for
an AND/OR tree, the same rank-ordered short-circuit walk, and differs only
in how it groups charges and sink reports:

* **one at a time** (:meth:`PredicateRunner.row_evaluator`, the row
  engine): evaluate, then charge, per binding; each sink sees each
  evaluation. The single-binding chain is built once per runner, innermost
  first: *base* (cache lookup → kernel or walk → charge → cache store),
  then the *containment retry loop* when the context carries a
  :class:`~repro.exec.containment.ContainmentState`, then the
  *per-evaluation sink bracket* when it carries a collector or monitor —
  so the bracket's meter delta is what the evaluation really charged (zero
  on a cache hit or a quarantined binding) and a retried attempt is
  observed once.
* **a batch at a time** (:meth:`PredicateRunner.evaluate_bindings`, the
  vector engine): detached, charges accrue in bulk (``cost × n`` per
  batch) and the predicate cache resolves the whole batch at once
  (:meth:`~repro.exec.cache.PredicateCache.resolve`), its misses going
  through the same uncached batch evaluator; with a collector, monitor
  or containment attached, the same base → containment chain runs per
  binding and the sinks get one bulk report per batch.

Totals — verdicts, ``function_calls``, ``function_charged``, cache
hits/misses/entries, observation tallies, retry and quarantine counts —
are identical across regimes (``tests/test_predicate_runner.py``); only
the meter reading *inside* a batch differs, and a batch that aborts
leaves the cache nothing and tallies nothing. ``Expr.evaluate`` stays in
:mod:`repro.expr.expressions` as the semantics reference the kernel is
tested against; nothing in ``exec/`` calls it.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_, itemgetter
from typing import TYPE_CHECKING, Callable

from repro.errors import UdfError
from repro.expr.expressions import (
    _COMPARATORS,
    Column,
    Comparison,
    Const,
    FuncCall,
    Scope,
    compile_kernel,
    inapplicable,
)
from repro.expr.predicates import BoolBranch, BoolLeaf, Predicate
from repro.storage.columnar import ColumnBatch, mask_count

if TYPE_CHECKING:
    from repro.exec.operators import RuntimeContext


def _compile_tree_walk(
    tree: BoolBranch, scope: Scope, functions, meter
) -> Callable[[tuple], bool]:
    """Compile a cost-ordered boolean tree into a short-circuit closure.

    Children run in the tree's (rank-ordered) sequence; AND stops at the
    first non-true child, OR at the first true one — a cost *and*
    correctness policy (Kim/Ileri/Madden), stated here only. Each
    expensive leaf that actually runs charges its per-call cost right
    after it evaluates, so a UDF failure leaves the leaf uncharged,
    exactly like a whole predicate. SQL NULL collapses to ``False``,
    which is sound for filtering. Pass ``meter=None`` under
    function-level caching, where the memoising wrappers do their own
    charging.
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


class PredicateRunner:
    """Evaluates one predicate with charging, caching, containment and
    observation, one binding at a time or a batch at a time.

    Predicate-cache contents and hit/miss totals match across regimes
    whenever the cache is unbounded (bounded caches are order-sensitive).
    A WHERE conjunct only passes bindings it is *true* for: SQL NULL is
    ``False`` here.
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
        compound = predicate.is_compound
        self._walk = self._kernel = None
        if compound:
            meter = None if self.function_mode else ctx.meter
            self._walk = _compile_tree_walk(
                predicate.tree, self.scope, functions, meter
            )
        else:
            self._kernel = compile_kernel(
                predicate.expr, self.scope, functions
            )
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
            not compound
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
            not compound
            and not predicate.is_expensive
            and isinstance(expr, Comparison)
        ):
            left, right = expr.left, expr.right
            op = _COMPARATORS[expr.op]
            if isinstance(left, Column) and isinstance(right, Const):
                self._column_compare = (op, right.value, False)
            elif isinstance(left, Const) and isinstance(right, Column):
                self._column_compare = (op, left.value, True)
        #: base → containment: what the attached batch regime runs per
        #: binding, and what the row regime brackets per evaluation.
        self._chain = self._base()
        if ctx.containment is not None:
            self._chain = self._contained(self._chain)

    # -- the single-binding chain --------------------------------------------

    def _base(self) -> Callable[[tuple], bool]:
        """One uncontained evaluation attempt: evaluate, then charge."""
        walk = self._walk
        kernel = self._kernel
        charge = self.ctx.meter.charge_function
        cost = self.predicate.cost_per_tuple
        if self.caching and not self.function_mode:
            miss = walk  # charges its own leaves
            if walk is None:

                def miss(binding: tuple) -> object:
                    value = kernel(binding)
                    charge(cost)
                    return value

            cached = self.ctx.cache.memoised(self.predicate.pred_id, miss)
            return lambda binding: cached(binding) is True
        if walk is not None:
            return walk
        if self.function_mode or not self.predicate.is_expensive:
            # The memoising wrappers charge per uncached call; a free
            # predicate charges nothing.
            return lambda binding: kernel(binding) is True

        def charged(binding: tuple) -> bool:
            value = kernel(binding)
            charge(cost)
            return value is True

        return charged

    def _contained(
        self, evaluate: Callable[[tuple], bool]
    ) -> Callable[[tuple], bool]:
        """Bounded retries with simulated-clock backoff, then the
        policy's on-exhaustion verdict with the binding quarantined."""
        containment = self.ctx.containment
        predicate = self.predicate
        retries = containment.policy.retries

        def contained(binding: tuple) -> bool:
            attempts = 0
            while True:
                try:
                    value = evaluate(binding)
                except UdfError as error:
                    containment.note_failure()
                    if attempts < retries:
                        containment.wait_before_retry(attempts, error)
                        attempts += 1
                        continue
                    # Exhausted (``abort`` re-raises; the executor turns
                    # it into a structured DNF result).
                    return containment.quarantine(
                        predicate, binding, error, attempts + 1
                    )
                if attempts:
                    containment.note_recovered()
                return value

        return contained

    def _observed(
        self, evaluate: Callable[[tuple], bool]
    ) -> Callable[[tuple], bool]:
        """Report each evaluation's verdict and what it actually charged
        (one meter bracket shared by both sinks)."""
        predicate = self.predicate
        meter = self.ctx.meter
        collector = self.ctx.collector
        monitor = self.ctx.monitor

        def observed(binding: tuple) -> bool:
            before = meter.function_charged
            value = evaluate(binding)
            charged = meter.function_charged - before
            if collector is not None:
                collector.observe(predicate, value, charged)
            if monitor is not None:
                monitor.observe_predicate(predicate, value, charged)
            return value

        return observed

    # -- one at a time: the row engine ---------------------------------------

    def input_slots(self, scope: Scope) -> list[int]:
        """Where the binding's columns sit in rows of ``scope``."""
        return [scope.slot(*column) for column in self.scope.columns]

    def row_evaluator(self, scope: Scope) -> Callable[[tuple], bool]:
        """The predicate as a plain ``row -> bool`` over rows of
        ``scope``, with the binding's slots resolved once."""
        evaluate = self._chain
        if self.ctx.collector is not None or self.ctx.monitor is not None:
            evaluate = self._observed(evaluate)
        slots = self.input_slots(scope)
        if len(slots) == 1:
            (slot,) = slots
            return lambda row: evaluate((row[slot],))
        if not slots:
            return lambda row: evaluate(())
        binding_of = itemgetter(*slots)
        return lambda row: evaluate(binding_of(row))

    # -- a batch at a time: the vector engine --------------------------------

    def evaluate_batch(
        self, batch: ColumnBatch, slots: list[int]
    ) -> bytearray:
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
                try:
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
                except TypeError as error:
                    raise inapplicable(self.predicate, error) from None
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
        if (
            ctx.collector is not None
            or ctx.monitor is not None
            or ctx.containment is not None
        ):
            return self._evaluate_attached(bindings)
        if not bindings:
            return bytearray()
        if self.caching and not self.function_mode:
            verdicts = ctx.cache.resolve(
                self.predicate.pred_id, bindings, self._evaluate_uncached
            )
        else:
            verdicts = self._evaluate_uncached(bindings)
            if self._direct_function is not None:
                # batch-form verdicts are bools, which pack straight
                # into the selection mask at C speed.
                return bytearray(verdicts)
        return bytearray(map(is_, verdicts, repeat(True)))

    def _evaluate_uncached(self, bindings: list[tuple]) -> list[object]:
        """One verdict (``True`` / ``False`` / NULL) per binding, every
        one evaluated, charged in bulk — also what a batch's cache
        misses run."""
        predicate = self.predicate
        meter = self.ctx.meter
        if self._direct_function is not None:
            verdicts = self._direct_function.call_batch(bindings)
            if predicate.is_expensive:
                meter.charge_function(predicate.cost_per_tuple, len(bindings))
            return verdicts
        if self._walk is not None:
            return list(map(self._walk, bindings))  # charges its own leaves
        verdicts = list(map(self._kernel, bindings))
        if predicate.is_expensive and not self.function_mode:
            meter.charge_function(predicate.cost_per_tuple, len(bindings))
        return verdicts

    def pair_evaluator(
        self, inner_vals: list, position: int
    ) -> Callable[[object], bytearray | list[bool]]:
        """For a nested-loop primary reading one column per side: a
        function from an outer row's value to the selection mask over
        the inner rows, whose values ``inner_vals`` are binding column
        ``position``.

        A direct, uncached, unobserved, uncontained function call takes
        the function's curried pair form when it has one — the verdicts,
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
            and ctx.containment is None
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

    def _evaluate_attached(self, bindings: list[tuple]) -> bytearray:
        """Attached regime: the single-binding chain per binding, each
        bracketed with the meter's function-charge delta so the bulk
        sink reports carry the exact per-call costs the one-at-a-time
        regime reports."""
        mask = bytearray(len(bindings))
        if not bindings:
            return mask
        meter = self.ctx.meter
        evaluate_one = self._chain
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


def live_filter(
    filters: list[Predicate], scope: Scope, ctx: RuntimeContext
) -> Callable[[tuple], bool]:
    """``row -> bool`` for the conjunction of a *live* predicate list over
    rows of ``scope``, short-circuiting in list order.

    The list is re-read on every row — an adaptive re-plan splices
    ``node.filters`` in place mid-query — and each predicate is compiled
    the first time it is met, keyed by ``pred_id``.
    """
    compiled: dict[int, Callable[[tuple], bool]] = {}

    def passes(row: tuple) -> bool:
        for predicate in filters:
            evaluate = compiled.get(predicate.pred_id)
            if evaluate is None:
                evaluate = compiled[predicate.pred_id] = PredicateRunner(
                    predicate, ctx
                ).row_evaluator(scope)
            if not evaluate(row):
                return False
        return True

    return passes
