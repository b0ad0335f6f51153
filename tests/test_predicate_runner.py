"""The one predicate evaluator, held to itself and to hand-written figures.

``PredicateRunner`` serves the row engine one binding at a time
(``row_evaluator``) and the vector engine a batch at a time
(``evaluate_bindings``). Both regimes must agree on everything a run
reports — verdicts, charges, UDF calls, cache traffic, sink tallies,
retry and quarantine counts — across the configuration lattice, and the
uncontained charges must be the ones worked out by hand below.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.datagen import build_database
from repro.errors import BudgetExceededError, UdfError
from repro.exec.cache import PredicateCache
from repro.exec.containment import ContainmentState, FailurePolicy
from repro.exec.operators import RuntimeContext
from repro.exec.predicate import PredicateRunner
from repro.expr.expressions import (
    Column,
    Comparison,
    Const,
    FuncCall,
    Logical,
    Scope,
)
from repro.expr.predicates import BoolBranch, analyze_conjunct
from repro.obs.feedback import FeedbackCollector
from repro.obs.runtime_telemetry import RuntimeMonitor

#: Composite rows: a pad column the predicates never read (so a binding
#: is not the row), then ``a`` and ``b``. Rows 3 and 6 repeat rows 1 and 2.
SCOPE = Scope([("t3", "ua1"), ("t3", "a1"), ("t3", "u20")])
ROWS = [
    (70, 1, 0),
    (71, 2, 1),
    (72, 1, 0),
    (73, 3, 1),
    (74, 4, 0),
    (75, 2, 1),
    (76, 5, 0),
    (77, 6, 1),
]
A, B = Column("t3", "a1"), Column("t3", "u20")

#: ``even(a)`` costs 10, ``small(b)`` (``b < 1``) costs 4, both declared
#: at selectivity 0.5 — so ``small`` has the lower rank and runs first in
#: the AND tree and in the OR tree.
EVEN_COST, SMALL_COST = 10.0, 4.0


def expression(shape: str, costly: bool):
    if costly:
        first, second = FuncCall("even", (A,)), FuncCall("small", (B,))
    else:
        first = Comparison("<", A, Const(3))
        second = Comparison("=", B, Const(1))
    if shape == "lone":
        return first
    return Logical(shape.upper(), (first, second))


T, F = True, False
#: (cache mode, shape) -> verdicts, function_charged, meter function_calls,
#: cache hits, misses, entries — expensive predicates, nothing attached.
#:
#: lone ``even(a)``: 8 calls; a ∈ {1,2,1,3,4,2,5,6} has 6 distinct values.
#: AND: ``small(b)`` runs on all 8 rows, ``even(a)`` on the 4 with b = 0
#:   (a = 1,1,4,5): 8·4 + 4·10 = 72 in 12 charges. Cached per predicate,
#:   the 6 distinct (a, b) miss: three walks stop after ``small`` (4 each)
#:   and three run both leaves (14 each) = 54 in 9 charges. Cached per
#:   function, ``small`` is called for b ∈ {0,1} and ``even`` for
#:   a ∈ {1,4,5}: 2·4 + 3·10 = 38; lookups 8 + 4 = 12, of which 5 miss.
#: OR: ``even(a)`` runs on the 4 rows with b = 1 (a = 2,3,2,6): the same
#:   totals with a ∈ {2,3,6} under the function cache.
EXPECTED = {
    (None, "lone"): ([F, T, F, F, T, T, F, T], 80.0, 8, 0, 0, 0),
    ("predicate", "lone"): ([F, T, F, F, T, T, F, T], 60.0, 6, 2, 6, 6),
    ("function", "lone"): ([F, T, F, F, T, T, F, T], 60.0, 6, 2, 6, 6),
    (None, "and"): ([F, F, F, F, T, F, F, F], 72.0, 12, 0, 0, 0),
    ("predicate", "and"): ([F, F, F, F, T, F, F, F], 54.0, 9, 2, 6, 6),
    ("function", "and"): ([F, F, F, F, T, F, F, F], 38.0, 5, 7, 5, 5),
    (None, "or"): ([T, T, T, F, T, T, T, T], 72.0, 12, 0, 0, 0),
    ("predicate", "or"): ([T, T, T, F, T, T, T, T], 54.0, 9, 2, 6, 6),
    ("function", "or"): ([T, T, T, F, T, T, T, T], 38.0, 5, 7, 5, 5),
}
#: Free predicates charge nothing and are never cached.
EXPECTED_FREE = {
    "lone": [T, T, T, F, F, T, F, F],
    "and": [F, T, F, F, F, T, F, F],
    "or": [T, T, T, T, F, T, F, T],
}


def run(regime, cache_mode, shape, costly, attach):
    """One regime over ROWS on a private database; returns everything a
    run reports, keyed by name (nothing keyed by ``pred_id``, which is
    process-global)."""
    db = build_database(
        scale=1, seed=1, relations=("t3",), register_functions=False
    )
    flaky = set()

    def even(a):
        if attach == "containment":
            # a = 5 fails for good; a = 3 fails once, then recovers.
            if a == 5:
                raise UdfError("even", transient=False)
            if a == 3 and a not in flaky:
                flaky.add(a)
                raise UdfError("even", transient=True)
        return a % 2 == 0

    functions = db.catalog.functions
    functions.register("even", even, cost_per_call=EVEN_COST)
    functions.register("small", lambda b: b < 1, cost_per_call=SMALL_COST)
    predicate = analyze_conjunct(db.catalog, expression(shape, costly))
    assert isinstance(predicate.tree, BoolBranch) == (shape != "lone")
    ctx = RuntimeContext(
        catalog=db.catalog,
        meter=db.meter,
        params=db.params,
        caching=cache_mode is not None,
        cache_mode=cache_mode or "predicate",
        collector=FeedbackCollector() if attach == "collector" else None,
        monitor=RuntimeMonitor() if attach == "monitor" else None,
        containment=(
            ContainmentState(FailurePolicy(retries=2, on_exhausted="skip-row"))
            if attach == "containment"
            else None
        ),
    )
    runner = PredicateRunner(predicate, ctx)
    if regime == "rows":
        evaluate = runner.row_evaluator(SCOPE)
        verdicts = [evaluate(row) for row in ROWS]
    else:
        slots = runner.input_slots(SCOPE)
        bindings = [tuple(row[slot] for slot in slots) for row in ROWS]
        verdicts = [bit == 1 for bit in runner.evaluate_bindings(bindings)]
    report = {
        "verdicts": verdicts,
        "function_charged": db.meter.function_charged,
        "function_calls": db.meter.function_calls,
        "udf_calls": {
            name: functions.get(name).calls for name in ("even", "small")
        },
    }
    if ctx.cache is not None:
        stats = ctx.cache.stats
        report["cache"] = (stats.hits, stats.misses, ctx.cache.total_entries())
    if ctx.collector is not None:
        report["collector"] = [
            asdict(observation) for observation in ctx.collector.observations()
        ]
    if ctx.monitor is not None:
        report["monitor"] = [
            (seen.predicate, seen.evaluated, seen.passed, seen.cost.as_dict())
            for seen in ctx.monitor.predicates.values()
        ]
    if ctx.containment is not None:
        report["containment"] = ctx.containment.report.as_dict()
    return report


@pytest.mark.parametrize(
    "attach", [None, "collector", "monitor", "containment"]
)
@pytest.mark.parametrize("costly", [False, True], ids=["free", "expensive"])
@pytest.mark.parametrize("shape", ["lone", "and", "or"])
@pytest.mark.parametrize("cache_mode", [None, "predicate", "function"])
def test_one_at_a_time_equals_one_batch(cache_mode, shape, costly, attach):
    rows = run("rows", cache_mode, shape, costly, attach)
    batch = run("batch", cache_mode, shape, costly, attach)
    assert batch == rows
    if attach == "containment":
        if costly:
            # The permanent fault is reached wherever ``even`` runs on
            # a = 5 (not under OR: b = 0 short-circuits it), the
            # transient one wherever it runs on a = 3 (not under AND).
            contained = rows["containment"]
            assert contained["quarantined"] == (shape != "or")
            assert contained["recovered"] == (shape != "and")
            for entry in contained["entries"]:
                # The binding the UDF saw, not the composite row.
                assert entry["row_preview"] in ("(5,)", "(5, 0)")
        return
    if not costly:
        assert rows["verdicts"] == EXPECTED_FREE[shape]
        assert rows["function_charged"] == 0.0
        assert rows["function_calls"] == 0
        assert rows.get("cache", (0, 0, 0)) == (0, 0, 0)
        return
    verdicts, charged, calls, hits, misses, entries = EXPECTED[
        cache_mode, shape
    ]
    assert rows["verdicts"] == verdicts
    assert rows["function_charged"] == charged
    assert rows["function_calls"] == calls
    assert rows.get("cache", (0, 0, 0)) == (hits, misses, entries)
    if attach == "collector":
        (observation,) = rows["collector"]
        assert observation["evaluated"] == len(ROWS)
        assert observation["passed"] == sum(verdicts)
        assert observation["charged_cost"] == charged
    if attach == "monitor":
        ((_, evaluated, passed, cost),) = rows["monitor"]
        assert (evaluated, passed) == (len(ROWS), sum(verdicts))
        assert cost["count"] == len(ROWS)


# -- a batch at a time ≡ one at a time, as a property -------------------------

#: Few distinct values, so streams repeat bindings heavily — also inside
#: one batch — and NULL components are common.
BINDINGS = st.tuples(
    st.sampled_from([None, 0, 1, 2, 3]), st.sampled_from([None, 0, 1, 2])
)
STREAMS = st.lists(BINDINGS, max_size=40)
#: Batch sizes, cycled over the stream: one binding, a few, everything.
CHOPS = st.lists(
    st.sampled_from([1, 7, 1024]) | st.integers(2, 12), min_size=1, max_size=5
)
SHAPES = ("direct", "nullary", "kernel", "and", "or")
BOUNDS = {
    "unbounded": {},
    "limit": {"max_entries_per_predicate": 2},
    "capacity-fifo": {"max_total_entries": 3},
    "capacity-lru": {"max_total_entries": 3, "replacement": "lru"},
}


def shaped(shape: str):
    if shape == "direct":  # synthetic UDF over exactly the binding: batch form
        return FuncCall("synth", (A, B))
    if shape == "nullary":  # zero-column bindings
        return FuncCall("coin", ())
    if shape == "kernel":  # NULL verdict whenever a or b is NULL
        return Comparison("<", FuncCall("weigh", (A,)), B)
    return Logical(
        shape.upper(), (FuncCall("even", (A,)), FuncCall("small", (B,)))
    )


def stream_run(
    regime, shape, cache_mode, bounds, stream, chops, fail_at=None, budget=None
):
    """``stream`` through one regime on a private database. ``fragile``
    (shape ``"fragile"``: a scalar UDF; ``"fragile-batch"``: the same
    with a batch form, so the predicate is direct) records every binding
    it evaluated and raises on its ``fail_at``-th distinct one."""
    db = build_database(
        scale=1, seed=1, relations=("t3",), register_functions=False
    )
    functions = db.catalog.functions
    functions.register(
        "even", lambda a: None if a is None else a % 2 == 0, cost_per_call=10.0
    )
    functions.register(
        "small", lambda b: None if b is None else b < 1, cost_per_call=4.0
    )
    functions.register(
        "weigh", lambda a: None if a is None else a - 1, cost_per_call=3.0
    )
    functions.register("synth", cost_per_call=7.0, seed=5)
    functions.register("coin", cost_per_call=2.0, seed=6)
    evaluated = set()

    def fragile(a, b):
        if (a, b) not in evaluated and len(evaluated) + 1 == fail_at:
            raise UdfError("fragile", transient=False)
        evaluated.add((a, b))
        return ((a or 0) + (b or 0)) % 2 == 0

    if shape == "fragile-batch":
        fragile.batch = lambda bindings: [fragile(*args) for args in bindings]
    functions.register("fragile", fragile, cost_per_call=5.0)
    expr = (
        FuncCall("fragile", (A, B)) if shape.startswith("fragile")
        else shaped(shape)
    )
    predicate = analyze_conjunct(db.catalog, expr)
    db.meter.budget = budget
    ctx = RuntimeContext(
        catalog=db.catalog,
        meter=db.meter,
        params=db.params,
        caching=True,
        cache=PredicateCache(**bounds),
        cache_mode=cache_mode,
    )
    runner = PredicateRunner(predicate, ctx)
    slots = runner.input_slots(SCOPE)
    assert (shape == "nullary") == (not slots)
    rows = [(70 + i, a, b) for i, (a, b) in enumerate(stream)]
    verdicts, raised = [], None
    try:
        if regime == "rows":
            evaluate = runner.row_evaluator(SCOPE)
            for row in rows:
                verdicts.append(evaluate(row))
        else:
            bindings = [tuple(row[slot] for slot in slots) for row in rows]
            start = turn = 0
            while start < len(bindings):
                size = chops[turn % len(chops)]
                mask = runner.evaluate_bindings(bindings[start:start + size])
                verdicts.extend(bit == 1 for bit in mask)
                start, turn = start + size, turn + 1
    except (UdfError, BudgetExceededError) as error:
        raised = (type(error), getattr(error, "function", None))
    stats = ctx.cache.stats
    report = {
        "verdicts": verdicts,
        "raised": raised,
        "cache": (stats.hits, stats.misses, stats.evictions),
        "entries": ctx.cache.total_entries(),
        "function_calls": db.meter.function_calls,
        "function_charged": db.meter.function_charged,
        "udf_calls": {
            name: functions.get(name).calls for name in functions.names()
        },
    }
    held = {
        binding for binding in set(stream)
        if ctx.cache.lookup(predicate.pred_id, binding)[0]
    }
    return report, held, evaluated


@pytest.mark.parametrize("bounds", list(BOUNDS))
@pytest.mark.parametrize("cache_mode", ["predicate", "function"])
@given(shape=st.sampled_from(SHAPES), stream=STREAMS, chops=CHOPS)
@settings(max_examples=60, deadline=None)
def test_batches_equal_the_stream(cache_mode, bounds, shape, stream, chops):
    """However a stream is chopped into batches, the batch regime reports
    what the row regime reports — for a bounded cache too, because both
    present it the same sequential stream."""
    rows, _, _ = stream_run(
        "rows", shape, cache_mode, BOUNDS[bounds], stream, chops
    )
    batch, _, _ = stream_run(
        "batch", shape, cache_mode, BOUNDS[bounds], stream, chops
    )
    assert batch == rows
    assert rows["raised"] is None and len(rows["verdicts"]) == len(stream)
    hits, misses, evictions = rows["cache"]
    if cache_mode == "predicate":
        assert hits + misses == len(stream)
        if bounds == "unbounded":
            distinct = len(set(stream)) if shape != "nullary" else bool(stream)
            assert (misses, rows["entries"], evictions) == (
                distinct, distinct, 0
            )


@pytest.mark.parametrize("shape", ["fragile", "fragile-batch"])
@given(
    stream=STREAMS, chops=CHOPS, fail_at=st.integers(1, 8),
    trip_at=st.integers(1, 8), failure=st.sampled_from(["udf", "budget"]),
)
@settings(max_examples=80, deadline=None)
def test_aborted_batches_cache_nothing_unevaluated(
    shape, stream, chops, fail_at, trip_at, failure
):
    """A UDF that raises on its k-th distinct binding (no containment),
    or a budget that trips inside a batch: both regimes abort alike, and
    no regime's cache holds a verdict that was never evaluated. (Tallies
    and contents inside the aborted batch are batch-granular.)"""
    options = (
        {"fail_at": fail_at} if failure == "udf"
        else {"budget": 5.0 * trip_at - 0.5}
    )
    reports = {
        regime: stream_run(
            regime, shape, "predicate", {}, stream, chops, **options
        )
        for regime in ("rows", "batch")
    }
    (rows, rows_held, rows_seen), (batch, batch_held, batch_seen) = (
        reports["rows"], reports["batch"]
    )
    assert batch["raised"] == rows["raised"]
    assert rows_held <= rows_seen and batch_held <= batch_seen
    if rows["raised"] is None:
        assert batch == rows
    else:
        done = len(batch["verdicts"])  # whole batches before the abort
        assert batch["verdicts"] == rows["verdicts"][:done]
        assert set(stream[:done]) <= batch_held <= rows_held
