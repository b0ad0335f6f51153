"""Shared fixtures for the test suite.

A session-scoped synthetic database at a small scale keeps the suite fast;
executions reset meters and counters per run, so sharing is safe. Tests
that mutate catalog contents build their own database.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.catalog.datagen import build_database
from repro.database import Database
from repro.exec import EXECUTORS, Executor
from repro.expr.expressions import Column, Comparison, FuncCall
from repro.expr.predicates import analyze_conjunct
from repro.plan.nodes import Join, JoinMethod, Plan

#: Scale used across the suite: tN has N x 100 tuples (t10 = 1000).
TEST_SCALE = 100


@pytest.fixture(scope="session")
def db() -> Database:
    database = build_database(scale=TEST_SCALE, seed=42)
    from repro.bench.workloads import ensure_workload_functions

    ensure_workload_functions(database)
    return database


@pytest.fixture()
def fresh_db() -> Database:
    """A private database for tests that mutate catalog state."""
    return build_database(scale=20, seed=7)


@pytest.fixture(scope="session")
def tiny_db() -> Database:
    """A very small database for exhaustive/execution-equivalence tests."""
    database = build_database(scale=20, seed=11)
    from repro.bench.workloads import ensure_workload_functions

    ensure_workload_functions(database)
    return database


def equijoin(db: Database, left: tuple[str, str], right: tuple[str, str]):
    """Helper: an analyzed cheap equijoin predicate."""
    return analyze_conjunct(
        db.catalog,
        Comparison("=", Column(*left), Column(*right)),
    )


def costly_filter(db: Database, name: str, column: tuple[str, str]):
    """Helper: an analyzed expensive UDF selection."""
    return analyze_conjunct(db.catalog, FuncCall(name, (Column(*column),)))


#: Joins the vector engine runs batch-native: their per-tuple CPU accrues
#: once per batch (``cost × n``), which rounds differently from ``n``
#: additions. Every other plan node runs the row operator and charges
#: exactly what the row engine does.
_BULK_CHARGED = (JoinMethod.NESTED_LOOP, JoinMethod.HASH)


def execute_on(db: Database, plan: Plan, executor: str, **kwargs):
    """Run a hand-built plan on one engine (parametrise over
    :data:`repro.exec.EXECUTORS`). A vector run is also held to the row
    run of the same plan — same row multiset, ``charged``, ``io_charged``
    and ``function_calls``, per-node ``rows_out`` when instrumented —
    so every plan shape a test executes is a differential case too."""
    assert executor in EXECUTORS
    result = Executor(db, executor=executor).execute(plan, **kwargs)
    if executor == "vector":
        exact = not any(
            isinstance(node, Join) and node.method in _BULK_CHARGED
            for node in plan.root.walk()
        )
        for instrument in (False, True):
            row = Executor(db).execute(plan, instrument=instrument, **kwargs)
            # An odd batch size, so the adaptors re-chunk mid-stream.
            vector = Executor(db, executor="vector", batch_rows=7).execute(
                plan, instrument=instrument, **kwargs
            )
            assert Counter(vector.rows) == Counter(row.rows)
            assert vector.charged == (
                row.charged if exact else pytest.approx(row.charged)
            )
            for metric in ("io_charged", "function_calls"):
                assert vector.metrics[metric] == row.metrics[metric], metric
            if instrument:
                assert {
                    key: stats.rows_out
                    for key, stats in vector.node_stats.items()
                } == {
                    key: stats.rows_out
                    for key, stats in row.node_stats.items()
                }
    return result
