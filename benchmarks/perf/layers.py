"""Layer probes of the traced run: one public function timed on its own.

Each probe returns ``{metric name: value}``. Names, units and the
end-to-end metric each should move are tabulated in README.md. The op
loop's own spans (``worker.py``) cover compile / optimize / explain /
execute; the probes here cover what an op never isolates — interpreter
start, imports, data generation, bulk loading, the bare UDF call path and
the cost of each instrument when it is on.
"""

from __future__ import annotations

import random
import subprocess
from statistics import median
from time import perf_counter

from config import ROOT, child_env, python

_IMPORT_CLI = "import repro.__main__"


def _wall(command: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        check=True,
    )
    return perf_counter() - start, done


def startup(repeats: int = 3) -> dict[str, float]:
    """Interpreter start, the CLI's import closure, numpy's part of it."""
    interp = median(_wall(python("-c", "pass"))[0] for _ in range(repeats))
    imported = median(
        _wall(python("-c", _IMPORT_CLI))[0] for _ in range(repeats)
    )
    _, listing = _wall(python(
        "-X", "importtime", "-c",
        f"{_IMPORT_CLI}; import sys; print(len(sys.modules))",
    ))
    numpy_us = 0
    for line in listing.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indent><module>"
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            numpy_us = int(parts[1])
    return {
        "startup.interp_ms": interp * 1e3,
        "startup.import_ms": (imported - interp) * 1e3,
        "startup.numpy_ms": numpy_us / 1e3,
        "startup.modules": int(listing.stdout.split()[-1]),
    }


def datagen_storage(scale: int, seed: int) -> dict[str, float]:
    """``build_database``'s three parts, each through its own public
    function: column generation, heap inserts, B-tree bulk loads."""
    from repro.catalog.datagen import (
        DEFAULT_COLUMNS,
        DEFAULT_RELATIONS,
        generate_column,
        relation_cardinality,
    )
    from repro.catalog.schema import RelationSchema
    from repro.database import Database
    from repro.storage.btree import BTree
    from repro.storage.heap import HeapFile

    scratch = Database.empty()
    page_size = scratch.params.page_size
    columns_s = heap_s = btree_s = 0.0
    pages = 0
    for name in DEFAULT_RELATIONS:
        schema = RelationSchema.from_names(name, list(DEFAULT_COLUMNS))
        cardinality = relation_cardinality(name, scale)
        rng = random.Random(f"{seed}/{name}")
        start = perf_counter()
        data = [
            generate_column(cardinality, attribute.repetition, rng)
            for attribute in schema.attributes
        ]
        columns_s += perf_counter() - start
        rows = list(zip(*data))
        heap = HeapFile(name, schema.tuple_width, scratch.pool, page_size)
        start = perf_counter()
        rids = [heap.insert(row) for row in rows]
        heap_s += perf_counter() - start
        pages += heap.pages
        for position, attribute in enumerate(schema.attributes):
            if not attribute.indexed:
                continue
            pairs = [(row[position], rid) for row, rid in zip(rows, rids)]
            index = BTree(f"{name}_{attribute.name}", scratch.pool, page_size)
            start = perf_counter()
            index.bulk_load(pairs)
            btree_s += perf_counter() - start
            pages += index.pages
    return {
        "datagen.columns_ms": columns_s * 1e3,
        "storage.heap_load_ms": heap_s * 1e3,
        "storage.btree_load_ms": btree_s * 1e3,
        "storage.pages": pages,
        "storage.bytes": pages * page_size,
    }


def functions(db, calls: int = 200_000) -> dict[str, float]:
    """The bare UDF call path: batch form (vector engine) and scalar
    form (row engine) of a two-argument synthetic predicate."""
    function = db.catalog.functions.get("expjoin10")
    bindings = [(index, index % 997) for index in range(calls)]
    start = perf_counter()
    function.call_batch(bindings)
    batch_s = perf_counter() - start
    start = perf_counter()
    for left, right in bindings:
        function(left, right)
    scalar_s = perf_counter() - start
    function.reset()
    return {
        "functions.batch_calls_per_s": calls / batch_s,
        "functions.scalar_calls_per_s": calls / scalar_s,
    }


def optimizer_extras(db, sqls: dict[str, str]) -> dict[str, float]:
    """Planning times the op loop does not sample: ldl-ikkbz (outside the
    default line-up; on the queries it accepts) and the Section 4.4
    five-way join under the two strategies that dominate its cost."""
    from repro import compile_query, optimize
    from repro.bench.workloads import build_workload
    from repro.errors import OptimizerError

    def plan_ms(sql: str, strategy: str) -> float:
        query = compile_query(db, sql)
        start = perf_counter()
        optimize(db, query, strategy)
        return (perf_counter() - start) * 1e3

    ikkbz = []
    for sql in sqls.values():
        try:
            ikkbz.append(plan_ms(sql, "ldl-ikkbz"))
        except OptimizerError:
            continue
    fiveway = build_workload(db, "fiveway").sql
    return {
        "optimizer.plan_ms.ldl-ikkbz": median(ikkbz) if ikkbz else 0.0,
        "optimizer.plan_ms.fiveway_migration": median(
            plan_ms(fiveway, "migration") for _ in range(3)
        ),
        "optimizer.plan_ms.fiveway_exhaustive": median(
            plan_ms(fiveway, "exhaustive") for _ in range(3)
        ),
    }


def obs_ratios(db, sql: str, executor: str, repeats: int = 10) -> dict[str, float]:
    """Cost of each instrument when it is on: q1/pushdown executed with
    one sink attached ÷ with none. Configurations are interleaved so
    drift over the probe hits all of them alike."""
    from repro import Executor, Tracer, compile_query, optimize
    from repro.obs import (
        FeedbackCollector,
        FlightRecorder,
        PhaseProfiler,
        RuntimeMonitor,
    )

    plan = optimize(db, compile_query(db, sql), "pushdown").plan
    sinks = {
        "base": lambda: ({}, False),
        "instrument": lambda: ({}, True),
        "collector": lambda: ({"collector": FeedbackCollector()}, False),
        "monitor": lambda: ({"monitor": RuntimeMonitor()}, False),
        "flight": lambda: ({"flight": FlightRecorder()}, False),
        "tracer": lambda: (
            {"tracer": Tracer(), "profiler": PhaseProfiler()}, False
        ),
    }
    seconds: dict[str, list[float]] = {name: [] for name in sinks}
    for _ in range(repeats):
        for name, attach in sinks.items():
            keywords, instrument = attach()
            runner = Executor(db, executor=executor, **keywords)
            start = perf_counter()
            runner.execute(plan, instrument=instrument)
            seconds[name].append(perf_counter() - start)
    base = median(seconds.pop("base"))
    return {
        f"obs.{name}_ratio": median(samples) / base
        for name, samples in seconds.items()
    }


def adaptive_honest_ratio(seed: int, repeats: int = 5) -> dict[str, float]:
    """Wall-clock side of "exactly neutral on honest stats": adapt_honest
    under ``AdaptivePolicy()`` ÷ the static run, row engine, at the adapt
    bench's own scale. A fresh database per execution, as in
    ``repro.adaptive.bench``: the controller may re-place predicates on
    the live plan."""
    from repro import Executor, build_database, optimize
    from repro.adaptive import AdaptivePolicy
    from repro.adaptive.workloads import build_adapt_workload

    seconds: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(repeats):
        for adaptive in (False, True):
            db = build_database(scale=100, seed=seed, relations=("t2", "t3"))
            query = build_adapt_workload(db, "adapt_honest").query
            plan = optimize(db, query, "migration").plan
            policy = AdaptivePolicy() if adaptive else None
            start = perf_counter()
            Executor(db, adaptive=policy).execute(plan)
            seconds[adaptive].append(perf_counter() - start)
    return {
        "adaptive.honest_ratio": median(seconds[True]) / median(seconds[False])
    }


def cache_miss_path(db, sql: str, budget: float | None) -> dict[str, float]:
    """q5/migration once with the predicate cache on: every binding of
    the expensive join is distinct, so the cache only ever misses."""
    from repro import Executor, compile_query, optimize

    plan = optimize(db, compile_query(db, sql), "migration", caching=True).plan
    runner = Executor(db, caching=True, budget=budget, executor="vector")
    start = perf_counter()
    runner.execute(plan)
    return {"exec.cache.miss_path_ms": (perf_counter() - start) * 1e3}
