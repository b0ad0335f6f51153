"""The predicate cache across the configuration lattice, on both engines.

420 cells — q1–q5, qor and ldl_example × six strategies × predicate- and
function-level caching × {unbounded, ``cache_limit``, ``cache_capacity``
FIFO and LRU, ``cache_bypass``} — each run on the row and the vector
engine. Everything a completed run reports (rows, charge, UDF calls,
hits, misses, evictions, entries) must agree between the engines; a
bounded cache is order-sensitive by contract, so where a join presents
bindings to the engines in different orders only its rows must.

Run as a script to compare two commits cell by cell (cells that did not
complete are skipped: what an aborted batch leaves in the cache is
batch-granular)::

    PYTHONPATH=<parent>/src python tests/test_cache_sweep.py > parent.json
    PYTHONPATH=src python tests/test_cache_sweep.py --against parent.json
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib

import pytest

from repro import Executor, build_database, optimize
from repro.bench import DEFAULT_STRATEGIES
from repro.bench.workloads import build_all

QUERIES = ("q1", "q2", "q3", "q4", "q5", "qor", "ldl_example")
CACHE_MODES = ("predicate", "function")
#: Bounds small enough to evict at the test scale.
CACHE_CONFIGS = {
    "unbounded": {},
    "limit": {"cache_limit": 3},
    "capacity-fifo": {"cache_capacity": 5},
    "capacity-lru": {"cache_capacity": 5, "cache_replacement": "lru"},
    "bypass": {"cache_bypass": True},
}
BOUNDED = ("limit", "capacity-fifo", "capacity-lru")


def sweep(scale: int, seed: int = 42) -> dict[str, dict]:
    """Every cell's report on both engines, keyed
    ``query/strategy/mode/config/executor``."""
    db = build_database(scale=scale, seed=seed)
    workloads = build_all(db)
    cells = {}
    for query in QUERIES:
        workload = workloads[query]
        for strategy in DEFAULT_STRATEGIES:
            plan = optimize(db, workload.query, strategy, caching=True).plan
            for mode in CACHE_MODES:
                for config, options in CACHE_CONFIGS.items():
                    for executor in ("row", "vector"):
                        result = Executor(
                            db,
                            caching=True,
                            cache_mode=mode,
                            budget=workload.budget,
                            executor=executor,
                            **options,
                        ).execute(plan)
                        stats = result.cache_stats
                        rows = sorted(result.rows)
                        key = f"{query}/{strategy}/{mode}/{config}/{executor}"
                        cells[key] = {
                            "completed": result.completed,
                            "rows": len(rows),
                            "rows_crc": zlib.crc32(repr(rows).encode()),
                            "charged": round(result.charged, 6),
                            "function_calls": result.metrics["function_calls"],
                            "hits": stats.hits,
                            "misses": stats.misses,
                            "evictions": stats.evictions,
                            "entries": result.cache_entries,
                        }
    return cells


@pytest.fixture(scope="module")
def cells() -> dict[str, dict]:
    # The smallest database on which q5's expensive join sees rows (its
    # PullUp plan exceeds the budget, as in the paper).
    return sweep(scale=30, seed=9)


def test_sweep_covers_the_lattice(cells):
    assert len(cells) == 2 * 420
    assert {key for key, cell in cells.items() if not cell["completed"]} == {
        key for key in cells if key.startswith("q5/pullup/")
    }
    assert cells["q5/migration/predicate/unbounded/row"]["misses"] > 4000
    assert any(cell["evictions"] for cell in cells.values())
    assert any(cell["hits"] for cell in cells.values())


def test_engines_agree_on_every_completed_cell(cells):
    for key, row in cells.items():
        if not key.endswith("/row") or not row["completed"]:
            continue
        vector = cells[key[: -len("row")] + "vector"]
        if key.split("/")[3] in BOUNDED:
            # Order-sensitive by contract: a join may present bindings
            # to the two engines in different orders.
            assert (vector["rows"], vector["rows_crc"]) == (
                row["rows"], row["rows_crc"]
            ), key
        else:
            assert vector == row, key


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args()
    swept = sweep(args.scale, args.seed)
    if args.against is None:
        print(json.dumps(swept, indent=1, sort_keys=True))
    else:
        with open(args.against) as handle:
            other = json.load(handle)
        differing = [
            key for key, cell in swept.items()
            if cell["completed"] and cell != other[key]
        ]
        print(f"{len(swept)} cells, {len(differing)} differ", *differing)
        sys.exit(1 if differing else 0)
