"""Where the checkout is, what BENCHMARK.json declares, how children run."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from workloads import DEFAULT_STRATEGIES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"

#: Per-layer counts that must repeat bit-for-bit for a given seed (and
#: under any PYTHONHASHSEED); ``--compare`` reports them as same/changed.
EXACT_METRICS = frozenset({
    "charged_cost",
    "startup.modules",
    "storage.pages",
    "storage.bytes",
    "exec.seq_ios",
    "exec.random_ios",
    "exec.udf_calls",
    "exec.cache.hit_ratio",
    "exec.cache.entries",
    "optimizer.subplans_enumerated",
    "optimizer.cost_memo_hit_ratio",
    "pins.drifted",
}) | {f"optimizer.regret_geomean.{strategy}" for strategy in DEFAULT_STRATEGIES}


def load_benchmark() -> dict:
    """BENCHMARK.json: the one place metric names, units, directions and
    bounds are declared."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts.

    ``PYTHONPATH`` pins ``import repro`` to this checkout.
    ``PYTHONDONTWRITEBYTECODE`` is dropped so children use ``__pycache__``
    the way a user's interpreter does; with it set (as in some CI
    containers) every run would recompile all of ``src/`` and a cold op
    would measure the compiler, not the program. ``PYTHONHASHSEED`` is
    pinned unless the caller set one: str-keyed dict and set layouts
    otherwise differ per process, which shows as run-to-run noise in time
    and peak RSS (no count may depend on it; set another value to check).
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(SRC)
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, *args]
