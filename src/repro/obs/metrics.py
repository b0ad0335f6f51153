"""A registry of named gauges.

The unified instrumentation surface for the reproduction: planner decision
counts, executor charge ledgers, and wall-clock timings all land here under
dotted names (``plan.*`` for optimizer-side metrics, ``exec.*`` for
executor-side ones), so reports and tests read one flat snapshot instead of
poking at per-layer attributes.

Naming convention (the uniform names the CLI's ``--stats`` prints):

* ``plan.wall_seconds`` — :attr:`OptimizedPlan.planning_seconds`
* ``exec.wall_seconds`` — :attr:`QueryResult.wall_seconds`
* ``exec.charged``, ``exec.random_ios``, … — the meter snapshot
* ``plan.<note>`` — every optimizer decision note

The original attributes remain untouched; :func:`record_run` only mirrors
them into the registry under the uniform names.
"""

from __future__ import annotations


class MetricsRegistry:
    """Named gauges behind one snapshot."""

    def __init__(self) -> None:
        self._gauges: dict[str, float] = {}

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (last write wins)."""
        self._gauges[name] = value

    def snapshot(self) -> dict[str, float]:
        """One flat dict of every metric, dotted-name keyed."""
        return dict(self._gauges)


def record_run(
    registry: MetricsRegistry,
    optimized=None,
    result=None,
) -> MetricsRegistry:
    """Mirror one optimize/execute round into ``registry``.

    Exposes :attr:`OptimizedPlan.planning_seconds` and
    :attr:`QueryResult.wall_seconds` under the uniform names
    ``plan.wall_seconds`` / ``exec.wall_seconds``, the meter snapshot under
    ``exec.*``, and every optimizer note under ``plan.*``. The source
    attributes are read-only here — nothing existing changes shape.
    """
    if optimized is not None:
        registry.gauge("plan.wall_seconds", optimized.planning_seconds)
        registry.gauge("plan.estimated_cost", optimized.estimated_cost)
        for key, value in optimized.notes.items():
            if isinstance(value, (int, float)):
                registry.gauge(f"plan.{key}", float(value))
    if result is not None:
        registry.gauge("exec.wall_seconds", result.wall_seconds)
        registry.gauge("exec.rows", float(result.row_count))
        registry.gauge("exec.completed", float(result.completed))
        for key, value in result.metrics.items():
            registry.gauge(f"exec.{key}", float(value))
        if result.cache_stats is not None:
            registry.gauge("exec.cache_hits", float(result.cache_stats.hits))
            registry.gauge(
                "exec.cache_misses", float(result.cache_stats.misses)
            )
            registry.gauge(
                "exec.cache_evictions", float(result.cache_stats.evictions)
            )
            registry.gauge(
                "exec.cache_entries", float(result.cache_entries)
            )
    return registry
