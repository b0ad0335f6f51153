"""Query optimization: System R join enumeration plus the paper's family of
expensive-predicate placement algorithms.

The entry point is :func:`~repro.optimizer.optimizer.optimize`, which takes a
:class:`~repro.optimizer.query.Query` and a strategy name:

``pushdown``
    PushDown+ — selections below joins, rank-ordered (Section 4.1).
``pullup``
    PullUp — every costly selection at the top of each subplan (Section 4.2).
``pullrank``
    PullRank — per-join rank comparison, one join at a time (Section 4.3).
``migration``
    Predicate Migration — PullRank with unpruneable-subplan retention inside
    System R, then the series–parallel (parallel chains) placement applied
    to every retained plan that could still win, until fixpoint (Section
    4.4); :mod:`~repro.optimizer.floor` decides which could.
``ldl``
    LDL — expensive selections become virtual join steps; left-deep
    enumeration forces pullup from inner inputs (Section 3.1).
``exhaustive``
    Full enumeration of orders and placements; optimal, exponential
    (Table 1).
"""

from repro.optimizer.query import Query, true_predicate
from repro.optimizer.guardrails import sanitize_predicate, sanitize_query
from repro.optimizer.optimizer import (
    DEGRADATION_LADDER,
    STRATEGIES,
    OptimizedPlan,
    optimize,
    optimize_degraded,
)
from repro.optimizer.systemr import SystemRPlanner
from repro.optimizer.migration import migrate_plan
from repro.optimizer.ikkbz import ikkbz_order

__all__ = [
    "DEGRADATION_LADDER",
    "STRATEGIES",
    "OptimizedPlan",
    "Query",
    "SystemRPlanner",
    "ikkbz_order",
    "migrate_plan",
    "optimize",
    "optimize_degraded",
    "sanitize_predicate",
    "sanitize_query",
    "true_predicate",
]
