"""The optimizer facade: one call, one strategy name, one plan."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.cost.params import CostParams
from repro.errors import OptimizerError, PlanningTimeout, ReproError
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER, skeleton_signature
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.exhaustive import exhaustive_plan
from repro.optimizer.floor import FLOOR_SAFETY, PlacementFloor
from repro.optimizer.guardrails import sanitize_query
from repro.optimizer.ldl import ldl_plan
from repro.optimizer.ldl_ikkbz import ldl_ikkbz_plan
from repro.optimizer.migration import migrate_plan
from repro.optimizer.policies import (
    MigrationPhaseOnePolicy,
    PullRankPolicy,
    PullUpPolicy,
    PushDownPolicy,
)
from repro.optimizer.query import Query
from repro.optimizer.systemr import SystemRPlanner
from repro.plan.nodes import Plan


def _policy_strategy(policy_factory):
    def strategy(
        query: Query,
        catalog: Catalog,
        model: CostModel,
        bushy: bool = False,
        tracer=NULL_TRACER,
        notes: dict | None = None,
        profiler=NULL_PROFILER,
        ledger=NULL_LEDGER,
    ) -> Plan:
        policy = policy_factory()
        planner = SystemRPlanner(
            catalog, model, policy, bushy=bushy, tracer=tracer,
            profiler=profiler, ledger=ledger,
        )
        with tracer.span("enumerate", policy=policy.name):
            plan = planner.plan(query)
        if notes is not None:
            notes.update(planner.notes())
        return plan

    return strategy


def migration_strategy(
    query: Query,
    catalog: Catalog,
    model: CostModel,
    bushy: bool = False,
    tracer=NULL_TRACER,
    notes: dict | None = None,
    profiler=NULL_PROFILER,
    ledger=NULL_LEDGER,
) -> Plan:
    """Predicate Migration: PullRank enumeration with unpruneable retention,
    then series–parallel migration of the retained plans (Section 4.4).
    With ``bushy=True``, enumeration covers bushy trees and migration runs
    the paper's per-root-to-leaf-path formulation.

    A left-deep candidate whose planning floor (:mod:`repro.optimizer.
    floor`, scaled by ``FLOOR_SAFETY``) is not below the best migrated
    cost so far cannot win — the lowest cost wins, ties to the earliest
    candidate — so its fixpoint is skipped (``plans_skipped`` in the
    notes, a ``migration.skipped`` ledger event). Bushy candidates are
    always migrated. The floor is computed only for a candidate whose
    enumerated cost (which bounds the floor from above) is not below the
    incumbent either, so the first candidate, and every candidate already
    cheaper than the incumbent, pay nothing for it."""
    planner = SystemRPlanner(
        catalog, model, MigrationPhaseOnePolicy(), bushy=bushy,
        tracer=tracer, profiler=profiler, ledger=ledger,
    )
    with tracer.span("enumerate", policy=planner.policy.name):
        candidates = planner.final_candidates(query)
    migration_notes: dict = {"plans_migrated": 0, "plans_skipped": 0}
    best: Plan | None = None
    best_index = -1
    floor: PlacementFloor | None = None
    with tracer.span("migrate", candidates=len(candidates)) as span:
        for index, candidate in enumerate(candidates):
            # The floor is at most the candidate's enumerated cost, so it
            # is only worth computing when that cost cannot win either.
            if (
                best is not None
                and candidate.estimate.cost * FLOOR_SAFETY
                >= best.estimated_cost
            ):
                if floor is None:
                    floor = PlacementFloor(query, catalog, model)
                bound = floor.plan_floor(candidate.node)
                if (
                    bound is not None
                    and bound * FLOOR_SAFETY >= best.estimated_cost
                ):
                    migration_notes["plans_skipped"] += 1
                    if ledger.enabled:
                        ledger.record(
                            "migration.skipped",
                            candidate=index,
                            floor=bound,
                            incumbent=best.estimated_cost,
                        )
                    continue
            migrated = migrate_plan(
                Plan(candidate.node, candidate.estimate.cost,
                     candidate.estimate.rows),
                model,
                tracer=tracer,
                notes=migration_notes,
                profiler=profiler,
                ledger=ledger,
                candidate=index,
            )
            if best is None or migrated.estimated_cost < best.estimated_cost:
                best = migrated
                best_index = index
        assert best is not None
        span.set(best_cost=best.estimated_cost)
    if ledger.enabled:
        ledger.record(
            "migration.select_best",
            candidate=best_index,
            cost=best.estimated_cost,
            signature=skeleton_signature(best.root),
        )
    if notes is not None:
        notes.update(planner.notes())
        notes.update(migration_notes)
    return best


def exhaustive_strategy(
    query: Query,
    catalog: Catalog,
    model: CostModel,
    bushy: bool = False,
    tracer=NULL_TRACER,
    notes: dict | None = None,
    profiler=NULL_PROFILER,
    ledger=NULL_LEDGER,
) -> Plan:
    # Exhaustive placement enumerates left-deep orders; it is already the
    # optimal baseline for the workloads (bushy shapes add nothing for
    # standard joins under the linear model's left-deep assumptions).
    del bushy
    with tracer.span("enumerate", policy="exhaustive"):
        return exhaustive_plan(
            query, catalog, model, tracer=tracer, notes=notes,
            profiler=profiler, ledger=ledger,
        )


STRATEGIES = {
    "pushdown": _policy_strategy(PushDownPolicy),
    "pullup": _policy_strategy(PullUpPolicy),
    "pullrank": _policy_strategy(PullRankPolicy),
    "migration": migration_strategy,
    "ldl": ldl_plan,
    "ldl-ikkbz": ldl_ikkbz_plan,
    "exhaustive": exhaustive_strategy,
}


@dataclass
class OptimizedPlan:
    """A plan plus how it was obtained.

    ``notes`` holds the strategy's decision counts: every strategy reports
    at least ``subplans_enumerated`` and ``subplans_pruned``, plus
    strategy-specific counters (pullup verdicts, migration candidates
    migrated and skipped by the planning floor, fixpoint iterations and
    predicate moves, DP states, exhaustive orders evaluated and pruned,
    interleavings counted).
    """

    plan: Plan
    strategy: str
    planning_seconds: float
    query_name: str = ""
    notes: dict = field(default_factory=dict)
    #: The placement-decision ledger (:mod:`repro.obs.provenance`), set
    #: only when ``optimize(..., ledger=...)`` was given a live ledger.
    provenance: object | None = None

    @property
    def estimated_cost(self) -> float:
        assert self.plan.estimated_cost is not None
        return self.plan.estimated_cost


def optimize(
    db,
    query: Query,
    strategy: str = "migration",
    caching: bool = False,
    global_model: bool = False,
    params: CostParams | None = None,
    bushy: bool = False,
    tracer=None,
    profiler=None,
    ledger=None,
) -> OptimizedPlan:
    """Optimize ``query`` against ``db`` with the named placement strategy.

    ``caching`` switches the cost model to value-based rank arithmetic
    (Section 5.1) — pair it with ``Executor(db, caching=True)``.
    ``global_model`` selects the discarded [HS93a] cost model (ablation).
    ``bushy`` enables bushy join trees for the enumeration-based strategies
    (the paper's suggested fix for LDL's left-deep limitation).
    ``tracer`` (a :class:`repro.obs.Tracer`) records nested spans for each
    optimizer phase and the strategy's per-decision events; the default is
    the zero-overhead null tracer. ``profiler`` (a
    :class:`repro.obs.PhaseProfiler`) accumulates wall-clock per optimizer
    phase — System R enumeration levels, migration fixpoint rounds,
    exhaustive join orders, LDL DP steps — under the same null-object
    default. ``ledger`` (a :class:`repro.obs.ProvenanceLedger`) records the
    placement decisions themselves; when live, it is attached to the
    returned plan as :attr:`OptimizedPlan.provenance`.
    """
    try:
        strategy_fn = STRATEGIES[strategy]
    except KeyError:
        raise OptimizerError(
            f"unknown strategy {strategy!r}; "
            f"choose one of {sorted(STRATEGIES)}"
        ) from None
    tracer = NULL_TRACER if tracer is None else tracer
    profiler = NULL_PROFILER if profiler is None else profiler
    ledger = NULL_LEDGER if ledger is None else ledger
    model = CostModel(
        db.catalog,
        params or db.params,
        caching=caching,
        global_model=global_model,
    )
    notes: dict = {}
    # Guardrails: no nan/out-of-range statistic may reach a rank or a
    # cost comparison, whichever strategy runs. Honest queries are left
    # bit-identical (and fingerprints unchanged); repaired fields are
    # recorded as ``stats.clamp`` ledger events.
    clamped = sanitize_query(query, ledger=ledger)
    if clamped:
        notes["stats_clamped"] = clamped
    started = time.perf_counter()
    with tracer.span(
        "optimize", strategy=strategy, query=query.name, bushy=bushy
    ) as span, profiler.phase(f"optimize.{strategy}"):
        plan = strategy_fn(
            query, db.catalog, model, bushy=bushy, tracer=tracer,
            notes=notes, profiler=profiler, ledger=ledger,
        )
        span.set(estimated_cost=plan.estimated_cost)
    elapsed = time.perf_counter() - started
    return OptimizedPlan(
        plan=plan,
        strategy=strategy,
        planning_seconds=elapsed,
        query_name=query.name,
        notes=notes,
        provenance=ledger if ledger.enabled else None,
    )


#: The graceful-degradation ladder, best plan quality first. Each rung is
#: strictly cheaper to run than the one before it, so falling down the
#: ladder trades plan quality for planning reliability — never the other
#: way around. PushDown is the floor: it is the classical System R
#: behaviour and cannot fail on any query the binder accepts.
DEGRADATION_LADDER = ("exhaustive", "migration", "pullrank", "pushdown")


def optimize_degraded(
    db,
    query: Query,
    strategy: str = "exhaustive",
    ladder: tuple[str, ...] = DEGRADATION_LADDER,
    planning_budget: float | None = None,
    fault_plan=None,
    **kwargs,
) -> OptimizedPlan:
    """Optimize with graceful degradation down the strategy ladder.

    Tries ``strategy`` first, then every ladder rung below it (rungs at
    or above the requested strategy are skipped — falling *up* to a more
    expensive planner would defeat the point). Each rung runs under a
    try/except: a :class:`~repro.errors.ReproError` (strategy crash,
    rejected query shape) or a blown ``planning_budget`` (seconds,
    checked per rung) degrades to the next rung instead of propagating.

    The returned plan's ``notes["degraded"]`` lists what failed and why,
    and each failure is recorded as a ``planner.degraded`` provenance
    event when a live ledger is passed — so ``repro why`` can explain a
    degraded run. Only when *every* rung fails does an
    :class:`~repro.errors.OptimizerError` escape.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) lets chaos
    tests fail specific strategies deterministically via its
    ``planner_faults`` map.
    """
    if strategy not in STRATEGIES:
        raise OptimizerError(
            f"unknown strategy {strategy!r}; "
            f"choose one of {sorted(STRATEGIES)}"
        )
    rungs = [strategy]
    tail = (
        ladder[ladder.index(strategy) + 1:]
        if strategy in ladder
        else ladder
    )
    for rung in tail:
        if rung not in rungs:
            rungs.append(rung)
    ledger = kwargs.get("ledger")
    degraded: list[str] = []
    for index, rung in enumerate(rungs):
        last = index == len(rungs) - 1
        try:
            if fault_plan is not None:
                reason = fault_plan.planner_fault(rung)
                if reason is not None:
                    raise OptimizerError(
                        f"strategy {rung!r} failed: {reason}"
                    )
            optimized = optimize(db, query, strategy=rung, **kwargs)
            if (
                planning_budget is not None
                and optimized.planning_seconds > planning_budget
                and not last
            ):
                raise PlanningTimeout(
                    rung, optimized.planning_seconds, planning_budget
                )
        except ReproError as error:
            note = f"{rung}: {type(error).__name__}: {error}"
            degraded.append(note)
            if ledger is not None and ledger.enabled:
                ledger.record(
                    "planner.degraded",
                    strategy=rung,
                    error=type(error).__name__,
                    detail=str(error),
                    next_rung=None if last else rungs[index + 1],
                )
            if last:
                raise OptimizerError(
                    "every ladder rung failed: " + "; ".join(degraded)
                ) from error
            continue
        if degraded:
            optimized.notes["degraded"] = list(degraded)
            optimized.notes["requested_strategy"] = strategy
        return optimized
    raise OptimizerError("empty strategy ladder")  # pragma: no cover
