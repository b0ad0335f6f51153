"""Placement policies: the per-join pullup rules of Sections 4.1–4.3.

A policy is the strategy-specific piece of the System R enumerator. It is
consulted twice: when a base scan is formed (how to order that table's
selections) and every time a join node is constructed (which filters to pull
up from the two inputs). Policies mutate freshly-cloned nodes, so shared
subplans in the DP table are never corrupted.

The public hooks (:meth:`PlacementPolicy.place_scan`,
:meth:`PlacementPolicy.on_join`) wrap the policy bodies in profiler phases
(``policy.<name>.place_scan`` / ``policy.<name>.on_join``) so hotspot
tables and Chrome traces cover every strategy uniformly; subclasses
override the underscored bodies (``_place_scan`` / ``_on_join``). When a
provenance ledger is attached, the bodies also record the decisions
themselves — rank orderings, hoists, rank-vs-join-rank comparisons — as
typed :mod:`repro.obs.provenance` events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.model import CostModel, PerInput
from repro.expr.predicates import Predicate
from repro.obs.provenance import NULL_LEDGER, skeleton_signature
from repro.obs.profile import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER
from repro.plan.nodes import Join, PlanNode, Scan


def rank_sorted(predicates: list[Predicate]) -> list[Predicate]:
    """Ascending rank — the optimal execution order for selections
    (Section 4.1). Free predicates (rank −∞) come first."""
    return sorted(predicates, key=lambda predicate: predicate.rank)


@dataclass
class JoinContext:
    """What a policy sees when one join is constructed."""

    outer_rows: float
    inner_rows: float
    per_input: PerInput


class PlacementPolicy:
    """Default behaviour: classic pushdown with rank-ordered selections."""

    name = "base"

    def __init__(self) -> None:
        #: Per-planning decision counts (pullups performed/declined, …),
        #: harvested into :attr:`OptimizedPlan.notes` by the planner.
        self.counters: dict[str, int] = {}
        #: Decision-trace sink; the planner swaps in a live tracer.
        self.tracer = NULL_TRACER
        #: Phase-time sink; the planner swaps in a live profiler.
        self.profiler = NULL_PROFILER
        #: Placement-decision sink; the planner swaps in a live ledger.
        self.ledger = NULL_LEDGER
        self._scan_phase = f"policy.{self.name}.place_scan"
        self._join_phase = f"policy.{self.name}.on_join"

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- public hooks (profiled wrappers) --------------------------------

    def place_scan(
        self, scan: Scan, selections: list[Predicate], model: CostModel
    ) -> None:
        if self.profiler.enabled:
            with self.profiler.phase(self._scan_phase):
                self._place_scan(scan, selections, model)
        else:
            self._place_scan(scan, selections, model)

    def on_join(
        self, join: Join, model: CostModel, ctx: JoinContext
    ) -> bool:
        """Mutate the join's (cloned) inputs; return True to mark the
        subplan unpruneable (used only by Predicate Migration)."""
        if self.profiler.enabled:
            with self.profiler.phase(self._join_phase):
                return self._on_join(join, model, ctx)
        return self._on_join(join, model, ctx)

    # -- policy bodies (override these) ----------------------------------

    def _place_scan(
        self, scan: Scan, selections: list[Predicate], model: CostModel
    ) -> None:
        scan.filters = rank_sorted(selections)
        recording = self.ledger.enabled
        if recording and selections:
            self.ledger.record(
                "scan.rank_order",
                table=scan.table,
                order=[str(p) for p in scan.filters],
                ranks=[p.rank for p in scan.filters],
            )
        # Disjunctive conjuncts additionally record their intra-tree
        # short-circuit order (Kim/Ileri/Madden generalisation): the
        # tree's children were rank-ordered at analysis time and its
        # cost_per_tuple is the expected short-circuit cost. Only
        # emitted when a boolean tree is present, so conjunctive
        # workloads' provenance is byte-identical. The count is a plan
        # note, so it does not depend on whether a ledger is attached.
        for predicate in scan.filters:
            if predicate.is_compound:
                self.count("disjunctions_ordered")
                if recording:
                    self.ledger.record(
                        "scan.disjunction_order",
                        table=scan.table,
                        predicate=str(predicate),
                        tree=str(predicate.tree),
                        expected_cost=predicate.cost_per_tuple,
                    )

    def _on_join(
        self, join: Join, model: CostModel, ctx: JoinContext
    ) -> bool:
        return False

    # -- shared pull helpers ---------------------------------------------

    @staticmethod
    def _pull(
        join: Join,
        source: PlanNode,
        chosen: list[Predicate],
        model: CostModel,
    ) -> None:
        if not chosen:
            return
        for predicate in chosen:
            source.filters.remove(predicate)
        join.filters = rank_sorted(join.filters + chosen)
        # The source's filter list changed under it; drop any memoised
        # estimate so the join's estimate sees the post-pull input.
        model.forget(source)


class PushDownPolicy(PlacementPolicy):
    """PushDown+ (Section 4.1): never pull; only rank-order selections."""

    name = "pushdown"


class PullUpPolicy(PlacementPolicy):
    """PullUp (Section 4.2): every costly selection is pulled to the very
    top of each enumerated subplan."""

    name = "pullup"

    def _on_join(
        self, join: Join, model: CostModel, ctx: JoinContext
    ) -> bool:
        for source in (join.outer, join.inner):
            expensive = [p for p in source.filters if p.is_expensive]
            if expensive and self.ledger.enabled:
                side = "outer" if source is join.outer else "inner"
                signature = skeleton_signature(join)
                for predicate in expensive:
                    self.ledger.record(
                        "pullup.hoist",
                        predicate=str(predicate),
                        predicate_rank=predicate.rank,
                        side=side,
                        join=str(join.primary),
                        join_signature=signature,
                        outer_rows=ctx.outer_rows,
                        inner_rows=ctx.inner_rows,
                    )
            self._pull(join, source, expensive, model)
            if expensive:
                self.count("pullups", len(expensive))
        return False


class PullRankPolicy(PlacementPolicy):
    """PullRank (Section 4.3): pull a filter above the new join exactly when
    its rank exceeds the join's rank for that input. Considers only the
    filters at the top of each input — one join at a time, no multi-join
    group pullups (the Figure 6 failure mode)."""

    name = "pullrank"

    #: When True, declining to pull an expensive predicate marks the subplan
    #: unpruneable — the System R modification Predicate Migration needs.
    mark_unpruneable = False

    def _on_join(
        self, join: Join, model: CostModel, ctx: JoinContext
    ) -> bool:
        unpruneable = False
        for source, input_rank, input_selectivity, input_cost in (
            (
                join.outer,
                ctx.per_input.outer_rank,
                ctx.per_input.outer_selectivity,
                ctx.per_input.outer_cost,
            ),
            (
                join.inner,
                ctx.per_input.inner_rank,
                ctx.per_input.inner_selectivity,
                ctx.per_input.inner_cost,
            ),
        ):
            pulled = [p for p in source.filters if p.rank > input_rank]
            declined_expensive = [
                p
                for p in source.filters
                if p.is_expensive and p.rank <= input_rank
            ]
            if self.ledger.enabled and (pulled or declined_expensive):
                side = "outer" if source is join.outer else "inner"
                signature = skeleton_signature(join)
                for predicate, was_pulled in (
                    [(p, True) for p in pulled]
                    + [(p, False) for p in declined_expensive]
                ):
                    self.ledger.record(
                        "pullrank.compare",
                        predicate=str(predicate),
                        predicate_rank=predicate.rank,
                        join_rank=input_rank,
                        side=side,
                        join=str(join.primary),
                        join_signature=signature,
                        pulled=was_pulled,
                        input_selectivity=input_selectivity,
                        input_cost=input_cost,
                        outer_rows=ctx.outer_rows,
                        inner_rows=ctx.inner_rows,
                    )
            self._pull(join, source, pulled, model)
            if pulled:
                self.count("pullups", len(pulled))
            if declined_expensive:
                self.count("pullups_declined", len(declined_expensive))
                unpruneable = True
            if self.tracer.enabled:
                side = "outer" if source is join.outer else "inner"
                for predicate in pulled:
                    self.tracer.event(
                        "pullrank.pull",
                        predicate=str(predicate),
                        predicate_rank=predicate.rank,
                        join_rank=input_rank,
                        side=side,
                        join=str(join.primary),
                    )
                for predicate in declined_expensive:
                    self.tracer.event(
                        "pullrank.decline",
                        predicate=str(predicate),
                        predicate_rank=predicate.rank,
                        join_rank=input_rank,
                        side=side,
                        join=str(join.primary),
                    )
        return unpruneable and self.mark_unpruneable


class MigrationPhaseOnePolicy(PullRankPolicy):
    """PullRank with unpruneable marking: the enumeration phase of
    Predicate Migration (Section 4.4)."""

    name = "migration-enumeration"
    mark_unpruneable = True
