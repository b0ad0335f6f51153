"""System R-style dynamic-programming join enumeration (left-deep).

This is the substrate every placement algorithm plugs into, as in Montage.
The enumerator keeps, per table subset: the cheapest subplan, the cheapest
subplan per interesting order, and — when the policy requests it — all
*unpruneable* subplans (those still holding an expensive predicate that was
not pulled up; Section 4.4 explains why Predicate Migration must retain
them). Cross products are considered only when no join predicate connects a
subset, per System R tradition.

Performance notes (the chosen plans are identical to the original
frozenset-based enumerator — plan fingerprints gate this in CI):

* DP states are keyed by integer bitmask over the sorted table list, and
  per-table join-edge lists carry precomputed predicate masks, so subset
  connectivity tests are single AND instructions.
* Join inputs are shared, not deep-cloned: the outer is a
  :meth:`~repro.plan.nodes.PlanNode.shallow_copy` (placement policies only
  mutate a node's own filter list) and the inner comes from a per-table
  scan template. Anything that rewrites plans after enumeration
  (Predicate Migration, the executor's debug validation) deep-clones
  first, so the DP table's shared subtrees are never corrupted.
* The cost model memoises estimates per node identity
  (:meth:`~repro.cost.model.CostModel.memo_enable`), so shared subtrees
  are costed once; hit/miss counts surface in :meth:`PlannerStats.as_notes`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel, Estimate
from repro.errors import OptimizerError
from repro.expr.predicates import Predicate
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER, skeleton_signature
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.joinutil import (
    choose_primary,
    eligible_methods,
    index_access,
)
from repro.optimizer.policies import (
    JoinContext,
    PlacementPolicy,
    rank_sorted,
)
from repro.optimizer.query import Query
from repro.plan.nodes import Join, JoinMethod, Plan, PlanNode, Scan


def _shape(node: PlanNode):
    if isinstance(node, Scan):
        return node.table
    assert isinstance(node, Join)
    return (_shape(node.outer), _shape(node.inner))


def _skeleton_key(node: PlanNode) -> tuple:
    """Join-tree shape plus the top join's method — the identity that
    matters to Predicate Migration's post-processing (it re-places all
    movable predicates on the retained skeleton)."""
    top_method = node.method if isinstance(node, Join) else None
    return (_shape(node), top_method)


@dataclass
class Candidate:
    """One retained subplan for a table subset."""

    node: PlanNode
    estimate: Estimate
    unpruneable: bool = False

    @property
    def cost(self) -> float:
        return self.estimate.cost


@dataclass
class PlannerStats:
    """Instrumentation: how much work the enumeration did."""

    joins_built: int = 0
    candidates_kept: int = 0
    unpruneable_kept: int = 0
    base_candidates: int = 0
    subplans_pruned: int = 0
    cost_memo_hits: int = 0
    cost_memo_misses: int = 0

    @property
    def subplans_enumerated(self) -> int:
        """Every subplan constructed: base access paths plus joins."""
        return self.base_candidates + self.joins_built

    def as_notes(self) -> dict:
        """The decision counts every strategy reports in its notes."""
        return {
            "subplans_enumerated": self.subplans_enumerated,
            "subplans_pruned": self.subplans_pruned,
            "candidates_kept": self.candidates_kept,
            "unpruneable_kept": self.unpruneable_kept,
            "cost_memo_hits": self.cost_memo_hits,
            "cost_memo_misses": self.cost_memo_misses,
        }


class SystemRPlanner:
    """Left-deep DP enumerator parameterised by a placement policy."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel,
        policy: PlacementPolicy | None = None,
        methods: tuple[JoinMethod, ...] = tuple(JoinMethod),
        bushy: bool = False,
        tracer=NULL_TRACER,
        profiler=NULL_PROFILER,
        ledger=NULL_LEDGER,
    ) -> None:
        """``bushy=True`` additionally enumerates bushy join trees (both
        join inputs may be composites) — the System R modification the
        paper mentions as the fix for LDL's left-deep limitation.
        ``tracer`` receives per-subset enumeration events and the policy's
        per-join pullup verdicts; ``profiler`` accumulates wall-clock per
        DP level (``systemr.level_<k>``); ``ledger`` records the placement
        decisions themselves (:mod:`repro.obs.provenance`)."""
        self.catalog = catalog
        self.model = model
        self.policy = policy or PlacementPolicy()
        self.methods = methods
        self.bushy = bushy
        self.tracer = tracer
        self.profiler = profiler
        self.ledger = ledger
        self.policy.tracer = tracer
        self.policy.profiler = profiler
        self.policy.ledger = ledger
        self.stats = PlannerStats()
        self._scan_templates: dict[str, tuple[Scan, Estimate]] = {}

    def notes(self) -> dict:
        """Decision counts for :attr:`OptimizedPlan.notes`: enumeration
        stats plus the policy's pullup verdict counters."""
        notes = self.stats.as_notes()
        for key, value in self.policy.counters.items():
            notes[key] = value
        return notes

    # -- public API --------------------------------------------------------

    def plan(self, query: Query) -> Plan:
        """The cheapest complete plan under this policy."""
        candidates = self.final_candidates(query)
        best = min(candidates, key=lambda candidate: candidate.cost)
        return Plan(
            root=best.node,
            estimated_cost=best.estimate.cost,
            estimated_rows=best.estimate.rows,
        )

    def final_candidates(self, query: Query) -> list[Candidate]:
        """All retained complete plans: cheapest, interesting orders, and
        unpruneable subplans (Predicate Migration post-processes these)."""
        self.stats = PlannerStats()
        self._scan_templates = {}
        model = self.model
        model.memo_enable()
        memo_hits_before = model.memo_hits
        memo_misses_before = model.memo_misses
        # Tables are indexed once per query (sorted for stable enumeration
        # order — plan fingerprints must not depend on set hash order);
        # subsets are bitmasks over that indexing from here on.
        table_list = sorted(query.tables)
        count = len(table_list)
        index_of = {table: index for index, table in enumerate(table_list)}
        join_predicates = query.join_predicates()
        pred_masks: list[tuple[int, Predicate]] = []
        edges: list[list[tuple[int, Predicate]]] = [[] for _ in table_list]
        for predicate in join_predicates:
            mask = 0
            for table in predicate.tables:
                mask |= 1 << index_of[table]
            pred_masks.append((mask, predicate))
            for index in range(count):
                if mask & (1 << index):
                    edges[index].append((mask, predicate))
        tracer = self.tracer

        dp: dict[int, list[Candidate]] = {}
        with self.profiler.phase("systemr.level_1"):
            for index, table in enumerate(table_list):
                base = self._base_candidates(query, table)
                self.stats.base_candidates += len(base)
                dp[1 << index] = self._prune(base)

        for size in range(2, count + 1):
            with self.profiler.phase(f"systemr.level_{size}"):
                for combo in itertools.combinations(range(count), size):
                    subset_mask = 0
                    for index in combo:
                        subset_mask |= 1 << index
                    candidates = self._extend(
                        query, dp, combo, subset_mask, edges, pred_masks,
                        table_list,
                    )
                    if not candidates:
                        candidates = self._extend(
                            query, dp, combo, subset_mask, edges, pred_masks,
                            table_list, allow_cross=True,
                        )
                    if candidates:
                        kept = self._prune(candidates)
                        dp[subset_mask] = kept
                        if tracer.enabled:
                            tracer.event(
                                "systemr.subset",
                                tables=[table_list[i] for i in combo],
                                enumerated=len(candidates),
                                kept=len(kept),
                                unpruneable=sum(
                                    1 for c in kept if c.unpruneable
                                ),
                            )

        final = dp.get((1 << count) - 1)
        self.stats.cost_memo_hits += model.memo_hits - memo_hits_before
        self.stats.cost_memo_misses += model.memo_misses - memo_misses_before
        if not final:
            raise OptimizerError(
                f"could not connect tables {table_list}; "
                "query graph may be malformed"
            )
        return final

    # -- enumeration internals -------------------------------------------------

    def _base_scan(self, query: Query, table: str) -> Scan:
        scan = Scan(filters=[], table=table)
        self.policy.place_scan(
            scan, list(query.selections_on(table)), self.model
        )
        return scan

    def _scan_template(self, query: Query, table: str) -> tuple[Scan, Estimate]:
        """The (immutable) sequential-scan template for one table, with
        its estimate. Join construction clones it per use; the policy's
        scan placement is deterministic, so one template stands for every
        fresh ``_base_scan`` the original enumerator would have built."""
        cached = self._scan_templates.get(table)
        if cached is None:
            scan = self._base_scan(query, table)
            cached = (scan, self.model.estimate_plan(scan))
            self._scan_templates[table] = cached
        return cached

    def _base_candidates(self, query: Query, table: str) -> list[Candidate]:
        """Access-path selection for one base relation.

        Besides the sequential scan, consider a B-tree index scan for each
        free (zero-cost) single-column range or equality filter over an
        indexed attribute; the chosen filter becomes the access path and
        leaves the filter list. Index scans also carry an interesting
        order, which the pruner retains for merge joins above.
        """
        seq_scan, seq_estimate = self._scan_template(query, table)
        candidates = [Candidate(seq_scan, seq_estimate)]
        entry = self.catalog.table(table)
        for predicate in seq_scan.filters:
            access = index_access(entry, predicate)
            if access is None:
                continue
            attribute, low, high = access
            index_scan = Scan(
                filters=[p for p in seq_scan.filters if p is not predicate],
                table=table,
                index_attr=attribute,
                index_range=(low, high),
            )
            candidates.append(
                Candidate(index_scan, self.model.estimate_plan(index_scan))
            )
        return candidates

    def _extend(
        self,
        query: Query,
        dp: dict[int, list[Candidate]],
        combo: tuple[int, ...],
        subset_mask: int,
        edges: list[list[tuple[int, Predicate]]],
        pred_masks: list[tuple[int, Predicate]],
        table_list: list[str],
        allow_cross: bool = False,
    ) -> list[Candidate]:
        candidates: list[Candidate] = []
        # ``combo`` is ascending over the sorted table indexing, so the
        # enumeration order — and therefore which of several cost-tied
        # candidates survives pruning — matches the original sorted-set
        # iteration exactly.
        for index in combo:
            inner_table = table_list[index]
            outer_candidates = dp.get(subset_mask & ~(1 << index))
            if not outer_candidates:
                continue
            connecting = [
                predicate
                for mask, predicate in edges[index]
                if mask & subset_mask == mask
            ]
            if not connecting and not allow_cross:
                continue
            for outer_candidate in outer_candidates:
                candidates.extend(
                    self._build_joins(
                        query, outer_candidate, inner_table, connecting
                    )
                )
        if self.bushy:
            candidates.extend(
                self._extend_bushy(
                    dp, combo, subset_mask, pred_masks, allow_cross
                )
            )
        return candidates

    def _extend_bushy(
        self,
        dp: dict[int, list[Candidate]],
        combo: tuple[int, ...],
        subset_mask: int,
        pred_masks: list[tuple[int, Predicate]],
        allow_cross: bool,
    ) -> list[Candidate]:
        """Bushy partitions: both sides composite (|inner side| >= 2; the
        singleton-inner case is the left-deep extension above)."""
        candidates: list[Candidate] = []
        model = self.model
        size = len(combo)
        for local_mask in range(1, 1 << size):
            inner_size = local_mask.bit_count()
            if inner_size < 2 or inner_size >= size:
                continue
            inner_mask = 0
            for position in range(size):
                if local_mask & (1 << position):
                    inner_mask |= 1 << combo[position]
            outer_mask = subset_mask & ~inner_mask
            outer_candidates = dp.get(outer_mask)
            inner_candidates = dp.get(inner_mask)
            if not outer_candidates or not inner_candidates:
                continue
            connecting = [
                predicate
                for mask, predicate in pred_masks
                if mask & subset_mask == mask
                and mask & outer_mask
                and mask & inner_mask
            ]
            if not connecting and not allow_cross:
                continue
            primary, secondaries, cheap = choose_primary(connecting)
            methods = (
                [JoinMethod.HASH, JoinMethod.MERGE]
                if cheap
                else [JoinMethod.NESTED_LOOP]
            )
            for outer_candidate in outer_candidates:
                for inner_candidate in inner_candidates:
                    for method in methods:
                        if method not in self.methods:
                            continue
                        outer = outer_candidate.node.shallow_copy()
                        model.seed(outer, outer_candidate.estimate)
                        inner = inner_candidate.node.shallow_copy()
                        model.seed(inner, inner_candidate.estimate)
                        join = Join(
                            filters=rank_sorted(list(secondaries)),
                            outer=outer,
                            inner=inner,
                            method=method,
                            primary=primary,
                        )
                        ctx = JoinContext(
                            outer_rows=outer_candidate.estimate.rows,
                            inner_rows=inner_candidate.estimate.rows,
                            per_input=model.per_input(
                                join,
                                outer_candidate.estimate.rows,
                                inner_candidate.estimate.rows,
                            ),
                        )
                        unpruneable_here = self.policy.on_join(
                            join, model, ctx
                        )
                        estimate = model.estimate_plan(join)
                        self.stats.joins_built += 1
                        candidates.append(
                            Candidate(
                                node=join,
                                estimate=estimate,
                                unpruneable=(
                                    unpruneable_here
                                    or outer_candidate.unpruneable
                                    or inner_candidate.unpruneable
                                ),
                            )
                        )
        return candidates

    def _build_joins(
        self,
        query: Query,
        outer_candidate: Candidate,
        inner_table: str,
        connecting: list[Predicate],
    ) -> list[Candidate]:
        primary, secondaries, cheap = choose_primary(connecting)
        model = self.model
        template, template_estimate = self._scan_template(query, inner_table)
        built: list[Candidate] = []
        for method in eligible_methods(
            self.catalog,
            primary,
            cheap,
            inner_table,
            self.methods,
            include_dominated=False,
        ):
            outer = outer_candidate.node.shallow_copy()
            model.seed(outer, outer_candidate.estimate)
            inner = template.clone()
            model.seed(inner, template_estimate)
            join = Join(
                filters=rank_sorted(secondaries),
                outer=outer,
                inner=inner,
                method=method,
                primary=primary,
            )
            ctx = JoinContext(
                outer_rows=outer_candidate.estimate.rows,
                inner_rows=template_estimate.rows,
                per_input=model.per_input(
                    join,
                    outer_candidate.estimate.rows,
                    template_estimate.rows,
                ),
            )
            unpruneable_here = self.policy.on_join(join, model, ctx)
            estimate = model.estimate_plan(join)
            self.stats.joins_built += 1
            built.append(
                Candidate(
                    node=join,
                    estimate=estimate,
                    unpruneable=(
                        unpruneable_here or outer_candidate.unpruneable
                    ),
                )
            )
        return built

    def _prune(self, candidates: list[Candidate]) -> list[Candidate]:
        """Keep min-cost overall, min-cost per interesting order, and the
        unpruneable candidates — decided in one pass over the
        enumeration-ordered candidate list (strictly-cheaper-wins, so the
        first of several cost-tied candidates survives, as before).

        Unpruneable candidates are deduplicated to the cheapest per
        (spine table order, top join method): Predicate Migration re-places
        every movable predicate on the retained skeleton anyway, so two
        unpruneable subplans differing only in lower-join methods or in
        current predicate positions are interchangeable for its purposes.
        This keeps the paper's worst case ("exhaustively enumerates the
        space of join orders") while bounding the method-combination
        blowup.
        """
        best: Candidate | None = None
        by_order: dict[object, Candidate] = {}
        by_skeleton: dict[object, Candidate] = {}
        for candidate in candidates:
            if best is None or candidate.cost < best.cost:
                best = candidate
            order = candidate.estimate.order
            if order is not None:
                current = by_order.get(order)
                if current is None or candidate.cost < current.cost:
                    by_order[order] = candidate
            if candidate.unpruneable:
                key = _skeleton_key(candidate.node)
                current = by_skeleton.get(key)
                if current is None or candidate.cost < current.cost:
                    by_skeleton[key] = candidate
        assert best is not None
        kept: list[Candidate] = [best]
        for candidate in by_order.values():
            if candidate is not best:
                kept.append(candidate)
        # By identity: ``in`` would compare candidates structurally,
        # recursing through whole plan trees, where one object is meant.
        kept_ids = {id(candidate) for candidate in kept} if by_skeleton else ()
        for candidate in by_skeleton.values():
            if id(candidate) not in kept_ids:
                kept.append(candidate)
                self.stats.unpruneable_kept += 1
                if self.ledger.enabled:
                    self.ledger.record(
                        "systemr.unpruneable",
                        signature=skeleton_signature(candidate.node),
                        cost=candidate.cost,
                        tables=sorted(candidate.node.tables()),
                    )
        self.stats.candidates_kept += len(kept)
        self.stats.subplans_pruned += len(candidates) - len(kept)
        return kept
