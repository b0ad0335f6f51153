"""Vendored pre-overhaul planners, kept as behavioural references.

These are the seed implementations of the System R enumerator (frozenset
DP keys, deep-cloned subplans, no cost memoisation) and the exhaustive
placement search (full ``itertools.product`` over placements, no
branch-and-bound). The production planners in ``repro.optimizer`` were
rewritten for speed with the explicit contract that *chosen plans must
not change*; ``test_planner_equivalence.py`` checks the production
planners against these references on randomized queries by comparing
plan fingerprints. :func:`reference_migration_plan` is Predicate
Migration's post-pass as it was before the planning floor: every
retained candidate migrated.

Do not "fix" or optimise this module: its value is bit-for-bit fidelity
to the original algorithms.
"""

from __future__ import annotations

import itertools

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import OptimizerError
from repro.expr.predicates import Predicate
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
from repro.plan.streams import spine_of


def _shape(node: PlanNode):
    if isinstance(node, Scan):
        return node.table
    assert isinstance(node, Join)
    return (_shape(node.outer), _shape(node.inner))


def _skeleton_key(node: PlanNode) -> tuple:
    top_method = node.method if isinstance(node, Join) else None
    return (_shape(node), top_method)


class _Candidate:
    """One retained subplan for a table subset (reference copy)."""

    def __init__(self, node, estimate, unpruneable=False):
        self.node = node
        self.estimate = estimate
        self.unpruneable = unpruneable

    @property
    def cost(self) -> float:
        return self.estimate.cost

    def __eq__(self, other):
        return (
            isinstance(other, _Candidate)
            and self.node == other.node
            and self.estimate == other.estimate
            and self.unpruneable == other.unpruneable
        )


class ReferenceSystemRPlanner:
    """Seed left-deep DP enumerator: frozenset keys, deep clones."""

    def __init__(
        self,
        catalog: Catalog,
        model: CostModel,
        policy: PlacementPolicy | None = None,
        methods: tuple[JoinMethod, ...] = tuple(JoinMethod),
    ) -> None:
        self.catalog = catalog
        self.model = model
        self.policy = policy or PlacementPolicy()
        self.methods = methods

    def plan(self, query: Query) -> Plan:
        candidates = self.final_candidates(query)
        best = min(candidates, key=lambda candidate: candidate.cost)
        return Plan(
            root=best.node,
            estimated_cost=best.estimate.cost,
            estimated_rows=best.estimate.rows,
        )

    def final_candidates(self, query: Query) -> list[_Candidate]:
        table_list = sorted(query.tables)
        join_predicates = query.join_predicates()

        dp: dict[frozenset[str], list[_Candidate]] = {}
        for table in table_list:
            dp[frozenset({table})] = self._prune(
                self._base_candidates(query, table)
            )

        for size in range(2, len(table_list) + 1):
            for subset_tuple in itertools.combinations(table_list, size):
                subset = frozenset(subset_tuple)
                candidates = self._extend(query, dp, subset, join_predicates)
                if not candidates:
                    candidates = self._extend(
                        query, dp, subset, join_predicates, allow_cross=True
                    )
                if candidates:
                    dp[subset] = self._prune(candidates)

        final = dp.get(frozenset(table_list))
        if not final:
            raise OptimizerError(
                f"could not connect tables {table_list}; "
                "query graph may be malformed"
            )
        return final

    def _base_scan(self, query: Query, table: str) -> Scan:
        scan = Scan(filters=[], table=table)
        self.policy.place_scan(
            scan, list(query.selections_on(table)), self.model
        )
        return scan

    def _base_candidates(self, query: Query, table: str) -> list[_Candidate]:
        seq_scan = self._base_scan(query, table)
        candidates = [
            _Candidate(seq_scan, self.model.estimate_plan(seq_scan))
        ]
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
                _Candidate(index_scan, self.model.estimate_plan(index_scan))
            )
        return candidates

    def _extend(
        self,
        query: Query,
        dp,
        subset: frozenset[str],
        join_predicates: list[Predicate],
        allow_cross: bool = False,
    ) -> list[_Candidate]:
        candidates: list[_Candidate] = []
        for inner_table in sorted(subset):
            outer_set = subset - {inner_table}
            outer_candidates = dp.get(outer_set)
            if not outer_candidates:
                continue
            connecting = [
                predicate
                for predicate in join_predicates
                if inner_table in predicate.tables
                and predicate.tables <= subset
            ]
            if not connecting and not allow_cross:
                continue
            for outer_candidate in outer_candidates:
                candidates.extend(
                    self._build_joins(
                        query, outer_candidate, inner_table, connecting
                    )
                )
        return candidates

    def _build_joins(
        self,
        query: Query,
        outer_candidate: _Candidate,
        inner_table: str,
        connecting: list[Predicate],
    ) -> list[_Candidate]:
        primary, secondaries, cheap = choose_primary(connecting)
        built: list[_Candidate] = []
        for method in eligible_methods(
            self.catalog,
            primary,
            cheap,
            inner_table,
            self.methods,
            include_dominated=False,
        ):
            outer = outer_candidate.node.clone()
            inner = self._base_scan(query, inner_table)
            join = Join(
                filters=rank_sorted(secondaries),
                outer=outer,
                inner=inner,
                method=method,
                primary=primary,
            )
            inner_estimate = self.model.estimate_plan(inner)
            ctx = JoinContext(
                outer_rows=outer_candidate.estimate.rows,
                inner_rows=inner_estimate.rows,
                per_input=self.model.per_input(
                    join,
                    outer_candidate.estimate.rows,
                    inner_estimate.rows,
                ),
            )
            unpruneable_here = self.policy.on_join(join, self.model, ctx)
            estimate = self.model.estimate_plan(join)
            built.append(
                _Candidate(
                    node=join,
                    estimate=estimate,
                    unpruneable=(
                        unpruneable_here or outer_candidate.unpruneable
                    ),
                )
            )
        return built

    def _prune(self, candidates: list[_Candidate]) -> list[_Candidate]:
        kept: list[_Candidate] = []
        best = min(candidates, key=lambda candidate: candidate.cost)
        kept.append(best)
        by_order: dict[object, _Candidate] = {}
        for candidate in candidates:
            order = candidate.estimate.order
            if order is None:
                continue
            current = by_order.get(order)
            if current is None or candidate.cost < current.cost:
                by_order[order] = candidate
        for candidate in by_order.values():
            if candidate is not best:
                kept.append(candidate)
        by_skeleton: dict[object, _Candidate] = {}
        for candidate in candidates:
            if not candidate.unpruneable:
                continue
            key = _skeleton_key(candidate.node)
            current = by_skeleton.get(key)
            if current is None or candidate.cost < current.cost:
                by_skeleton[key] = candidate
        for candidate in by_skeleton.values():
            if candidate not in kept:
                kept.append(candidate)
        return kept


def reference_exhaustive_plan(
    query: Query,
    catalog: Catalog,
    model: CostModel,
    method_choice: str = "greedy",
    combo_limit: int = 2_000_000,
) -> Plan:
    """Seed exhaustive search: full product over placements, no pruning."""
    if method_choice not in ("greedy", "enumerate"):
        raise OptimizerError(f"unknown method_choice: {method_choice!r}")
    tables = sorted(query.tables)
    join_predicates = query.join_predicates()

    best_root = None
    best_cost = float("inf")
    combos_seen = 0
    for order in itertools.permutations(tables):
        root, movable = _ref_skeleton(query, order, join_predicates)
        if root is None:
            continue
        if isinstance(root, Scan):
            estimate = model.estimate_plan(root)
            return Plan(root, estimate.cost, estimate.rows)
        spine = spine_of(root)
        slot_ranges = [
            range(spine.entry_slot(predicate), spine.slots)
            for predicate in movable
        ]
        for slots in itertools.product(*slot_ranges):
            combos_seen += 1
            if combos_seen > combo_limit:
                raise OptimizerError(
                    f"exhaustive placement exceeded {combo_limit} "
                    "combinations; use a heuristic strategy"
                )
            spine.apply_placement(dict(zip(movable, slots)))
            for cost in _ref_method_costs(spine, catalog, model, method_choice):
                if cost < best_cost:
                    best_cost = cost
                    best_root = root.clone()
    if best_root is None:
        raise OptimizerError("no plan found (disconnected query graph?)")
    estimate = model.estimate_plan(best_root)
    return Plan(best_root, estimate.cost, estimate.rows)


def _ref_skeleton(query, order, join_predicates):
    movable: list[Predicate] = []

    def make_scan(table: str) -> Scan:
        cheap = [
            p for p in query.selections_on(table) if not p.is_expensive
        ]
        expensive = [
            p for p in query.selections_on(table) if p.is_expensive
        ]
        movable.extend(expensive)
        return Scan(filters=rank_sorted(cheap) + expensive, table=table)

    root = make_scan(order[0])
    seen = {order[0]}
    used: set[int] = set()
    for table in order[1:]:
        seen.add(table)
        connecting = [
            p
            for p in join_predicates
            if table in p.tables
            and p.tables <= seen
            and p.pred_id not in used
        ]
        primary, secondaries, cheap = choose_primary(connecting)
        used.add(primary.pred_id)
        used.update(p.pred_id for p in secondaries)
        cheap_secondaries = [p for p in secondaries if not p.is_expensive]
        expensive_secondaries = [p for p in secondaries if p.is_expensive]
        movable.extend(expensive_secondaries)
        method = JoinMethod.HASH if cheap else JoinMethod.NESTED_LOOP
        root = Join(
            filters=rank_sorted(cheap_secondaries) + expensive_secondaries,
            outer=root,
            inner=make_scan(table),
            method=method,
            primary=primary,
        )
    return root, movable


def _ref_method_costs(spine, catalog: Catalog, model: CostModel, method_choice):
    choices = []
    for spine_join in spine.joins:
        join = spine_join.join
        assert isinstance(join.inner, Scan)
        primary = join.primary
        cheap = primary.is_equijoin and not primary.is_expensive
        choices.append(
            eligible_methods(catalog, primary, cheap, join.inner.table)
        )

    if method_choice == "greedy":
        for spine_join, methods in zip(spine.joins, choices):
            join = spine_join.join
            best_method = min(
                methods,
                key=lambda method: _ref_with_method(join, method, model),
            )
            join.method = best_method
        yield model.estimate_plan(spine.top).cost
        return

    for combo in itertools.product(*choices):
        for spine_join, method in zip(spine.joins, combo):
            spine_join.join.method = method
        yield model.estimate_plan(spine.top).cost


def _ref_with_method(join: Join, method: JoinMethod, model: CostModel) -> float:
    previous = join.method
    join.method = method
    try:
        return model.estimate_plan(join).cost
    finally:
        join.method = previous


def reference_migration_plan(
    query: Query, catalog: Catalog, model: CostModel
) -> Plan:
    """Predicate Migration's post-pass without a planning floor: every
    retained candidate of the production enumerator is migrated, and the
    cheapest migrated plan wins, ties to the earliest candidate."""
    from repro.optimizer.migration import migrate_plan
    from repro.optimizer.policies import MigrationPhaseOnePolicy
    from repro.optimizer.systemr import SystemRPlanner

    candidates = SystemRPlanner(
        catalog, model, MigrationPhaseOnePolicy()
    ).final_candidates(query)
    best = None
    for candidate in candidates:
        migrated = migrate_plan(
            Plan(candidate.node, candidate.estimate.cost,
                 candidate.estimate.rows),
            model,
        )
        if best is None or migrated.estimated_cost < best.estimated_cost:
            best = migrated
    return best
