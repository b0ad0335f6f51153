"""Exhaustive predicate placement (Table 1's last row).

Enumerates every left-deep join order, every legal slot assignment for every
expensive movable predicate, and the join method of every join. It is the
only algorithm here that is optimal even for *expensive primary join
predicates* — and its complexity is prohibitive, which is the paper's point:
the reproduction uses it as ground truth for small queries.

Method choice defaults to a bottom-up greedy pass per (order, placement)
combination, which is exact except for sort-order interactions between
adjacent merge joins; ``method_choice="enumerate"`` removes even that
approximation at additional (multiplicative) cost.

The search is branch-and-bound, with the hard contract that the chosen
plan is identical to the naive full enumeration (fingerprints gate this
in CI and in ``test_planner_equivalence.py``):

* **Order prefixes** carry the join terms of the planning floor
  (:mod:`repro.optimizer.floor`: every selectivity ≤ 1 applied as early
  as possible, each join charged its cheapest eligible method's
  mandatory terms). A prefix whose bound already exceeds the incumbent —
  scaled by a safety factor against float rounding — is cut with all its
  completions; in particular, once any connected order sets an
  incumbent, permutations sharing a rejected disconnected
  (cross-product) prefix die on their nested-loop rescan floor.
* **Complete orders** add the floor's predicate term — the cheapest any
  evaluation order of the expensive movable predicates could be charged
  — before their placement combinations are costed, and are cut the
  same way.
* **Placement combinations** are costed incrementally slot-by-slot up
  the spine, reusing memoised estimates for the unchanged prefix of the
  previous combination, and abandoned as soon as the accumulated spine
  cost reaches the incumbent (exact: every total is the prefix cost
  plus non-negative terms, and the incumbent only ever improves on
  strictly smaller cost).

Both cut kinds are reported in notes (``orders_pruned`` /
``combos_pruned``); pruned placement combinations still count against
``combo_limit``, and a cut complete order counts none.
"""

from __future__ import annotations

import itertools
import math

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.errors import OptimizerError
from repro.expr.predicates import Predicate
from repro.obs.profile import NULL_PROFILER
from repro.obs.provenance import NULL_LEDGER
from repro.obs.tracer import NULL_TRACER
from repro.optimizer.floor import FLOOR_SAFETY, PlacementFloor
from repro.optimizer.joinutil import choose_primary, eligible_methods
from repro.optimizer.policies import rank_sorted
from repro.optimizer.query import Query
from repro.plan.nodes import Join, JoinMethod, Plan, Scan
#: Refuse to enumerate beyond this many (order × placement) combinations.
DEFAULT_COMBO_LIMIT = 2_000_000


def exhaustive_plan(
    query: Query,
    catalog: Catalog,
    model: CostModel,
    method_choice: str = "greedy",
    combo_limit: int = DEFAULT_COMBO_LIMIT,
    tracer=NULL_TRACER,
    notes: dict | None = None,
    profiler=NULL_PROFILER,
    ledger=NULL_LEDGER,
) -> Plan:
    """The minimum-estimated-cost plan over the full placement space."""
    if method_choice not in ("greedy", "enumerate"):
        raise OptimizerError(f"unknown method_choice: {method_choice!r}")
    search = _Search(
        query, catalog, model, method_choice, combo_limit, tracer, profiler,
        ledger,
    )
    return search.run(notes)


class _Search:
    """One exhaustive-search invocation's state."""

    def __init__(
        self, query, catalog, model, method_choice, combo_limit, tracer,
        profiler, ledger=NULL_LEDGER,
    ):
        self.query = query
        self.catalog = catalog
        self.model = model
        self.method_choice = method_choice
        self.combo_limit = combo_limit
        self.tracer = tracer
        self.profiler = profiler
        self.ledger = ledger
        # The placement the combo loop is currently costing, stashed so
        # ``_offer`` can ledger the incumbent's slot assignment.
        self._current_movable = []
        self._current_slots = ()
        self.tables = sorted(query.tables)
        self.join_predicates = query.join_predicates()
        self.best_root = None
        self.best_cost = float("inf")
        self.combos_seen = 0
        self.combos_pruned = 0
        self.orders_tried = 0
        self.orders_pruned = 0
        self.plans_costed = 0
        # Lower bounds for order prefixes and complete orders.
        self.floor = PlacementFloor(query, catalog, model)
        # Per-table selection split, shared by every order's skeleton.
        self._cheap_sel: dict[str, list[Predicate]] = {}
        self._exp_sel: dict[str, list[Predicate]] = {}
        for table in self.tables:
            selections = query.selections_on(table)
            self._cheap_sel[table] = rank_sorted(
                [p for p in selections if not p.is_expensive]
            )
            self._exp_sel[table] = [p for p in selections if p.is_expensive]
        # Scan estimates keyed by (table, filter identities): skeleton
        # scans recur across orders and placement combos with the same
        # predicate objects in the same order, so their estimates are
        # search-wide invariants.
        self._scan_estimates: dict[tuple, object] = {}

    def _scan_estimate(self, scan):
        """Memoised estimate of a skeleton scan (no index access paths)."""
        key = (scan.table, tuple(id(f) for f in scan.filters))
        estimate = self._scan_estimates.get(key)
        if estimate is None:
            estimate = self.model.estimate_scan(scan)
            self._scan_estimates[key] = estimate
        return estimate

    # -- driver ------------------------------------------------------------

    def run(self, notes: dict | None) -> Plan:
        model = self.model
        model.memo_enable()
        hits_before = model.memo_hits
        misses_before = model.memo_misses

        if len(self.tables) == 1:
            # Single-table query: rank order is optimal, nothing to place.
            root, _ = _skeleton(
                self.query, tuple(self.tables), self.join_predicates
            )
            estimate = model.estimate_plan(root)
            self.orders_tried = 1
            self.plans_costed = 1
            self._write_notes(notes, hits_before, misses_before)
            return Plan(root, estimate.cost, estimate.rows)

        for first in self.tables:
            self._extend_order(
                [first], {first},
                self.floor.rows_floor[first], 0.0, [],
            )
        self._write_notes(notes, hits_before, misses_before)
        if self.best_root is None:
            raise OptimizerError("no plan found (disconnected query graph?)")
        estimate = model.estimate_plan(self.best_root)
        return Plan(self.best_root, estimate.cost, estimate.rows)

    def _write_notes(self, notes, hits_before, misses_before):
        """Every exit — single-table, pruned, or full — reports the same
        note keys, so downstream consumers never see partial accounting."""
        if notes is None:
            return
        # Every costed (order, interleaving, method) plan but the winner
        # was discarded by direct cost comparison; branch-and-bound cuts
        # are reported separately.
        notes.update(
            subplans_enumerated=self.plans_costed,
            subplans_pruned=max(0, self.plans_costed - 1),
            orders_enumerated=self.orders_tried,
            interleavings_counted=self.combos_seen,
            combos_pruned=self.combos_pruned,
            orders_pruned=self.orders_pruned,
            cost_memo_hits=self.model.memo_hits - hits_before,
            cost_memo_misses=self.model.memo_misses - misses_before,
        )

    # -- order enumeration with prefix lower bounds ------------------------

    def _extend_order(self, prefix, seen, rows_floor, cost_floor, steps):
        """Depth-first extension of one table-order prefix, visiting
        complete orders in the same lexicographic sequence as
        ``itertools.permutations(sorted(tables))``. ``steps`` accumulates
        each extension's ``(table, primary, secondaries, cheap)`` so the
        skeleton builder need not recompute connecting sets."""
        count = len(self.tables)
        if len(prefix) == count:
            if self.best_root is not None:
                floor = cost_floor + self.floor.predicate_term(
                    prefix[0], steps
                )
                if floor * FLOOR_SAFETY >= self.best_cost:
                    self._prune_order(prefix, 1, floor)
                    return
            self.orders_tried += 1
            combos_before = self.combos_seen
            pruned_before = self.combos_pruned
            with self.profiler.phase("exhaustive.order"):
                self._evaluate_order(tuple(prefix), steps)
            if self.ledger.enabled:
                self.ledger.record(
                    "exhaustive.combos",
                    order=list(prefix),
                    interleavings=self.combos_seen - combos_before,
                    pruned=self.combos_pruned - pruned_before,
                )
            return
        for table in self.tables:
            if table in seen:
                continue
            seen_new = seen | {table}
            # A join predicate connects here exactly when this table is
            # its last to arrive, so no used-set bookkeeping is needed:
            # each predicate is consumed at its unique containment step.
            connecting = [
                p
                for p in self.join_predicates
                if table in p.tables and p.tables <= seen_new
            ]
            primary, secondaries, cheap = choose_primary(connecting)
            floor = cost_floor + self.floor.join_floor(
                self.floor.methods_for(primary, cheap, table),
                table, rows_floor,
            )
            if (
                self.best_root is not None
                and floor * FLOOR_SAFETY >= self.best_cost
            ):
                self._prune_order(
                    prefix + [table],
                    math.factorial(count - len(prefix) - 1),
                    floor,
                )
                continue
            rows_new = self.floor.joined_rows(rows_floor, table, connecting)
            prefix.append(table)
            steps.append((table, primary, secondaries, cheap))
            self._extend_order(prefix, seen_new, rows_new, floor, steps)
            steps.pop()
            prefix.pop()

    def _prune_order(self, prefix, completions, floor):
        self.orders_pruned += completions
        if self.ledger.enabled:
            self.ledger.record(
                "exhaustive.order_pruned",
                prefix=list(prefix),
                completions_pruned=completions,
                floor=floor,
                incumbent=self.best_cost,
            )

    # -- per-order placement search ----------------------------------------

    def _build_skeleton(self, order, steps):
        """Left-deep skeleton from the DFS's per-step primary choices.

        Mirrors module-level :func:`_skeleton` — identical filter lists
        and identical movable ordering (step secondaries before the
        step's inner-table selections) — without recomputing connecting
        sets or re-splitting selections per order. Because the tree is
        assembled here, every structural fact the placement loop needs
        falls out for free: each movable's entry slot (0 for leaf
        selections, the join position for inner-table selections, the
        slot above the connecting join for join predicates), the scan
        realising a selection's entry slot, the flat node list, and the
        lowest spine position whose estimate each node feeds.
        """
        first = order[0]
        leaf = Scan(
            filters=self._cheap_sel[first] + self._exp_sel[first],
            table=first,
        )
        movable = list(self._exp_sel[first])
        entries = [0] * len(movable)
        entry_scans: list[Scan | None] = [leaf] * len(movable)
        nodes: list = [leaf]
        pos_of = {id(leaf): 0}
        joins: list[Join] = []
        root = leaf
        for position, (table, primary, secondaries, cheap) in enumerate(
            steps
        ):
            cheap_secondaries = [
                p for p in secondaries if not p.is_expensive
            ]
            expensive_secondaries = [p for p in secondaries if p.is_expensive]
            movable.extend(expensive_secondaries)
            entries.extend([position + 1] * len(expensive_secondaries))
            entry_scans.extend([None] * len(expensive_secondaries))
            expensive = self._exp_sel[table]
            inner = Scan(
                filters=self._cheap_sel[table] + expensive, table=table
            )
            movable.extend(expensive)
            entries.extend([position] * len(expensive))
            entry_scans.extend([inner] * len(expensive))
            root = Join(
                filters=rank_sorted(cheap_secondaries)
                + expensive_secondaries,
                outer=root,
                inner=inner,
                method=JoinMethod.HASH if cheap else JoinMethod.NESTED_LOOP,
                primary=primary,
            )
            joins.append(root)
            pos_of[id(inner)] = position
            pos_of[id(root)] = position
            nodes.append(inner)
            nodes.append(root)
        return root, joins, movable, entries, entry_scans, nodes, pos_of

    def _evaluate_order(self, order, steps):
        model = self.model
        (
            root, joins, movable, entries, entry_scans, nodes, pos_of,
        ) = self._build_skeleton(order, steps)
        top = len(joins)
        slots_total = top + 1
        slot_ranges = [
            range(entry, slots_total) for entry in entries
        ]
        # Target node per (movable index, slot): the relation's scan at a
        # selection's entry slot, join ``slot - 1`` above that.
        targets: list[dict[int, object]] = []
        for index in range(len(movable)):
            scan = entry_scans[index]
            per_slot: dict[int, object] = {}
            for slot in slot_ranges[index]:
                if slot == entries[index] and scan is not None:
                    per_slot[slot] = scan
                else:
                    per_slot[slot] = joins[slot - 1]
            targets.append(per_slot)
        # Arrival order on a shared node: global rank sort, stable in
        # movable order — identical to Spine.apply_placement's global
        # remove-then-append in rank order.
        arrival_order = sorted(
            range(len(movable)), key=lambda index: movable[index].rank
        )
        movable_ids = {id(p) for p in movable}
        base_filters = {
            id(node): [f for f in node.filters if id(f) not in movable_ids]
            for node in nodes
        }
        order_methods = [
            self.floor.methods_for(primary, cheap, table)
            for table, primary, _, cheap in steps
        ]

        current = None
        cost_at = [0.0] * top
        ledger_on = self.ledger.enabled
        if ledger_on:
            self._current_movable = movable
        stale_from = 0  # first spine position not matching current filters
        method_state = _MethodState() if self.method_choice == "enumerate" \
            else None
        for slots in itertools.product(*slot_ranges):
            self.combos_seen += 1
            if self.combos_seen > self.combo_limit:
                raise OptimizerError(
                    f"exhaustive placement exceeded {self.combo_limit} "
                    "combinations; use a heuristic strategy"
                )
            # Rebuild only the nodes whose arrival set changed.
            dirty: dict[int, object] = {}
            if current is None:
                for node in nodes:
                    dirty[id(node)] = node
            else:
                for index, slot in enumerate(slots):
                    if slot == current[index]:
                        continue
                    old_node = targets[index][current[index]]
                    new_node = targets[index][slot]
                    dirty[id(old_node)] = old_node
                    dirty[id(new_node)] = new_node
            current = slots
            min_pos = top
            for node_id, node in dirty.items():
                arrivals = [
                    movable[index]
                    for index in arrival_order
                    if targets[index][slots[index]] is node
                ]
                node.filters = base_filters[node_id] + arrivals
                if isinstance(node, Scan):
                    model.seed(node, self._scan_estimate(node))
                else:
                    model.forget(node)
                position = pos_of[node_id]
                if position < min_pos:
                    min_pos = position
            start = min(min_pos, stale_from)
            if ledger_on:
                self._current_slots = slots
            if self.method_choice == "greedy":
                stale_from = self._greedy_combo(
                    order, root, joins, order_methods, cost_at, start, top
                )
            else:
                stale_from = self._enumerate_combo(
                    order, root, joins, order_methods, cost_at, start, top,
                    method_state,
                )

    def _greedy_combo(
        self, order, root, joins, order_methods, cost_at, start, top
    ):
        """Greedy bottom-up method choice for the current placement,
        recomputed from spine position ``start``; returns the first
        position left stale (== ``top`` when fully evaluated)."""
        model = self.model
        if start > 0 and cost_at[start - 1] >= self.best_cost:
            # The unchanged spine prefix already costs at least the
            # incumbent; no completion can strictly beat it.
            self.combos_pruned += 1
            return start
        for position in range(start, top):
            join = joins[position]
            methods = order_methods[position]
            best_cost = None
            best_method = None
            best_estimate = None
            # Batched trial costing shares the method-independent work;
            # the join node itself is never consulted in the memo, so
            # trials need no forget/re-memo churn — only the winning
            # estimate is seeded.
            for method, estimate in zip(
                methods, model.estimate_join_methods(join, methods)
            ):
                if best_cost is None or estimate.cost < best_cost:
                    best_cost = estimate.cost
                    best_method = method
                    best_estimate = estimate
            if join.method is not best_method:
                join.method = best_method
            model.seed(join, best_estimate)
            cost_at[position] = best_cost
            if best_cost >= self.best_cost:
                self.combos_pruned += 1
                return position + 1
        self._offer(cost_at[top - 1], root, order)
        return top

    def _enumerate_combo(
        self, order, root, joins, order_methods, cost_at, start, top, state
    ):
        """Enumerate every method combination for the current placement,
        recomputing each combination's changed suffix only."""
        model = self.model
        stale = start
        first = True
        for combo in itertools.product(*order_methods):
            if state.previous is None:
                from_position = start
            else:
                for position in range(top):
                    if state.previous[position] is not combo[position]:
                        break
                else:
                    position = top
                from_position = min(position, state.stale)
                if first:
                    # The placement just changed filters from ``start``
                    # up; every later combo's dirtiness is subsumed by
                    # ``state.stale``.
                    from_position = min(from_position, start)
            first = False
            state.previous = combo
            if from_position > 0 and cost_at[from_position - 1] >= \
                    self.best_cost:
                self.combos_pruned += 1
                state.stale = from_position
                stale = min(stale, from_position)
                continue
            abandoned = False
            for position in range(from_position, top):
                join = joins[position]
                join.method = combo[position]
                estimate = model.estimate_join(join)
                model.seed(join, estimate)
                cost_at[position] = estimate.cost
                if cost_at[position] >= self.best_cost:
                    self.combos_pruned += 1
                    state.stale = position + 1
                    stale = min(stale, position + 1)
                    abandoned = True
                    break
            if abandoned:
                continue
            state.stale = top
            stale = top
            self._offer(cost_at[top - 1], root, order)
        return stale

    def _offer(self, cost, root, order):
        self.plans_costed += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_root = root.clone()
            if self.tracer.enabled:
                self.tracer.event(
                    "exhaustive.new_best",
                    cost=cost,
                    order=list(order),
                    interleaving=self.combos_seen,
                )
            if self.ledger.enabled:
                self.ledger.record(
                    "exhaustive.new_best",
                    cost=cost,
                    order=list(order),
                    interleaving=self.combos_seen,
                    placements={
                        str(predicate): slot
                        for predicate, slot in zip(
                            self._current_movable, self._current_slots
                        )
                    },
                )


class _MethodState:
    """Carries the enumerate-mode method combination across placements."""

    def __init__(self):
        self.previous = None
        self.stale = 0


def _method_costs(spine, catalog: Catalog, model: CostModel, method_choice):
    """Yield total plan cost(s) after method selection on one spine.

    Greedy: choose each join's method bottom-up by subtree cost (one yield).
    Enumerate: yield the cost of every method combination. The in-search
    placement loop uses the incremental variant above; this standalone form
    serves fixed-order analyses (:mod:`repro.bench.fixed_order`) and LDL's
    final method pass.
    """
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
                key=lambda method: _with_method(join, method, model),
            )
            join.method = best_method
            model.forget(join)
        yield model.estimate_plan(spine.top).cost
        return

    for combo in itertools.product(*choices):
        for spine_join, method in zip(spine.joins, combo):
            spine_join.join.method = method
            model.forget(spine_join.join)
        yield model.estimate_plan(spine.top).cost


def _with_method(join: Join, method: JoinMethod, model: CostModel) -> float:
    previous = join.method
    join.method = method
    model.forget(join)
    try:
        return model.estimate_plan(join).cost
    finally:
        join.method = previous
        model.forget(join)


def _skeleton(query, order, join_predicates):
    """Left-deep skeleton for one table order; returns (root, movable).

    Cheap selections are pinned to their scans in rank order; expensive
    selections and expensive secondary join predicates start at their entry
    slot and are the movable units.
    """
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
