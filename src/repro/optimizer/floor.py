"""The planning floor: a lower bound on the estimated cost of *any*
predicate placement (and any join methods) on one left-deep join order.

Two planners use it to skip work that cannot win. Exhaustive search
bounds every order prefix with the join terms and every complete order
with the predicate term added; Predicate Migration skips the fixpoint on
a retained candidate whose floor is not below the best migrated cost so
far. The floor has two parts, both sums of terms the cost model
(:mod:`repro.cost.model`) charges on every placement:

* **Join terms.** Each join's mandatory method terms (nested loop's
  rescans, index nested loop's probes, everyone's per-tuple CPU), on row
  counts with every selectivity ≤ 1 applied as early as possible. A join
  predicate's factor is ``min(join_selectivity, selectivity, 1)``: it
  cuts the stream by the former as a primary and by the latter as a
  filter.
* **Predicate term.** Each expensive movable predicate ``p`` is charged
  ``c_p · inv_p(m_p · Π s_q)``, where ``m_p`` is the smallest row count
  over its legal positions (its own scan and every join output from its
  entry slot up) with cheap filters and join primaries applied but no
  movable predicate, and the product runs over the predicates evaluated
  before ``p``. ``inv_p`` caps invocations at the distinct input bindings
  under predicate caching and is the identity otherwise. The minimum over
  evaluation orders is computed exactly by a DP over subsets.

Why the predicate term is sound: ``p``'s real input is at least ``m_p``
times the selectivities of the predicates below it, and those predicates
are a subset of the ones before it in any bottom-up evaluation order of
the plan (outer subtree, inner scan, then the join's own filters).
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.expr.predicates import Predicate
from repro.optimizer.joinutil import eligible_methods, index_access
from repro.optimizer.query import Query
from repro.plan.nodes import Join, JoinMethod, PlanNode, Scan

#: A floor is summed in a different order than a real estimate, so it
#: may exceed a true completion cost by rounding noise; prune only when
#: the floor beats the incumbent by a margin far above ulp scale.
FLOOR_SAFETY = 0.999

#: Up to this many expensive movable predicates the predicate term is the
#: exact DP over subsets (2^k · k steps); past it, each predicate is
#: charged as if every other one ran before it — weaker, still sound.
EXACT_PREDICATES = 10


class PlacementFloor:
    """One query's floor ingredients, computed once per ``optimize``."""

    def __init__(self, query: Query, catalog: Catalog, model: CostModel):
        self.query = query
        self.catalog = catalog
        self.model = model
        params = model.params
        self._cpu = params.cpu_per_tuple
        self._seq = params.seq_weight
        #: Per table: rows with every selection ≤ 1 applied (join terms)
        #: and with only the cheap ones applied (predicate term).
        self.rows_floor: dict[str, float] = {}
        self._cheap_rows: dict[str, float] = {}
        self._pages: dict[str, float] = {}
        self._height: dict[str, float] = {}
        self._expensive: dict[str, list[Predicate]] = {}
        for table in query.tables:
            entry = catalog.table(table)
            self.rows_floor[table] = self._cheap_rows[table] = float(
                entry.stats.cardinality
            )
            self._expensive[table] = []
            self._pages[table] = float(entry.pages)
            self._height[table] = params.index_height(entry.cardinality)
        for predicate in query.predicates:
            if not predicate.is_selection:
                continue
            (table,) = predicate.tables
            if predicate.is_expensive:
                self._expensive[table].append(predicate)
            if predicate.selectivity <= 1.0:
                self.rows_floor[table] *= predicate.selectivity
                if not predicate.is_expensive:
                    self._cheap_rows[table] *= predicate.selectivity
        self._eff: dict[int, tuple[Predicate, float]] = {}
        # Per expensive predicate: (cost per tuple, selectivity capped at
        # 1, invocation cap — its distinct input bindings under caching).
        self._charges: dict[int, tuple[float, float, float]] = {}
        # Eligible-method lists per (primary, inner table); values keep
        # the primary alive so a cached id() can never be recycled.
        self._methods_cache: dict[tuple, tuple[Predicate, list]] = {}
        # Built on the first whole-plan floor: table bits, join-predicate
        # masks, and per (leaf access path, join order) facts.
        self._bits: dict[str, int] = {}
        self._pred_masks: list[tuple[int, Predicate]] = []
        self._orders: dict[tuple, tuple[float, list[float]]] = {}

    # -- ingredients --------------------------------------------------------

    def eff(self, predicate: Predicate) -> float:
        """A join predicate's floor factor: ``min(s_join, s, 1)``."""
        cached = self._eff.get(id(predicate))
        if cached is None:
            value = min(
                self.model.join_selectivity(predicate),
                predicate.selectivity,
                1.0,
            )
            cached = (predicate, value)
            self._eff[id(predicate)] = cached
        return cached[1]

    def _charge(self, predicate: Predicate) -> tuple[float, float, float]:
        charge = self._charges.get(id(predicate))
        if charge is None:
            model = self.model
            charge = (
                predicate.cost_per_tuple,
                min(predicate.selectivity, 1.0),
                model.ndistinct_inputs(predicate) if model.caching
                else float("inf"),
            )
            self._charges[id(predicate)] = charge
        return charge

    def methods_for(self, primary, cheap, table):
        key = (id(primary), table)
        cached = self._methods_cache.get(key)
        if cached is not None and cached[0] is primary:
            return cached[1]
        methods = eligible_methods(self.catalog, primary, cheap, table)
        self._methods_cache[key] = (primary, methods)
        return methods

    def join_floor(self, methods, table, outer_rows):
        """A sound lower bound on joining ``table`` onto a stream of at
        least ``outer_rows`` tuples with the cheapest of ``methods``: its
        mandatory cost terms, everything optional dropped."""
        cpu = self._cpu
        both = cpu * (outer_rows + self.rows_floor[table])
        floor = float("inf")
        for method in methods:
            if method is JoinMethod.NESTED_LOOP:
                candidate = (
                    outer_rows * self._pages[table] * self._seq + both
                )
            elif method is JoinMethod.INDEX_NESTED_LOOP:
                candidate = outer_rows * (self._height[table] + cpu)
            else:  # merge / hash: sort and spill terms are optional
                candidate = both
            if candidate < floor:
                floor = candidate
        return floor

    def joined_rows(self, outer_rows, table, connecting):
        """Row floor after joining ``table`` on its ``connecting``
        predicates onto a stream of at least ``outer_rows`` tuples."""
        rows = outer_rows * self.rows_floor[table]
        for predicate in connecting:
            rows *= self.eff(predicate)
        return rows

    # -- the predicate term -------------------------------------------------

    def predicate_term(self, leaf, steps, leaf_cheap_rows=None):
        """Floor on the expensive movable predicates' cost for the order
        ``leaf`` then ``steps`` (``(table, primary, secondaries, ...)`` per
        join). ``leaf_cheap_rows`` overrides the leaf's cheap row count
        (an index access path)."""
        cheap_rows = self._cheap_rows
        expensive = self._expensive
        eff = self.eff
        charge = self._charge
        scan_rows = (
            cheap_rows[leaf] if leaf_cheap_rows is None else leaf_cheap_rows
        )
        rows = scan_rows
        outputs: list[float] = []
        for step in steps:
            rows *= cheap_rows[step[0]] * eff(step[1])
            for predicate in step[2]:
                if not predicate.is_expensive:
                    rows *= eff(predicate)
            outputs.append(rows)
        # Top join down, ``lowest`` is m over the join outputs from the
        # current position up.
        items: list[tuple[float, tuple[float, float, float]]] = []
        lowest = float("inf")
        for position in range(len(steps) - 1, -1, -1):
            table, _, secondaries = steps[position][:3]
            if outputs[position] < lowest:
                lowest = outputs[position]
            for predicate in secondaries:
                if predicate.is_expensive:
                    items.append((lowest, charge(predicate)))
            at_scan = min(cheap_rows[table], lowest)
            for predicate in expensive[table]:
                items.append((at_scan, charge(predicate)))
        at_leaf = min(scan_rows, lowest)
        for predicate in expensive[leaf]:
            items.append((at_leaf, charge(predicate)))
        return _cheapest_order(items)

    # -- whole plans ----------------------------------------------------------

    def plan_floor(self, root: PlanNode) -> float | None:
        """The floor of ``root``'s left-deep join order under its own join
        methods; ``None`` for a bushy tree (no floor is claimed)."""
        methods: list[JoinMethod] = []
        inner_tables: list[str] = []
        node = root
        while isinstance(node, Join):
            inner = node.inner
            if not isinstance(inner, Scan):
                return None
            methods.append(node.method)
            inner_tables.append(inner.table)
            node = node.outer
        key = (node.table, node.index_attr, node.index_range, *inner_tables)
        facts = self._orders.get(key)
        if facts is None:
            facts = self._order_facts(root, node)
            self._orders[key] = facts
        term, outer_rows = facts
        # Both lists run top join first.
        for method, table, rows in zip(methods, inner_tables, outer_rows):
            term += self.join_floor((method,), table, rows)
        return term

    def _order_facts(self, root: Join, leaf: Scan):
        """(predicate term, outer row floor per join top-down) of one
        left-deep order. Every candidate of that order joins on the same
        primaries: they are chosen from the connecting predicates."""
        if not self._bits:
            for index, table in enumerate(sorted(self.query.tables)):
                self._bits[table] = 1 << index
            for predicate in self.query.join_predicates():
                mask = 0
                for table in predicate.tables:
                    mask |= self._bits[table]
                self._pred_masks.append((mask, predicate))
        joins: list[Join] = []
        node = root
        while node is not leaf:
            joins.append(node)
            node = node.outer
        joins.reverse()
        rows = self.rows_floor[leaf.table]
        leaf_cheap_rows = None
        if leaf.index_attr is not None:
            rows, leaf_cheap_rows = self._index_leaf_rows(leaf)
        seen = self._bits[leaf.table]
        steps = []
        outer_rows = []
        for join in joins:
            table = join.inner.table
            bit = self._bits[table]
            seen |= bit
            primary = join.primary
            connecting = [
                predicate
                for mask, predicate in self._pred_masks
                if mask & bit and mask & seen == mask
            ]
            steps.append((
                table, primary, [p for p in connecting if p is not primary],
            ))
            outer_rows.append(rows)
            # A cross product's primary is a fresh trivially-true
            # predicate, outside ``connecting``; its factor is 1.
            rows = self.joined_rows(rows, table, connecting)
        outer_rows.reverse()
        term = self.predicate_term(leaf.table, steps, leaf_cheap_rows)
        return term, outer_rows

    def _index_leaf_rows(self, leaf: Scan) -> tuple[float, float]:
        """(all-selections, cheap-selections) row floors of an index scan:
        the access path's matches, then every selection but the one(s)
        the access path realises."""
        entry = self.catalog.table(leaf.table)
        access = (leaf.index_attr, *leaf.index_range)
        matches = self.model.estimate_scan(
            Scan(
                filters=[], table=leaf.table, index_attr=leaf.index_attr,
                index_range=leaf.index_range,
            )
        ).rows
        rest = [
            predicate
            for predicate in self.query.selections_on(leaf.table)
            if index_access(entry, predicate) != access
        ]
        return (
            _filtered(matches, rest),
            _filtered(matches, [p for p in rest if not p.is_expensive]),
        )


def _filtered(rows: float, predicates) -> float:
    for predicate in predicates:
        if predicate.selectivity <= 1.0:
            rows *= predicate.selectivity
    return rows


def _cheapest_order(items) -> float:
    """``min`` over evaluation orders of ``Σ c_p · inv_p(m_p · Π_{q before
    p} s_q)`` for ``items`` of ``(m_p, (c_p, s_p, cap_p))``."""
    count = len(items)
    if count > EXACT_PREDICATES:
        total = 0.0
        for index, (low, (cost, _, cap)) in enumerate(items):
            others = 1.0
            for other, (_, (_, selectivity, _)) in enumerate(items):
                if other != index:
                    others *= selectivity
            total += cost * min(low * others, cap)
        return total
    size = 1 << count
    product = [1.0] * size
    best = [0.0] * size
    for subset in range(1, size):
        low_bit = subset & -subset
        product[subset] = (
            product[subset ^ low_bit]
            * items[low_bit.bit_length() - 1][1][1]
        )
        value = float("inf")
        bits = subset
        while bits:
            bit = bits & -bits
            bits ^= bit
            rest = subset ^ bit
            low, (cost, _, cap) = items[bit.bit_length() - 1]
            rows = low * product[rest]
            candidate = best[rest] + cost * (rows if rows < cap else cap)
            if candidate < value:
                value = candidate
        best[subset] = value
    return best[size - 1]
