"""The planning floor (:mod:`repro.optimizer.floor`): sound, and it pays.

Soundness is what lets Migration and Exhaustive skip work without moving
a plan: on seeded random queries of 2–6 tables, under predicate caching
and the global cost model on and off, the floor must be at most the
estimated cost of

* every final Migration candidate, before and after migration, and
* every (join order, predicate placement, join methods) combination an
  exhaustive search could complete.

The count guard pins how much work the floor saves on the paper's 5-way
planning-time query (Section 4.4).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.bench.workloads import build_workload
from repro.catalog.datagen import build_database
from repro.cost.model import CostModel
from repro.obs.provenance import ProvenanceLedger
from repro.optimizer import optimize
from repro.optimizer.floor import PlacementFloor
from repro.optimizer.joinutil import choose_primary
from repro.optimizer.migration import migrate_plan
from repro.optimizer.policies import MigrationPhaseOnePolicy
from repro.optimizer.systemr import SystemRPlanner
from repro.plan.nodes import Plan
from repro.plan.streams import spine_of
from repro.sql import compile_query
from tests.reference_planners import _ref_method_costs, _ref_skeleton
from tests.test_planner_equivalence import random_query_sql

#: Rounding slack: a floor is summed in a different order than the
#: estimate it bounds.
SLACK = 1 + 1e-9

#: Per query, at most this many join orders and placements per order
#: are costed (sampled, seeded), so six-table queries stay quick.
MAX_ORDERS = 24
MAX_PLACEMENTS = 32

#: Indexed (``aN``) and unindexed (``uaN``) columns for cheap selections.
CHEAP_COLUMNS = ("a1", "a20", "a100", "ua20")

MODELS = [
    pytest.param(
        caching, global_model, id=f"cache{caching:d}-global{global_model:d}"
    )
    for caching in (False, True)
    for global_model in (False, True)
]


def order_floor(floor: PlacementFloor, query, order) -> float:
    """The bound an exhaustive search puts on a complete ``order``: join
    terms over each join's eligible methods plus the predicate term."""
    join_predicates = query.join_predicates()
    rows = floor.rows_floor[order[0]]
    total = 0.0
    steps = []
    seen = {order[0]}
    for table in order[1:]:
        seen.add(table)
        connecting = [
            p for p in join_predicates
            if table in p.tables and p.tables <= seen
        ]
        primary, secondaries, cheap = choose_primary(connecting)
        total += floor.join_floor(
            floor.methods_for(primary, cheap, table), table, rows
        )
        rows = floor.joined_rows(rows, table, connecting)
        steps.append((table, primary, secondaries))
    return total + floor.predicate_term(order[0], steps)


def check_candidates(db, query, caching, global_model) -> int:
    """Floor ≤ every Migration candidate's cost, before and after
    migration; returns the number of candidates checked."""
    model = CostModel(
        db.catalog, db.params, caching=caching, global_model=global_model
    )
    candidates = SystemRPlanner(
        db.catalog, model, MigrationPhaseOnePolicy()
    ).final_candidates(query)
    floor = PlacementFloor(query, db.catalog, model)
    for candidate in candidates:
        bound = floor.plan_floor(candidate.node)
        assert bound is not None
        assert bound <= candidate.estimate.cost * SLACK
        migrated = migrate_plan(
            Plan(candidate.node, candidate.estimate.cost,
                 candidate.estimate.rows),
            model,
        )
        assert bound <= migrated.estimated_cost * SLACK
    return len(candidates)


def check_combinations(db, query, caching, global_model, rng) -> int:
    """Floor ≤ every sampled complete (order, placement, methods) cost;
    returns the number of costed plans checked."""
    model = CostModel(
        db.catalog, db.params, caching=caching, global_model=global_model
    )
    floor = PlacementFloor(query, db.catalog, model)
    join_predicates = query.join_predicates()
    orders = list(itertools.permutations(sorted(query.tables)))
    if len(orders) > MAX_ORDERS:
        orders = rng.sample(orders, MAX_ORDERS)
    method_choice = "enumerate" if len(query.tables) <= 3 else "greedy"
    checked = 0
    for order in orders:
        bound = order_floor(floor, query, order)
        root, movable = _ref_skeleton(query, order, join_predicates)
        spine = spine_of(root)
        placements = list(itertools.product(*[
            range(spine.entry_slot(predicate), spine.slots)
            for predicate in movable
        ]))
        if len(placements) > MAX_PLACEMENTS:
            placements = rng.sample(placements, MAX_PLACEMENTS)
        for slots in placements:
            spine.apply_placement(dict(zip(movable, slots)))
            for cost in _ref_method_costs(
                spine, db.catalog, model, method_choice
            ):
                assert bound <= cost * SLACK, (order, slots)
                checked += 1
            # Under the methods just chosen, the whole-plan floor (the
            # one Migration uses) bounds the plan too.
            assert floor.plan_floor(root) <= (
                model.estimate_plan(root).cost * SLACK
            )
    return checked


def random_query(db, label: str, seed: int, width: int):
    """A random query of 2–``width`` tables with expensive selections,
    plus (sometimes) cheap selections — index access paths among them —
    and an expensive join predicate, which is a movable secondary or an
    expensive primary depending on the join order."""
    rng = random.Random(f"floor/{label}/{seed}")
    sql = random_query_sql(rng, max_tables=width)
    tables = sql.split(" FROM ")[1].split(" WHERE ")[0].split(", ")
    extra = [
        f"{table}.{rng.choice(CHEAP_COLUMNS)} "
        f"{rng.choice(('<', '=', '>='))} {rng.randint(0, 40)}"
        for table in tables
        if rng.random() < 0.4
    ]
    if rng.random() < 0.4:
        left, right = rng.sample(tables, 2)
        extra.append(f"expjoin10({left}.ua1, {right}.ua1)")
    sql = " AND ".join([sql, *extra])
    return compile_query(db, sql, name=f"{label}{seed}"), rng


@pytest.mark.parametrize("caching, global_model", MODELS)
@pytest.mark.parametrize("seed", range(6))
def test_floor_bounds_every_migration_candidate(
    tiny_db, seed, caching, global_model
):
    query, _ = random_query(tiny_db, "candidates", seed, width=6)
    assert check_candidates(tiny_db, query, caching, global_model) >= 1


@pytest.mark.parametrize("caching, global_model", MODELS)
@pytest.mark.parametrize("seed", range(6))
def test_floor_bounds_every_exhaustive_combination(
    tiny_db, seed, caching, global_model
):
    query, rng = random_query(tiny_db, "combinations", seed, width=5)
    assert check_combinations(
        tiny_db, query, caching, global_model, rng
    ) >= 1


def test_floor_bounds_an_index_access_leaf(db):
    """An index scan's matches, not its access predicate's selectivity,
    bound the leaf's rows."""
    query = compile_query(
        db,
        "SELECT * FROM t1, t3 WHERE t1.a1 = t3.ua1 AND t1.a100 = 7 "
        "AND costly100(t3.u20)",
    )
    model = CostModel(db.catalog, db.params)
    candidates = SystemRPlanner(
        db.catalog, model, MigrationPhaseOnePolicy()
    ).final_candidates(query)
    floor = PlacementFloor(query, db.catalog, model)
    leaves = set()
    for candidate in candidates:
        node = candidate.node
        while hasattr(node, "outer"):
            node = node.outer
        leaves.add(node.index_attr)
        assert floor.plan_floor(candidate.node) <= (
            candidate.estimate.cost * SLACK
        )
    assert "a100" in leaves


@pytest.mark.parametrize("caching", [False, True])
def test_floor_uses_the_smaller_join_selectivity(tiny_db, caching):
    """A secondary join predicate filters by its own selectivity, a
    primary cuts by the model's join selectivity; when the declared one
    is the smaller (as run-time corrections can make it), the floor must
    use it."""
    query = compile_query(
        tiny_db,
        "SELECT * FROM t2, t4, t6 WHERE t2.ua1 = t4.a1 AND t4.ua1 = t6.a1 "
        "AND t2.ua20 = t6.a20 AND costly100(t2.u20) AND costly10(t6.u20)",
    )
    model = CostModel(tiny_db.catalog, tiny_db.params)
    for predicate in query.join_predicates():
        predicate.selectivity = model.join_selectivity(predicate) / 50
    rng = random.Random("smaller-join-selectivity")
    assert check_candidates(tiny_db, query, caching, False) >= 1
    assert check_combinations(tiny_db, query, caching, False, rng) >= 1


def test_many_predicates_take_the_weaker_sound_term(tiny_db, monkeypatch):
    """Past ``EXACT_PREDICATES`` each predicate is charged as if every
    other one ran first: never above the exact DP, still a floor."""
    from repro.optimizer import floor as floor_module

    query = compile_query(
        tiny_db,
        "SELECT * FROM t2, t4, t6 WHERE t2.ua1 = t4.a1 AND t4.ua1 = t6.a1 "
        "AND costly100(t2.u20) AND costly10(t2.u100) AND costly1(t4.u20) "
        "AND costly1000(t6.u100) AND expjoin10(t2.ua1, t6.ua1)",
    )
    model = CostModel(tiny_db.catalog, tiny_db.params, caching=True)
    order = ("t2", "t4", "t6")
    exact = order_floor(
        PlacementFloor(query, tiny_db.catalog, model), query, order
    )
    monkeypatch.setattr(floor_module, "EXACT_PREDICATES", 1)
    weaker = order_floor(
        PlacementFloor(query, tiny_db.catalog, model), query, order
    )
    assert 0 < weaker <= exact
    rng = random.Random("many-predicates")
    assert check_combinations(tiny_db, query, True, False, rng) >= 1


class TestFivewayWork:
    """Exact work counts on the 5-way query at scale 100, seed 42: the
    candidates Migration migrates and skips (they sum to the retained
    candidates), and the join orders Exhaustive evaluates. Without the
    floor, Migration migrated 168 / 174 candidates (caching off / on) and
    Exhaustive evaluated 108 orders in both modes."""

    @pytest.fixture(scope="class")
    def fiveway(self):
        database = build_database(scale=100, seed=42)
        return database, build_workload(database, "fiveway").query

    @pytest.mark.parametrize(
        "caching, migrated, skipped, orders",
        [(False, 34, 134, 37), (True, 40, 134, 27)],
    )
    def test_counts(self, fiveway, caching, migrated, skipped, orders):
        database, query = fiveway
        migration = optimize(database, query, "migration", caching=caching)
        notes = migration.notes
        assert (notes["plans_migrated"], notes["plans_skipped"]) == (
            migrated, skipped,
        )
        model = CostModel(database.catalog, database.params, caching=caching)
        candidates = SystemRPlanner(
            database.catalog, model, MigrationPhaseOnePolicy()
        ).final_candidates(query)
        assert migrated + skipped == len(candidates)
        exhaustive = optimize(database, query, "exhaustive", caching=caching)
        assert exhaustive.notes["orders_enumerated"] == orders

    def test_skips_are_ledgered(self, fiveway):
        database, query = fiveway
        ledger = ProvenanceLedger()
        optimized = optimize(database, query, "migration", ledger=ledger)
        skipped = ledger.events_of("migration.skipped")
        assert len(skipped) == optimized.notes["plans_skipped"]
        for event in skipped:
            assert event.data["floor"] * 0.999 >= event.data["incumbent"]
