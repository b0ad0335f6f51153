"""Randomized equivalence: rewritten planners vs the vendored seed code.

The planner overhauls (bitmask DP keys, memoized cost estimates,
branch-and-bound exhaustive search, the planning floor that lets
Migration skip candidates) carry one hard contract: *chosen plans must
not change*. The committed bench baselines pin that down for the paper's
queries; these property tests pin it down across a cloud of seeded
random queries (2–5 tables, random join graphs, random expensive
selections), with predicate caching off and on, by comparing sha256 plan
fingerprints against the un-pruned implementations vendored in
:mod:`tests.reference_planners`.
"""

from __future__ import annotations

import random

import pytest

from repro.cost.model import CostModel
from repro.obs.artifacts import plan_fingerprint
from repro.optimizer.exhaustive import exhaustive_plan
from repro.optimizer.optimizer import migration_strategy
from repro.optimizer.policies import (
    MigrationPhaseOnePolicy,
    PullRankPolicy,
    PullUpPolicy,
    PushDownPolicy,
)
from repro.optimizer.systemr import SystemRPlanner
from repro.plan.nodes import Plan
from repro.sql import compile_query
from tests.reference_planners import (
    ReferenceSystemRPlanner,
    reference_exhaustive_plan,
    reference_migration_plan,
)

#: Join columns (indexed and unindexed, several repetition factors) and
#: the UDF argument columns; same families the paper's queries draw from.
JOIN_COLUMNS = ("a1", "a20", "a100", "ua1", "ua20", "ua100")
UDF_COLUMNS = ("u20", "u100")
FUNCTIONS = ("costly1", "costly10", "costly100", "costly1000")

POLICIES = {
    "pushdown": PushDownPolicy,
    "pullup": PullUpPolicy,
    "pullrank": PullRankPolicy,
    "migration-enumeration": MigrationPhaseOnePolicy,
}


def random_query_sql(rng: random.Random, max_tables: int = 5) -> str:
    """A random connected join query with expensive selections.

    A spanning chain keeps the graph connected; a 30% optional extra edge
    exercises cyclic graphs. Every query carries at least one expensive
    selection so placement strategies genuinely diverge.
    """
    count = rng.randint(2, max_tables)
    tables = rng.sample([f"t{n}" for n in range(1, 9)], count)
    conjuncts = [
        f"{left}.{rng.choice(JOIN_COLUMNS)} = "
        f"{right}.{rng.choice(JOIN_COLUMNS)}"
        for left, right in zip(tables, tables[1:])
    ]
    if count >= 3 and rng.random() < 0.3:
        extra_left, extra_right = rng.sample(tables, 2)
        conjuncts.append(
            f"{extra_left}.{rng.choice(JOIN_COLUMNS)} = "
            f"{extra_right}.{rng.choice(JOIN_COLUMNS)}"
        )
    filters = [
        f"{rng.choice(FUNCTIONS)}({table}.{rng.choice(UDF_COLUMNS)})"
        for table in tables
        if rng.random() < 0.6
    ]
    if not filters:
        filters.append(f"costly100({tables[0]}.u20)")
    return (
        f"SELECT * FROM {', '.join(tables)} "
        f"WHERE {' AND '.join(conjuncts + filters)}"
    )


def seeds_with_caching(count: int) -> list:
    """``(seed, caching)`` cases: caching off keeps the plain seed as its
    id, caching on is ``<seed>-cached``."""
    return [
        pytest.param(
            seed, caching, id=f"{seed}-cached" if caching else str(seed)
        )
        for caching in (False, True)
        for seed in range(count)
    ]


def _fresh_model(db, caching: bool = False) -> CostModel:
    return CostModel(db.catalog, db.params, caching=caching)


def assert_same_plan(production, reference):
    assert plan_fingerprint(production) == plan_fingerprint(reference)
    assert production.estimated_cost == pytest.approx(
        reference.estimated_cost, rel=1e-9
    )


def check_exhaustive(db, sql, caching, method_choice="greedy"):
    query = compile_query(db, sql, name="rand")
    production = exhaustive_plan(
        query, db.catalog, _fresh_model(db, caching),
        method_choice=method_choice,
    )
    reference = reference_exhaustive_plan(
        query, db.catalog, _fresh_model(db, caching),
        method_choice=method_choice,
    )
    assert_same_plan(production, reference)


def check_migration(db, sql, caching):
    query = compile_query(db, sql, name="rand")
    production = migration_strategy(
        query, db.catalog, _fresh_model(db, caching)
    )
    reference = reference_migration_plan(
        query, db.catalog, _fresh_model(db, caching)
    )
    assert_same_plan(production, reference)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_systemr_matches_reference(tiny_db, policy_name, seed):
    """Bitmask-DP System R chooses byte-identical plans to the seed
    frozenset-DP enumerator, under every placement policy."""
    rng = random.Random(f"systemr/{policy_name}/{seed}")
    query = compile_query(
        tiny_db, random_query_sql(rng), name=f"rand{seed}"
    )
    policy_cls = POLICIES[policy_name]
    production = SystemRPlanner(
        tiny_db.catalog, _fresh_model(tiny_db), policy=policy_cls()
    ).plan(query)
    reference = ReferenceSystemRPlanner(
        tiny_db.catalog, _fresh_model(tiny_db), policy=policy_cls()
    ).plan(query)
    assert plan_fingerprint(production) == plan_fingerprint(reference)
    assert production.estimated_cost == pytest.approx(
        reference.estimated_cost, rel=1e-9
    )


@pytest.mark.parametrize("seed, caching", seeds_with_caching(12))
def test_retained_candidates_match_reference(tiny_db, seed, caching):
    """Migration's candidates — every retained complete plan, in order —
    are the reference enumerator's, whose pruning deduplicates by plan
    equality where production compares identities."""
    rng = random.Random(f"candidates/{seed}")
    query = compile_query(
        tiny_db, random_query_sql(rng), name=f"rand{seed}"
    )

    def fingerprints(planner_cls):
        candidates = planner_cls(
            tiny_db.catalog, _fresh_model(tiny_db, caching),
            policy=MigrationPhaseOnePolicy(),
        ).final_candidates(query)
        return [
            plan_fingerprint(Plan(c.node, c.estimate.cost, c.estimate.rows))
            for c in candidates
        ]

    assert fingerprints(SystemRPlanner) == fingerprints(
        ReferenceSystemRPlanner
    )


@pytest.mark.parametrize("seed, caching", seeds_with_caching(12))
def test_exhaustive_greedy_matches_reference(tiny_db, seed, caching):
    """Branch-and-bound exhaustive search lands on the same plan as the
    seed full-product search (greedy join-method selection)."""
    rng = random.Random(f"exhaustive/greedy/{seed}")
    check_exhaustive(tiny_db, random_query_sql(rng, max_tables=4), caching)


@pytest.mark.parametrize("seed, caching", seeds_with_caching(6))
def test_exhaustive_enumerate_matches_reference(tiny_db, seed, caching):
    """Same equivalence with full join-method enumeration, on smaller
    queries (the method product grows fast)."""
    rng = random.Random(f"exhaustive/enumerate/{seed}")
    check_exhaustive(
        tiny_db, random_query_sql(rng, max_tables=3), caching, "enumerate"
    )


@pytest.mark.parametrize("seed, caching", seeds_with_caching(12))
def test_migration_matches_reference(tiny_db, seed, caching):
    """Skipping candidates whose planning floor cannot beat the best
    migrated cost picks the plan that migrating every candidate picks."""
    rng = random.Random(f"migration/{seed}")
    check_migration(tiny_db, random_query_sql(rng, max_tables=5), caching)
