"""The planning floor's soundness and equivalence checks at width 6.

Tier-1 runs these checks on a few seeds at widths ≤ 5
(``test_planning_floor.py``, ``test_planner_equivalence.py``). This
module runs them on more seeds, with queries of up to six tables. Its
name keeps it out of the default collection, so run it by path::

    PYTHONPATH=src python -m pytest -q tests/wide_planner_checks.py
"""

from __future__ import annotations

import random

import pytest

from tests.test_planner_equivalence import (
    check_exhaustive,
    check_migration,
    random_query_sql,
)
from tests.test_planning_floor import (
    MODELS,
    check_candidates,
    check_combinations,
    random_query,
)

WIDTH = 6
SEEDS = range(100, 140)
#: The un-pruned reference search needs up to ~25 s for one six-table
#: query, so the exhaustive equivalence takes fewer seeds (tier-1: 12 at
#: width 4). Seed 113 is left out: six tables and five expensive
#: predicates give 838 080 placements, minutes of reference search.
EXHAUSTIVE_SEEDS = [seed for seed in range(100, 117) if seed != 113]


@pytest.mark.parametrize("caching, global_model", MODELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_floor_bounds_every_migration_candidate(
    tiny_db, seed, caching, global_model
):
    query, _ = random_query(tiny_db, "candidates", seed, WIDTH)
    assert check_candidates(tiny_db, query, caching, global_model) >= 1


@pytest.mark.parametrize("caching, global_model", MODELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_floor_bounds_every_exhaustive_combination(
    tiny_db, seed, caching, global_model
):
    query, rng = random_query(tiny_db, "combinations", seed, WIDTH)
    assert check_combinations(
        tiny_db, query, caching, global_model, rng
    ) >= 1


@pytest.mark.parametrize("caching", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_migration_matches_reference(tiny_db, seed, caching):
    rng = random.Random(f"migration/wide/{seed}")
    check_migration(tiny_db, random_query_sql(rng, WIDTH), caching)


@pytest.mark.parametrize("caching", [False, True])
@pytest.mark.parametrize("seed", EXHAUSTIVE_SEEDS)
def test_exhaustive_greedy_matches_reference(tiny_db, seed, caching):
    rng = random.Random(f"exhaustive/wide/{seed}")
    check_exhaustive(tiny_db, random_query_sql(rng, WIDTH), caching)
