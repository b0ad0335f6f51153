"""Feedback collection must never change a plan.

The tentpole guarantee of the statistics observatory: observing
execution is free of planning side effects. With collection enabled but
injection (``Catalog.apply_feedback``) never called, every baseline
workload must produce byte-identical plans under every strategy — same
canonical plan form, same fingerprint, same estimated cost. Only the
explicit injection path may move a plan, and when it does, the change
must flow through re-derived ranks, not through collection itself.
"""

import pytest

from repro import build_database
from repro.bench.harness import run_strategies
from repro.bench.workloads import build_workload
from repro.obs.artifacts import canonical_plan_form, plan_fingerprint

BASELINE_WORKLOADS = ("q1", "q2", "q3", "q4", "q5")

STRATEGIES = (
    "pushdown",
    "pullrank",
    "migration",
    "ldl",
    "pullup",
    "exhaustive",
)


def _plans(feedback: bool):
    """strategy/workload -> (canonical form, fingerprint, estimate)."""
    db = build_database(scale=3, seed=42)
    shapes = {}
    for key in BASELINE_WORKLOADS:
        workload = build_workload(db, key)
        outcomes = run_strategies(
            db,
            workload.query,
            strategies=STRATEGIES,
            feedback=feedback,
        )
        for outcome in outcomes:
            assert not outcome.error, (key, outcome.strategy, outcome.error)
            shapes[(key, outcome.strategy)] = (
                canonical_plan_form(outcome.plan),
                plan_fingerprint(outcome.plan),
                outcome.estimated_cost,
            )
    return shapes


@pytest.fixture(scope="module")
def without_feedback():
    return _plans(feedback=False)


@pytest.fixture(scope="module")
def with_feedback():
    return _plans(feedback=True)


def test_all_workloads_covered(without_feedback):
    assert len(without_feedback) == len(BASELINE_WORKLOADS) * len(
        STRATEGIES
    )


def test_plans_byte_identical_with_collection_on(
    without_feedback, with_feedback
):
    assert without_feedback.keys() == with_feedback.keys()
    for key in without_feedback:
        off = without_feedback[key]
        on = with_feedback[key]
        assert off == on, f"feedback collection changed the plan for {key}"


def test_quality_sections_present_only_with_feedback():
    db = build_database(scale=3, seed=42)
    query = build_workload(db, "q4").query
    plain = run_strategies(db, query, strategies=("pushdown",))
    observed = run_strategies(
        db, query, strategies=("pushdown",), feedback=True
    )
    assert "quality" not in plain[0].extras
    quality = observed[0].extras["quality"]
    assert quality["predicates_observed"] >= 1


def test_injection_is_the_only_mover():
    """apply_feedback + recompile may change estimates; collection alone
    must not (the counterpart proving the flag is load-bearing)."""
    db = build_database(scale=20, seed=42)
    query = build_workload(db, "q4").query
    before = run_strategies(
        db, query, strategies=("pushdown",), feedback=True
    )[0]

    from repro import Executor, optimize
    from repro.obs.feedback import FeedbackCollector, StatsFeedbackStore

    assert before.extras["quality"]["predicates_observed"] >= 1

    store = StatsFeedbackStore("q4")
    optimized = optimize(db, query, strategy="pushdown")
    collector = FeedbackCollector()
    Executor(db, collector=collector).execute(optimized.plan)
    # The vector engine reports per batch (``observe_batch``); the
    # tallies are the row engine's.
    batched = FeedbackCollector()
    Executor(db, collector=batched, executor="vector").execute(
        optimized.plan
    )
    assert batched.observations() == collector.observations()
    store.record_epoch(
        collector.observations(), strategy="pushdown", scale=20, seed=42
    )

    changed = db.catalog.apply_feedback(store)
    assert changed >= 1
    after = run_strategies(
        db,
        build_workload(db, "q4").query,
        strategies=("pushdown",),
    )[0]
    # The declared selectivity moved, so the estimate must differ (the
    # observed pass rate of costly100sel10 is not exactly 0.1 at this
    # scale/seed).
    assert after.estimated_cost != before.estimated_cost
