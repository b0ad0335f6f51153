"""Every strategy must report its decision counts in OptimizedPlan.notes."""

import pytest

from repro import STRATEGIES, compile_query, optimize
from repro.bench import DEFAULT_STRATEGIES, build_workload
from repro.obs import NULL_LEDGER, ProvenanceLedger, Tracer

SQL3 = (
    "SELECT * FROM t3, t6, t10 "
    "WHERE t3.ua1 = t6.a1 AND t6.ua1 = t10.a1 "
    "AND costly100sel10(t3.u20)"
)


@pytest.fixture(scope="module")
def query(db):
    return compile_query(db, SQL3, name="notes-test")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
class TestNotesContract:
    def test_notes_nonempty_with_required_keys(self, db, query, strategy):
        notes = optimize(db, query, strategy=strategy).notes
        assert notes, f"{strategy} produced empty notes"
        assert notes["subplans_enumerated"] >= 1
        assert notes["subplans_pruned"] >= 0
        assert all(
            isinstance(value, (int, float, str, list))
            for value in notes.values()
        )

    def test_optimize_and_enumerate_spans_recorded(
        self, db, query, strategy
    ):
        tracer = Tracer()
        optimize(db, query, strategy=strategy, tracer=tracer)
        (optimize_span,) = tracer.find("optimize")
        assert optimize_span.attrs["strategy"] == strategy
        assert "estimated_cost" in optimize_span.attrs
        phase_names = {
            span.name for span in tracer.children_of(optimize_span)
        }
        assert phase_names, f"{strategy} recorded no phase spans"


@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
def test_notes_do_not_depend_on_the_ledger(db, strategy):
    query = build_workload(db, "qor").query
    silent = optimize(db, query, strategy=strategy, ledger=NULL_LEDGER)
    recorded = optimize(
        db, query, strategy=strategy, ledger=ProvenanceLedger()
    )
    assert silent.notes == recorded.notes


class TestStrategySpecificNotes:
    def test_systemr_policies_report_prune_counts(self, db, query):
        notes = optimize(db, query, strategy="pushdown").notes
        assert notes["candidates_kept"] >= 1
        assert (
            notes["subplans_enumerated"]
            >= notes["subplans_pruned"] + notes["candidates_kept"]
        )

    def test_pullrank_reports_verdicts(self, db, query):
        notes = optimize(db, query, strategy="pullrank").notes
        verdicts = notes.get("pullups", 0) + notes.get(
            "pullups_declined", 0
        )
        assert verdicts >= 1

    def test_migration_reports_fixpoint_counts(self, db, query):
        notes = optimize(db, query, strategy="migration").notes
        assert notes["plans_migrated"] >= 1
        assert notes["fixpoint_iterations"] >= notes["plans_migrated"]
        assert notes["predicate_moves"] >= 0

    def test_ldl_reports_dp_shape(self, db, query):
        notes = optimize(db, query, strategy="ldl").notes
        assert notes["dp_states"] >= 1
        assert notes["virtual_predicates"] >= 1

    def test_ldl_ikkbz_reports_linearized_order(self, db, query):
        notes = optimize(db, query, strategy="ldl-ikkbz").notes
        assert set(notes["order"]) == {"t3", "t6", "t10"}

    def test_exhaustive_reports_interleavings(self, db, query):
        notes = optimize(db, query, strategy="exhaustive").notes
        assert notes["orders_enumerated"] >= 1
        assert notes["interleavings_counted"] >= 1

    def test_migration_records_migrate_span_and_events(self, db, query):
        tracer = Tracer()
        optimize(db, query, strategy="migration", tracer=tracer)
        (migrate_span,) = tracer.find("migrate")
        assert migrate_span.attrs["candidates"] >= 1
        assert "best_cost" in migrate_span.attrs
        event_names = {
            event["name"]
            for span in tracer.spans
            for event in span.events
        }
        assert "migration.fixpoint" in event_names
