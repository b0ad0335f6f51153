"""Tests for run artifacts: recording, loading, fingerprints, diffing."""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from repro.bench import run_strategies
from repro.bench.workloads import build_workload
from repro.errors import ArtifactError
from repro.obs import (
    ARTIFACT_PREFIX,
    SCHEMA_VERSION,
    ArtifactRecorder,
    PhaseProfiler,
    artifact_path,
    build_run_artifact,
    collect_artifacts,
    diff_artifacts,
    has_regressions,
    load_run_artifact,
    plan_fingerprint,
    record_run_artifact,
)


@pytest.fixture(scope="module")
def outcomes(tiny_db):
    workload = build_workload(tiny_db, "q1")
    return run_strategies(
        tiny_db,
        workload.query,
        strategies=("pushdown", "migration"),
        instrument=True,
    )


class TestRoundTrip:
    def test_record_and_load(self, outcomes, tmp_path):
        target = record_run_artifact(
            tmp_path, "q1", outcomes, scale=20, seed=11
        )
        assert target == artifact_path(tmp_path, "q1")
        assert target.name == f"{ARTIFACT_PREFIX}q1.json"
        document = load_run_artifact(target)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["workload"] == "q1"
        assert document["environment"]["scale"] == 20
        assert document["environment"]["seed"] == 11
        assert set(document["strategies"]) == {"pushdown", "migration"}
        record = document["strategies"]["migration"]
        assert record["fingerprint"] == plan_fingerprint(
            next(o for o in outcomes if o.strategy == "migration").plan
        )
        assert record["charged"] > 0
        assert record["completed"] is True
        # Instrumented run: per-operator actuals land in the artifact.
        assert record["operators"]

    def test_strict_json_no_nan_tokens(self, outcomes, tmp_path):
        target = record_run_artifact(
            tmp_path, "q1", outcomes, scale=20, seed=11
        )
        text = target.read_text(encoding="utf-8")
        assert "NaN" not in text
        assert "Infinity" not in text
        json.loads(text)  # parses under the strict default

    def test_profiler_sections_included(self, tiny_db, tmp_path):
        workload = build_workload(tiny_db, "q1")
        profiler = PhaseProfiler()
        run = run_strategies(
            tiny_db,
            workload.query,
            strategies=("migration",),
            profiler=profiler,
        )
        target = record_run_artifact(
            tmp_path, "q1", run, scale=20, seed=11, profiler=profiler
        )
        document = load_run_artifact(target)
        assert "systemr.level_1" in document["profile"]
        assert document["hotspots"]

    def test_explicit_json_path(self, outcomes, tmp_path):
        target = record_run_artifact(
            tmp_path / "custom.json", "q1", outcomes, scale=20, seed=11
        )
        assert target.name == "custom.json"
        assert load_run_artifact(target)["workload"] == "q1"


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_run_artifact(tmp_path / "BENCH_none.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_run_artifact(bad)

    def test_wrong_schema_version(self, tmp_path):
        future = tmp_path / "BENCH_future.json"
        future.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1}),
            encoding="utf-8",
        )
        with pytest.raises(ArtifactError, match="schema_version"):
            load_run_artifact(future)

    def test_non_object_document(self, tmp_path):
        flat = tmp_path / "BENCH_flat.json"
        flat.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a JSON object"):
            load_run_artifact(flat)


class TestCollectAndRecorder:
    def test_collect_directory(self, outcomes, tmp_path):
        record_run_artifact(tmp_path, "q1", outcomes, scale=20, seed=11)
        record_run_artifact(tmp_path, "q2", outcomes, scale=20, seed=11)
        (tmp_path / "unrelated.json").write_text("{}", encoding="utf-8")
        found = collect_artifacts(tmp_path)
        assert sorted(found) == ["q1", "q2"]

    def test_collect_single_file(self, outcomes, tmp_path):
        target = record_run_artifact(
            tmp_path, "q1", outcomes, scale=20, seed=11
        )
        assert collect_artifacts(target) == {"q1": target}

    def test_disabled_recorder_is_a_no_op(self, outcomes, tmp_path):
        recorder = ArtifactRecorder(None, scale=20, seed=11)
        assert not recorder.enabled
        assert recorder.record("q1", outcomes) is None
        assert list(tmp_path.iterdir()) == []

    def test_enabled_recorder_writes(self, outcomes, tmp_path):
        recorder = ArtifactRecorder(tmp_path / "runs", scale=20, seed=11)
        assert recorder.enabled
        target = recorder.record("q1", outcomes)
        assert target is not None and target.exists()


class TestFingerprint:
    def test_stable_across_process_restarts(self, tmp_path):
        """The fingerprint must not depend on PYTHONHASHSEED — it is
        compared across CI runs and committed baselines."""
        script = (
            "from repro.catalog.datagen import build_database\n"
            "from repro.bench.workloads import build_workload\n"
            "from repro.optimizer import optimize\n"
            "from repro.obs import plan_fingerprint\n"
            "db = build_database(scale=10, seed=42)\n"
            "w = build_workload(db, 'q1')\n"
            "for s in ('pushdown', 'migration', 'pullup'):\n"
            "    opt = optimize(db, w.query, strategy=s)\n"
            "    print(s, plan_fingerprint(opt.plan))\n"
        )
        import os
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        runs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(root / "src")
            env["PYTHONHASHSEED"] = hashseed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1]

    def test_different_plans_different_fingerprints(self, tiny_db):
        workload = build_workload(tiny_db, "q1")
        from repro.optimizer import optimize

        pushdown = optimize(tiny_db, workload.query, strategy="pushdown")
        migration = optimize(tiny_db, workload.query, strategy="migration")
        assert plan_fingerprint(pushdown.plan) != plan_fingerprint(
            migration.plan
        )


class TestDiff:
    @pytest.fixture()
    def artifact(self, outcomes):
        return build_run_artifact("q1", outcomes, scale=20, seed=11)

    def test_identical_runs_no_regressions(self, artifact):
        findings = diff_artifacts(artifact, copy.deepcopy(artifact))
        assert not has_regressions(findings)

    def test_charged_regression_gates(self, artifact):
        worse = copy.deepcopy(artifact)
        worse["strategies"]["migration"]["charged"] *= 1.25
        findings = diff_artifacts(artifact, worse)
        assert has_regressions(findings)
        assert any(f.kind == "charged" for f in findings)

    def test_charged_within_threshold_passes(self, artifact):
        near = copy.deepcopy(artifact)
        near["strategies"]["migration"]["charged"] *= 1.05
        assert not has_regressions(diff_artifacts(artifact, near))

    def test_charged_improvement_is_a_note(self, artifact):
        better = copy.deepcopy(artifact)
        better["strategies"]["migration"]["charged"] *= 0.5
        findings = diff_artifacts(artifact, better)
        assert not has_regressions(findings)
        assert any(
            f.kind == "charged" and f.severity == "note" for f in findings
        )

    def test_fingerprint_change_gates(self, artifact):
        changed = copy.deepcopy(artifact)
        changed["strategies"]["migration"]["fingerprint"] = "deadbeef" * 2
        findings = diff_artifacts(artifact, changed)
        assert any(
            f.kind == "fingerprint" and f.severity == "regression"
            for f in findings
        )

    def test_dnf_flip_gates(self, artifact):
        flipped = copy.deepcopy(artifact)
        flipped["strategies"]["migration"]["completed"] = False
        findings = diff_artifacts(artifact, flipped)
        assert any(f.kind == "dnf" for f in findings)
        assert has_regressions(findings)

    def test_missing_strategy_gates_added_notes(self, artifact):
        fewer = copy.deepcopy(artifact)
        del fewer["strategies"]["migration"]
        findings = diff_artifacts(artifact, fewer)
        assert any(
            f.kind == "missing" and f.severity == "regression"
            for f in findings
        )
        # The reverse direction is only a note.
        reverse = diff_artifacts(fewer, artifact)
        assert not has_regressions(reverse)
        assert any(f.kind == "added" for f in reverse)

    def test_new_error_gates(self, artifact):
        broken = copy.deepcopy(artifact)
        broken["strategies"]["migration"]["error"] = "boom"
        findings = diff_artifacts(artifact, broken)
        assert any(f.kind == "error" for f in findings)
        assert has_regressions(findings)

    def test_error_widening_gates(self, artifact):
        wider = copy.deepcopy(artifact)
        wider["strategies"]["migration"]["estimation_error"] = 5.0
        findings = diff_artifacts(artifact, wider)
        assert any(
            f.kind == "estimation_error" and f.severity == "regression"
            for f in findings
        )

    def test_planning_time_not_gated_by_default(self, artifact):
        slower = copy.deepcopy(artifact)
        slower["strategies"]["migration"]["planning_seconds"] = (
            artifact["strategies"]["migration"]["planning_seconds"] * 100
            + 1.0
        )
        findings = diff_artifacts(artifact, slower)
        assert not has_regressions(findings)
        assert any(f.kind == "planning_time" for f in findings)

    def test_scale_mismatch_noted(self, artifact):
        other = copy.deepcopy(artifact)
        other["environment"]["scale"] = 1000
        findings = diff_artifacts(artifact, other)
        assert any(f.kind == "environment" for f in findings)

    def test_nan_round_trip_never_gates(self, artifact):
        # nan fields serialise as null; null vs null must not produce
        # spurious findings (e.g. a DNF'd plan has nan estimation error).
        nulled = copy.deepcopy(artifact)
        for record in nulled["strategies"].values():
            record["estimation_error"] = None
            record["planning_seconds"] = None
        assert not has_regressions(diff_artifacts(nulled, nulled))


class TestLedgerInArtifacts:
    @pytest.fixture(scope="class")
    def provenance_outcomes(self, tiny_db):
        workload = build_workload(tiny_db, "q4")
        return run_strategies(
            tiny_db,
            workload.query,
            strategies=("pushdown", "migration"),
            execute=False,
            provenance=True,
        )

    def test_ledger_serialised_per_strategy(
        self, provenance_outcomes, tmp_path
    ):
        target = record_run_artifact(
            tmp_path, "q4", provenance_outcomes, scale=20, seed=11
        )
        document = load_run_artifact(target)
        for strategy in ("pushdown", "migration"):
            ledger = document["strategies"][strategy]["ledger"]
            assert ledger["event_counts"]
            assert ledger["events"]
            assert ledger["events"][0]["seq"] == 0
        counts = document["strategies"]["migration"]["ledger"][
            "event_counts"
        ]
        assert "migration.select_best" in counts

    def test_without_provenance_no_ledger_key(self, outcomes, tmp_path):
        target = record_run_artifact(
            tmp_path, "q1", outcomes, scale=20, seed=11
        )
        document = load_run_artifact(target)
        for record in document["strategies"].values():
            assert "ledger" not in record

    def test_event_count_drift_is_a_note_not_a_gate(
        self, provenance_outcomes
    ):
        artifact = build_run_artifact(
            "q4", provenance_outcomes, scale=20, seed=11
        )
        drifted = copy.deepcopy(artifact)
        counts = drifted["strategies"]["migration"]["ledger"][
            "event_counts"
        ]
        counts["migration.move"] = counts.get("migration.move", 0) + 3
        counts["systemr.unpruneable"] = 0
        findings = diff_artifacts(artifact, drifted)
        ledger_findings = [f for f in findings if f.kind == "ledger"]
        assert len(ledger_findings) == 2
        assert all(f.severity == "note" for f in ledger_findings)
        assert not has_regressions(findings)
        assert any(
            "migration.move" in f.message for f in ledger_findings
        )

    def test_identical_ledgers_no_findings(self, provenance_outcomes):
        artifact = build_run_artifact(
            "q4", provenance_outcomes, scale=20, seed=11
        )
        findings = diff_artifacts(artifact, copy.deepcopy(artifact))
        assert not any(f.kind == "ledger" for f in findings)


class TestDiffGracefulDegradation:
    """Artifacts from older builds lack newer optional sections; the
    diff must keep comparing the shared fields instead of crashing."""

    @pytest.fixture()
    def with_ledger(self, tiny_db):
        workload = build_workload(tiny_db, "q4")
        outcomes = run_strategies(
            tiny_db,
            workload.query,
            strategies=("pushdown",),
            execute=False,
            provenance=True,
        )
        return build_run_artifact("q4", outcomes, scale=20, seed=11)

    def test_ledgerless_baseline_notes_but_never_gates(self, with_ledger):
        # A pre-provenance baseline: same measurements, no ledger.
        old = copy.deepcopy(with_ledger)
        for record in old["strategies"].values():
            record.pop("ledger", None)
        findings = diff_artifacts(old, with_ledger)
        assert not has_regressions(findings)
        ledger_findings = [f for f in findings if f.kind == "ledger"]
        assert len(ledger_findings) == 1
        assert ledger_findings[0].severity == "note"
        assert "candidate" in ledger_findings[0].message

    def test_ledgerless_candidate_notes_the_other_side(self, with_ledger):
        old = copy.deepcopy(with_ledger)
        for record in old["strategies"].values():
            record.pop("ledger", None)
        findings = diff_artifacts(with_ledger, old)
        ledger_findings = [f for f in findings if f.kind == "ledger"]
        assert len(ledger_findings) == 1
        assert "baseline" in ledger_findings[0].message

    def test_both_sides_ledgerless_stays_silent(self, with_ledger):
        old = copy.deepcopy(with_ledger)
        for record in old["strategies"].values():
            record.pop("ledger", None)
        findings = diff_artifacts(old, copy.deepcopy(old))
        assert not any(f.kind == "ledger" for f in findings)
        assert not has_regressions(findings)

    def test_malformed_ledger_treated_as_absent(self, with_ledger):
        broken = copy.deepcopy(with_ledger)
        broken["strategies"]["pushdown"]["ledger"] = "oops"
        findings = diff_artifacts(broken, with_ledger)
        assert not has_regressions(findings)

    def test_malformed_strategy_record_noted_not_fatal(self, with_ledger):
        broken = copy.deepcopy(with_ledger)
        broken["strategies"]["pushdown"] = ["not", "a", "record"]
        findings = diff_artifacts(broken, with_ledger)
        assert not has_regressions(findings)
        assert any(f.kind == "malformed" for f in findings)
        # And swapped: a malformed candidate record.
        findings = diff_artifacts(with_ledger, broken)
        assert not has_regressions(findings)
        assert any(f.kind == "malformed" for f in findings)

    def test_missing_environment_section_tolerated(self, with_ledger):
        bare = copy.deepcopy(with_ledger)
        bare.pop("environment")
        findings = diff_artifacts(bare, with_ledger)
        assert isinstance(findings, list)

    def test_missing_strategies_section_tolerated(self, with_ledger):
        bare = copy.deepcopy(with_ledger)
        bare.pop("strategies")
        findings = diff_artifacts(bare, with_ledger)
        # Every candidate strategy shows up as newly added, no crash.
        assert all(f.severity == "note" for f in findings if f.kind == "added")
