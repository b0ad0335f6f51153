"""Tests for the command-line driver (python -m repro)."""

import importlib
import json

import pytest

import repro
from repro.__main__ import VERBS, build_parser, main
from repro.exec import EXECUTORS
from repro.optimizer import STRATEGIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SQL = (
    "SELECT * FROM t3, t10 "
    "WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)"
)


class TestCacheCapacity:
    """``--cache-capacity N``: least-recently-used, as its help says, and
    refused before any planning when ``N`` is not a positive integer."""

    ARGS = ("--workload", "q1", "--strategy", "pushdown", "--scale", "10")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_evicts_least_recently_used(self, capsys, executor):
        # A plan on which the two policies make different numbers of UDF
        # calls at the same capacity (FIFO 45, LRU 42).
        db = repro.build_database(scale=10, seed=42)
        from repro.bench.workloads import build_workload

        query = build_workload(db, "q1").query
        plan = repro.optimize(db, query, "pushdown", caching=True).plan
        calls = {
            policy: repro.Executor(
                db, caching=True, cache_capacity=3, cache_replacement=policy
            ).execute(plan).metrics["function_calls"]
            for policy in ("fifo", "lru")
        }
        assert calls["fifo"] != calls["lru"]
        code, out, _ = run_cli(
            capsys, *self.ARGS, "--caching", "--cache-capacity", "3",
            "--executor", executor,
        )
        assert code == 0
        assert f"({calls['lru']} UDF calls" in out

    @pytest.mark.parametrize("capacity", ["0", "-5", "many"])
    def test_invalid_capacity_exits_2_before_planning(self, capsys, capacity):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                capsys, *self.ARGS, "--caching", "--cache-capacity", capacity
            )
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --cache-capacity: must be a positive" in captured.err
        assert captured.out == ""


class TestUnanswerableQueries:
    """A query the system cannot answer ends in ``error: …`` and exit 1
    under every strategy on both engines — never a traceback, and never
    a row multiset that depends on the strategy."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize(
        "where, message",
        [
            # A conjunct on no table used to be dropped by every planner
            # that places selections per table (15 rows; with
            # ``costly100(7)`` 5 rows and 0 calls, but 0 rows under ldl).
            ("1 = 2", "predicate 1 = 2 references no column of the FROM"),
            (
                "t3.a1 < 5 AND costly100(7)",
                "predicate costly100(7) references no column of the FROM",
            ),
            # An inapplicable operator used to escape as a bare
            # ZeroDivisionError / TypeError.
            ("t3.a1 / 0 = 1", "cannot evaluate (t3.a1 / 0): division by zero"),
            ("t3.a1 < 'x'", "cannot evaluate t3.a1 < 'x': '<' not supported"),
            (
                "costly100(t3.u20) AND t3.a1 + 'x' = 1",
                "cannot evaluate (t3.a1 + 'x'): unsupported operand",
            ),
        ],
    )
    def test_error_line_and_exit_one(
        self, capsys, where, message, strategy, executor
    ):
        code, out, err = run_cli(
            capsys, "--sql", f"SELECT * FROM t3 WHERE {where}",
            "--scale", "5", "--strategy", strategy, "--executor", executor,
        )
        assert code == 1
        assert err.startswith(f"error: {message}"), err
        assert "rows, charged" not in out


class TestCli:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--seed", "7"
        )
        assert code == 0
        assert "strategy: migration" in out
        assert "charged" in out

    def test_explain_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--explain-only"
        )
        assert code == 0
        assert "join" in out
        assert "charged" not in out

    def test_strategy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20",
            "--strategy", "pushdown", "--explain-only",
        )
        assert code == 0
        assert "strategy: pushdown" in out

    def test_compare_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--compare"
        )
        assert code == 0
        for strategy in ("pushdown", "migration", "exhaustive"):
            assert strategy in out

    def test_workload_q1(self, capsys):
        code, out, _ = run_cli(
            capsys, "--workload", "q1", "--scale", "20", "--explain-only"
        )
        assert code == 0
        assert "Query 1" in out

    def test_rows_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--rows", "3"
        )
        assert code == 0
        assert out.strip().count("(") >= 3

    def test_budget_dnf_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20",
            "--strategy", "pushdown", "--budget", "10",
        )
        assert code == 2
        assert "DNF" in out

    def test_bad_sql_reports_error(self, capsys):
        code, _, err = run_cli(
            capsys, "--sql", "SELECT * FROM nope", "--scale", "20"
        )
        assert code == 1
        assert "unknown relation" in err

    def test_caching_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--caching"
        )
        assert code == 0

    def test_explain_analyze(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--explain-analyze"
        )
        assert code == 0
        assert "est rows=" in out
        assert "act rows=" in out
        assert "err rows" in out
        assert "charged" in out  # the summary line still prints

    def test_stats_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--stats"
        )
        assert code == 0
        assert "plan.wall_seconds" in out
        assert "exec.wall_seconds" in out
        assert "plan.subplans_enumerated" in out
        assert "exec.charged" in out

    def test_stats_with_explain_only_reports_plan_side(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20",
            "--explain-only", "--stats",
        )
        assert code == 0
        assert "plan.wall_seconds" in out
        assert "exec.wall_seconds" not in out

    def test_trace_writes_valid_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--trace", str(trace)
        )
        assert code == 0
        assert "spans" in err
        records = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        assert records
        names = [record["span"] for record in records]
        # one span per optimizer phase, plus the executor's
        assert "optimize" in names
        assert "enumerate" in names
        assert "migrate" in names  # default strategy is migration
        assert "execute" in names
        by_id = {record["id"]: record for record in records}
        enumerate_span = next(
            record for record in records if record["span"] == "enumerate"
        )
        assert by_id[enumerate_span["parent"]]["span"] == "optimize"

    def test_trace_unwritable_path_reports_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "--sql", SQL, "--scale", "20", "--trace", str(target)
        )
        assert code == 1
        assert "cannot write trace file" in err

    def test_parser_rejects_sql_and_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--sql", "x", "--workload", "q1"]
            )

    def test_parser_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--compare"])

    def test_strategies_all_reaches_full_registry(self, capsys):
        code, out, _ = run_cli(
            capsys, "--workload", "q1", "--scale", "20",
            "--compare", "--strategies", "all",
        )
        assert code == 0
        assert "ldl-ikkbz" in out

    def test_strategies_comma_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "--sql", SQL, "--scale", "20",
            "--compare", "--strategies", "pushdown,pullup",
        )
        assert code == 0
        assert "pushdown" in out
        assert "migration" not in out

    def test_strategies_unknown_name_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "--sql", SQL, "--scale", "20",
            "--compare", "--strategies", "bogus",
        )
        assert code == 2
        assert "unknown strategies" in err
        # One-line usage error listing the valid choices.
        assert "pushdown" in err


class TestRecordAndDiff:
    def record(self, capsys, tmp_path, name, **overrides):
        target = tmp_path / name
        argv = [
            "--workload", "q1", "--scale", "20", "--seed", "42",
            "--compare", "--record", str(target),
        ]
        for flag, value in overrides.items():
            argv += [f"--{flag}", str(value)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "artifact" in err
        return target

    def test_record_writes_artifact_with_profile(self, capsys, tmp_path):
        target = self.record(capsys, tmp_path, "runA")
        files = list(target.glob("BENCH_*.json"))
        assert len(files) == 1
        document = json.loads(files[0].read_text(encoding="utf-8"))
        assert document["workload"] == "q1"
        assert document["environment"]["scale"] == 20
        assert "migration" in document["strategies"]
        assert document["strategies"]["migration"]["fingerprint"]
        # Recording turns the profiler on; hotspots land in the artifact.
        assert document["hotspots"]

    def test_bench_diff_identical_runs_exit_zero(self, capsys, tmp_path):
        a = self.record(capsys, tmp_path, "runA")
        b = self.record(capsys, tmp_path, "runB")
        code, out, _ = run_cli(capsys, "bench-diff", str(a), str(b))
        assert code == 0
        assert "no regressions" in out

    def test_bench_diff_detects_regression(self, capsys, tmp_path):
        a = self.record(capsys, tmp_path, "runA")
        b = self.record(capsys, tmp_path, "runB")
        artifact = next(b.glob("BENCH_*.json"))
        document = json.loads(artifact.read_text(encoding="utf-8"))
        document["strategies"]["migration"]["charged"] *= 1.5
        document["strategies"]["pushdown"]["fingerprint"] = "0" * 16
        artifact.write_text(json.dumps(document), encoding="utf-8")
        code, out, _ = run_cli(capsys, "bench-diff", str(a), str(b))
        assert code == 1
        assert "[REGRESSION]" in out
        assert "charged" in out
        assert "fingerprint" in out
        assert "regression(s)" in out

    def test_bench_diff_empty_candidate_dir_exit_two(self, capsys, tmp_path):
        a = self.record(capsys, tmp_path, "runA")
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(capsys, "bench-diff", str(a), str(empty))
        assert code == 2
        assert "no BENCH_" in err

    def test_bench_diff_unreadable_artifact_exit_two(self, capsys, tmp_path):
        a = self.record(capsys, tmp_path, "runA")
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "BENCH_q1.json").write_text("{nope", encoding="utf-8")
        code, _, err = run_cli(capsys, "bench-diff", str(a), str(broken))
        assert code == 2
        assert "not valid JSON" in err


class TestWhy:
    def test_explains_expensive_predicate(self, capsys):
        code, out, _ = run_cli(
            capsys, "why", "q4", "--strategy", "migration", "--scale", "5"
        )
        assert code == 0
        assert "== why: Query 4 under migration" in out
        assert "costly100sel10(t3.u20)" in out
        assert "rank comparison" in out
        assert "counterfactual" in out
        assert "re-costs to" in out

    def test_predicate_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "why", "q4", "--scale", "5",
            "--predicate", "no-such-predicate",
        )
        assert code == 0
        assert "no expensive predicate matching" in out

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "why", "q4", "--strategy", "bogus")
        assert excinfo.value.code == 2

    def test_unknown_workload_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "why", "q99")
        assert excinfo.value.code == 2


class TestPlanDiff:
    def test_side_by_side_with_ledger_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-diff", "q4", "pushdown", "migration",
            "--scale", "5",
        )
        assert code == 0
        assert "pushdown" in out and "migration" in out
        assert "est cost" in out
        assert "ledger events)" in out
        assert "≠" in out  # the two strategies disagree on q4
        assert "ledger event counts:" in out
        assert "scan.rank_order" in out

    def test_same_strategy_diff_has_no_markers(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan-diff", "q1", "pushdown", "pushdown",
            "--scale", "5",
        )
        assert code == 0
        assert "≠" not in out

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "plan-diff", "q4", "pushdown", "bogus")
        assert excinfo.value.code == 2


class TestTraceExport:
    def test_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, _, err = run_cli(
            capsys, "--workload", "q4", "--scale", "5",
            "--trace-export", str(path),
        )
        assert code == 0
        assert "trace-export" in err
        document = json.loads(path.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert any(e["ph"] == "X" and e["tid"] == 1 for e in events)
        # The profiler rides along: optimizer/executor phases on tid 2.
        assert any(e["ph"] == "X" and e["tid"] == 2 for e in events)

    def test_unwritable_path_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--workload", "q4", "--scale", "5",
            "--explain-only",
            "--trace-export", str(tmp_path / "no" / "dir" / "t.json"),
        )
        assert code == 1
        assert "cannot write trace-export" in err

    def test_combines_with_jsonl_trace(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        code, _, err = run_cli(
            capsys, "--workload", "q1", "--scale", "5", "--explain-only",
            "--trace", str(jsonl), "--trace-export", str(chrome),
        )
        assert code == 0
        assert jsonl.exists() and chrome.exists()
        assert "-- trace:" in err and "-- trace-export:" in err


class TestFlightRecord:
    """--flight-record end to end: a budget-killed run leaves a dump."""

    def test_dead_run_writes_renderable_dump(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "--workload", "q1", "--scale", "10",
            "--executor", "vector", "--budget", "50",
            "--flight-record", str(tmp_path),
        )
        assert code == 2
        assert "DNF" in out
        assert "-- flight dump:" in err
        dump = tmp_path / "FLIGHT_q1.json"
        assert dump.exists()
        document = json.loads(dump.read_text())
        assert document["kind"] == "flight"
        assert document["reason"].startswith("budget")

        code, out, _ = run_cli(capsys, "postmortem", str(dump))
        assert code == 0
        assert "postmortem: q1" in out
        assert "reason: budget" in out
        assert "timeline (last" in out

    def test_completed_run_writes_no_dump(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "--workload", "q1", "--scale", "5",
            "--flight-record", str(tmp_path),
        )
        assert code == 0
        assert "-- flight dump:" not in err
        assert not list(tmp_path.glob("FLIGHT_*.json"))

    def test_unwritable_dir_exits_1(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code, _, err = run_cli(
            capsys, "--workload", "q1", "--scale", "10",
            "--budget", "50",
            "--flight-record", str(blocker / "nested"),
        )
        assert code == 1
        assert "cannot write flight dump" in err


class TestPostmortem:
    """Exit-code hardening for the dump-reading verb."""

    def test_missing_dump_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "postmortem", str(tmp_path / "FLIGHT_nope.json")
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        dump = tmp_path / "FLIGHT_bad.json"
        dump.write_text("{not json")
        code, _, err = run_cli(capsys, "postmortem", str(dump))
        assert code == 2
        assert "error:" in err

    def test_wrong_kind_exits_2(self, capsys, tmp_path):
        dump = tmp_path / "FLIGHT_kind.json"
        dump.write_text(json.dumps({"kind": "bench-artifact"}))
        code, _, err = run_cli(capsys, "postmortem", str(dump))
        assert code == 2
        assert "error:" in err

    def test_last_flag_caps_timeline(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "--workload", "q1", "--scale", "10",
            "--executor", "vector", "--budget", "50",
            "--flight-record", str(tmp_path),
        )
        assert code == 2
        dump = tmp_path / "FLIGHT_q1.json"
        code, out, _ = run_cli(
            capsys, "postmortem", str(dump), "--last", "2"
        )
        assert code == 0
        assert "timeline (last 2" in out


class TestDispatch:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chaoss", "q1"], ["bench"], ["bench", "bogus"], ["q1"],
            ["opt-speed"], ["vec-speed"], ["bench", "adapt"],
        ],
    )
    def test_unknown_command_exits_2_naming_the_verbs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unknown command {argv[0]!r}" in err
        assert "--sql --workload is required" not in err
        for verb in VERBS:
            assert verb in err

    def test_every_verb_names_a_module_with_a_parser_and_a_main(self):
        for verb, name in VERBS.items():
            module = importlib.import_module(name)
            assert module.build_parser().prog == f"repro {verb}"
            assert callable(module.main)

    def test_help_lists_the_verbs(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ", ".join(sorted(VERBS)) in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.split() == ["repro", repro.__version__]

    def test_verb_handlers_stay_importable_from_main(self):
        from repro.__main__ import bench_diff, plan_diff
        from repro.cli import bench_diff as bench_diff_module

        assert bench_diff is bench_diff_module.main
        assert callable(plan_diff)
        with pytest.raises(ImportError):
            from repro.__main__ import no_such_verb  # noqa: F401
