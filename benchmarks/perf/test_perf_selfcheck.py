"""Self-check of the benchmark: ``python -m pytest benchmarks/perf -q``.

Runs ``run.py --quick`` (one pass per workload, about a minute and a half)
and checks what the benchmark promises about itself. Not part of tier-1.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracle
import spans as span_tools
from config import EXACT_METRICS, ROOT, load_benchmark

RUN = [sys.executable, str(Path(__file__).with_name("run.py")), "--quick"]
BENCHMARK = load_benchmark()
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Cheap enough to run a second time.
REPEATED = ["cold_cli_s100", "plan_only_s100", "exec_vector_s1000"]


def quick_run(out: Path, *extra: str, env: dict | None = None):
    done = subprocess.run(
        [*RUN, "--out", str(out), *extra], cwd=ROOT, capture_output=True,
        text=True, env={**os.environ, **(env or {})},
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out / "results.json", encoding="utf-8") as handle:
        runs = {run["workload"]: run for run in json.load(handle)["runs"]}
    return done, runs


@pytest.fixture(scope="session")
def untraced(tmp_path_factory):
    return quick_run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return (*quick_run(out, "--trace"), out)


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [
        metric["name"]
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert EXACT_METRICS <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_is_printed_with_its_unit(kind, untraced, traced):
    done, runs = untraced if kind == "end_to_end" else traced[:2]
    assert sorted(runs) == sorted(WORKLOADS)
    printed = re.findall(r"^(\S+)\s+(-?[\d.]+) (\S+)", done.stdout, re.M)
    for metric in BENCHMARK[kind]:
        lines = [p for p in printed if p[0] == metric["name"]]
        assert len(lines) == len(WORKLOADS), metric["name"]
        assert {unit for _, _, unit in lines} == {metric["unit"]}
    for run in runs.values():
        assert list(run["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    assert done.stdout.count("failed_share") == len(WORKLOADS)
    assert not re.search(r"^failed_share\s+0\.0*[1-9]", done.stdout, re.M)


def test_end_to_end_metrics_are_never_zero(untraced):
    for run in untraced[1].values():
        for name, metric in run["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_untraced_runs_carry_the_exact_metrics(untraced, traced):
    for name, run in untraced[1].items():
        assert run["exact"]["failed_share"]["value"] == 0
        charged = run["exact"]["charged_cost"]["value"]
        assert charged == traced[1][name]["metrics"]["charged_cost"]["value"]
        # Plan-only ops execute nothing, so they are charged nothing.
        assert (charged > 0) == (name != "plan_only_s100")


def test_the_drivers_command_line():
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "plan_only_s100", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]


def test_seed_42_matches_its_pins_and_the_gated_baselines(untraced, traced):
    for run in [*untraced[1].values(), *traced[1].values()]:
        assert run["pin_drift"] == [], run["workload"]
    for run in traced[1].values():
        assert run["metrics"]["pins.drifted"]["value"] == 0


def test_exact_metrics_repeat_under_another_hash_seed(traced, tmp_path):
    _, again = quick_run(
        tmp_path, "--trace", *(f"--workload={name}" for name in REPEATED),
        env={"PYTHONHASHSEED": "12345"},
    )
    for name in REPEATED:
        for metric in EXACT_METRICS:
            assert (
                again[name]["metrics"][metric]["value"]
                == traced[1][name]["metrics"][metric]["value"]
            ), (name, metric)


def test_spans_nest_and_sum_to_the_op(traced):
    _, runs, out = traced
    for name in WORKLOADS:
        with open(out / f"trace_{name}.json", encoding="utf-8") as handle:
            recorded = json.load(handle)["spans"]
        assert span_tools.nesting_errors(recorded) == []
        assert {"op", "build_database", "optimize"} <= {
            span["name"] for span in recorded
        }
        # Named layers account for at least 98 % of op time.
        assert runs[name]["metrics"]["trace.unattributed_share"]["value"] <= 0.02


def test_another_seed_runs_clean_through_the_oracle(tmp_path):
    _, runs = quick_run(
        tmp_path, "--seed", "7", *(f"--workload={name}" for name in REPEATED)
    )
    for run in runs.values():
        assert run["correct"] and run["failed"] == 0 and run["pin_drift"] == []


def test_self_seconds_subtracts_children():
    recorder = span_tools.SpanRecorder()
    with recorder.span("op", op=0):
        with recorder.span("optimize"):
            pass
        recorder.adopt("execute", 1.0, 1.5)
    own = span_tools.self_seconds(recorder.spans)
    op, optimize, execute = recorder.spans
    assert execute["parent"] == 0 and execute["op"] == optimize["op"] == 0
    assert own[0] == pytest.approx(
        (op["end"] - op["start"]) - (optimize["end"] - optimize["start"]) - 0.5
    )
    # The adopted span lies outside the op's real interval: caught.
    assert span_tools.nesting_errors(recorder.spans)


def test_oracle_digest_sees_one_missing_or_altered_row():
    rows = [(1, 2, 3), (1, 2, 3), (4, 5, 6)]
    digest = oracle.multiset_digest(rows)
    assert digest == oracle.multiset_digest(reversed(rows))
    assert digest != oracle.multiset_digest(rows[:-1])
    assert digest != oracle.multiset_digest([(1, 2, 3), (1, 2, 4), (4, 5, 6)])


def test_compare_verdicts_follow_the_guide():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert compare.verdict(steady, steady, "lower", 0.1) == "no worse"
    assert compare.verdict(
        steady, [value * 1.2 for value in steady], "lower", 0.1
    ) == "regressed"
    assert compare.verdict(
        steady, [value * 0.8 for value in steady], "lower", 0.1
    ) == "improved"
    # Higher-is-better flips the direction.
    assert compare.verdict(
        steady, [value * 0.8 for value in steady], "higher", 0.1
    ) == "regressed"
    # A gain does not count when more ops failed.
    assert compare.verdict(
        steady, [value * 0.8 for value in steady], "lower", 0.1, more_failed=True
    ) == "no worse"
    # Fewer than ten pairs never claim a gain.
    assert compare.verdict(
        steady[:3], [value * 0.8 for value in steady[:3]], "lower", 0.1
    ) == "no worse"
    # Spread wider than the bound: unresolved, unless B always wins.
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0] * 2
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert compare.verdict(
        noisy, [value * 0.3 for value in noisy], "lower", 0.1
    ) == "improved"


def test_compare_reads_exact_metrics_and_refuses_other_settings(untraced, tmp_path):
    def written(name, **changes):
        runs = json.loads(json.dumps(list(untraced[1].values())))
        for run in runs:
            for key, value in changes.items():
                if key in run["exact"]:
                    run["exact"][key]["value"] += value
                else:
                    run[key] = value
        with open(tmp_path / name, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle)
        return handle.name

    a = written("a.json")
    lines, regressed = compare.compare(a, a)
    assert not regressed
    for name in ("charged_cost", "failed_share"):
        rows = [line for line in lines if f" {name} " in line]
        assert len(rows) == len(WORKLOADS)
        assert all(row.endswith("same") for row in rows)

    lines, regressed = compare.compare(a, written("b.json", failed_share=0.5))
    assert regressed
    assert sum("regressed (bound 0)" in line for line in lines) == len(WORKLOADS)
    lines, regressed = compare.compare(a, written("b.json", charged_cost=1.0))
    assert not regressed
    assert sum(line.endswith("changed") for line in lines) == len(WORKLOADS)
    with pytest.raises(SystemExit, match="not comparable"):
        compare.compare(a, written("b.json", seconds=99))
