"""End-to-end, layer-attributed benchmark of ``repro``.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed 42]
        [--seconds S] [--trace] [--quick] [--repeat N] [--out DIR]
    python3 benchmarks/perf/run.py --compare A/results.json B/results.json

Each workload runs in its own fresh worker process (``worker.py``),
single-threaded, closed loop with one client. Without ``--trace`` a run
reports the end-to-end metrics (one ``perf_counter`` pair per op); with it,
the per-layer metrics. Every metric is printed by name with its unit, every
op's output is checked, and the last line of a workload's report is one
JSON object ``{correct, attempted, failed, metrics}``. The exit code is
non-zero if any op failed. README.md documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import compare
import pins
from config import DEFAULT_OUT, HERE, ROOT, SRC, child_env, load_benchmark, python

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: A worker that has not answered by then is killed and the run fails
#: (the slowest workload needs about 30 s).
WORKER_TIMEOUT_S = 170


def start_worker(name, seed, seconds, trace, quick, out, setup_only=False) -> dict:
    command = python(
        str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
        "--spawned-at", repr(perf_counter()),
        *(["--quick"] if quick else []),
        *(["--setup-only"] if setup_only else []),
    )
    # stderr passes through: tracebacks belong to the user.
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker for {name} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name, seed, seconds, trace, quick, out) -> dict:
    samples = 1 if trace or quick else SETUP_SAMPLES
    setups = [
        start_worker(name, seed, seconds, trace, quick, out, setup_only=True)["setup_s"]
        for _ in range(samples - 1)
    ]
    result = start_worker(name, seed, seconds, trace, quick, out)
    setups.append(result["info"]["setup_s"])
    if "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] = median(setups)
    return result


def report(result: dict) -> None:
    info = result["info"]
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  "
        f"passes={info['passes']}  untraced ops={info['samples']} =="
    )
    # A traced run's metrics already hold charged_cost; it is printed once.
    for name, metric in {**result["metrics"], **result["exact"]}.items():
        print(f"{name:<40} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'verify_s':<40} {info['verify_s']:>16.6f} s")
    for line in result["errors"]:
        print(f"FAILED {line}")
    for line in result["pin_drift"]:
        print(f"PIN DRIFT {line}")
    print(json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }), flush=True)


def main(argv: list[str]) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="repeatable; default: all six",
    )
    parser.add_argument("--seed", type=int, default=pins.PIN_SEED)
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="op time to measure per run, in whole passes of the mix. The "
        "benchmark driver's command line carries it; it is always "
        "BENCHMARK.json's run_seconds (the default), and --compare refuses "
        "run sets measured with different values",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="traced run: per-layer metrics and trace_<workload>.json",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one pass per workload (two when traced), one set-up",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help="directory for results.json and traces (default: %(default)s)",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="rewrite expected_seed42.json from this run (all workloads, "
        "--seed 42, untraced)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        lines, regressed = compare.compare(*args.compare)
        print("\n".join(lines))
        return 1 if regressed else 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if args.write_expected and (
        args.workload or args.trace or args.seed != pins.PIN_SEED
    ):
        parser.error("--write-expected needs all workloads, --seed 42, no --trace")

    args.out.mkdir(parents=True, exist_ok=True)
    runs = []
    for _ in range(args.repeat):
        for name in args.workload or names:
            result = run_workload(
                name, args.seed, args.seconds, args.trace, args.quick, args.out
            )
            report(result)
            runs.append(result)
    with open(args.out / "results.json", "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")
    correct = all(run["correct"] for run in runs)
    if args.write_expected and correct:
        pins.write_expected({run["workload"]: run["cells"] for run in runs})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
