"""Replica of one ``python -m repro --workload Q ...`` run, with spans.

Performs the CLI's steps through the same public functions the CLI calls
and prints the same lines, then prints its spans as one JSON line. The
traced run of a ``cold_*`` workload times this child in place of the real
CLI to learn where a cold op's time goes; what the real CLI costs beyond
these spans is reported as ``cli.residual_ms``.

Run by ``worker.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; not meant to be started by hand.
"""

from time import perf_counter

_T0 = perf_counter()  # before any import the real CLI would also pay for

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--executor", required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=None)
    args = parser.parse_args(argv)

    spans: list[tuple[str, float, float]] = []

    def timed(name, fn, *positional, **keywords):
        start = perf_counter()
        value = fn(*positional, **keywords)
        spans.append((name, start, perf_counter()))
        return value

    # Everything `python -m repro` imports before it parses argv; the
    # span starts at _T0 so that it also holds this file's own imports
    # (argparse and json are in the CLI's closure too).
    import repro.__main__  # noqa: F401
    import repro
    from repro.bench.workloads import build_workload

    spans.append(("import", _T0, perf_counter()))

    db = timed(
        "build_database", repro.build_database,
        scale=args.scale, seed=args.seed,
    )
    # Registers the workload's UDFs, then compiles its SQL.
    workload = timed("compile_query", build_workload, db, args.workload)
    optimized = timed(
        "optimize", repro.optimize, db, workload.query, strategy="migration"
    )

    def render_plan():
        print(f"-- {workload.title} ({workload.figure})")
        print(workload.sql)
        print(
            f"-- strategy: migration  "
            f"(planned in {optimized.planning_seconds * 1000:.1f} ms, "
            f"estimated cost {optimized.estimated_cost:,.1f})"
        )
        print(repro.plan_tree(optimized.plan))

    timed("render", render_plan)
    budget = args.budget if args.budget is not None else workload.budget
    executor = repro.Executor(db, budget=budget, executor=args.executor)
    result = timed(
        "execute", executor.execute, optimized.plan,
        project=workload.query.select,
    )
    if not result.completed:
        print(f"DNF: {result.error}")
        return 2

    def render_result():
        print(
            f"{result.row_count} rows, charged {result.charged:,.1f} units "
            f"({result.metrics['function_calls']:.0f} UDF calls, "
            f"{result.metrics['random_ios']:.0f} random + "
            f"{result.metrics['seq_ios']:.0f} sequential I/Os)"
        )

    timed("render", render_result)
    print(json.dumps({"t0": _T0, "spans": spans}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
