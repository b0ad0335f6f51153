"""``repro --sql/--workload ...``: plan one query and run it.

What a flag needs beyond the plain optimize-and-execute path (``--compare``,
``--record``, ``--stats``, ``--adaptive``, ``--inject-cards``,
``--metrics-export``, ``--flight-record``, ``--trace-export``) is
imported where the flag is handled, so a run without it does not pay for
it.
"""

from __future__ import annotations

import argparse
import sys

from repro import Executor, build_database, compile_query, optimize, plan_tree
from repro.adaptive.workloads import ADAPT_WORKLOADS, build_adapt_workload
from repro.bench.workloads import WORKLOADS, build_workload
from repro.cli.common import write_metrics
from repro.cost.model import CostModel
from repro.errors import OptimizerError, ReproError
from repro.exec.runtime import EXECUTORS
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.provenance import ProvenanceLedger
from repro.obs.quality import DRIFT_QERROR_THRESHOLD
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer import STRATEGIES
from repro.plan.display import explain_analyze


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Practical Predicate Placement' "
            "(Hellerstein, SIGMOD 1994): optimize and execute SQL with "
            "expensive predicates."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--sql", help="SQL text to plan and run")
    source.add_argument(
        "--workload",
        choices=sorted(WORKLOADS) + sorted(ADAPT_WORKLOADS),
        help="one of the paper's benchmark queries, or an adapt_* "
        "misestimation scenario (seeded catalog lies for --adaptive)",
    )
    parser.add_argument(
        "--strategy",
        default="migration",
        choices=sorted(STRATEGIES),
        help="placement algorithm (default: migration)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run every placement algorithm and print the comparison table",
    )
    parser.add_argument(
        "--strategies",
        default="default",
        metavar="SPEC",
        help="strategy line-up for --compare: 'default' (the paper's six), "
        "'all' (adds ldl-ikkbz, the full registry), or a comma-separated "
        "list of strategy names",
    )
    parser.add_argument(
        "--record",
        metavar="DIR",
        help="write a BENCH_<workload>.json run artifact (environment, "
        "per-strategy measurements, plan fingerprints, hotspots) into DIR "
        "after a --compare run; pair with 'bench-diff' to gate regressions",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=100,
        help="database scale: tN has N x scale tuples (default 100; "
        "the paper's scale is 10000)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--caching", action="store_true", help="enable predicate caching"
    )
    parser.add_argument(
        "--executor",
        default="row",
        choices=EXECUTORS,
        help="execution path: 'row' (tuple-at-a-time, the default) or "
        "'vector' (batch-at-a-time columnar); both produce identical "
        "rows and charges",
    )
    parser.add_argument(
        "--cache-capacity",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound the predicate cache to N total entries across all "
        "predicates (global LRU; default: unbounded)",
    )
    parser.add_argument(
        "--bushy",
        action="store_true",
        help="enumerate bushy join trees (enumeration-based strategies)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="charged-cost budget; plans exceeding it report DNF",
    )
    parser.add_argument(
        "--explain-only",
        action="store_true",
        help="print the plan without executing it",
    )
    parser.add_argument(
        "--explain-analyze",
        action="store_true",
        help="execute with per-operator instrumentation and print the plan "
        "annotated with estimated vs. actual rows/cost per node "
        "(single-strategy runs)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record optimizer and executor spans and write them to FILE "
        "as JSON lines",
    )
    parser.add_argument(
        "--trace-export",
        metavar="FILE",
        help="record spans and profiler phases and write them to FILE as "
        "Chrome trace_event JSON (loadable in chrome://tracing or "
        "Perfetto)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the plan./exec. metrics snapshot after the run "
        "(single-strategy runs)",
    )
    parser.add_argument(
        "--metrics-export",
        metavar="FILE",
        help="attach live telemetry and write the final metrics snapshot "
        "to FILE — Prometheus text format, or a JSON document when FILE "
        "ends in .json (works for single-strategy and --compare runs)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=0,
        metavar="N",
        help="print the first N result rows",
    )
    parser.add_argument(
        "--flight-record",
        metavar="DIR",
        help="attach the execution flight recorder (a fixed-capacity ring "
        "buffer of batch/row events); if the run dies — UDF-DNF, budget "
        "exhaustion — a strict-JSON FLIGHT_<workload>.json crash dump is "
        "written into DIR for 'repro postmortem' (single-strategy runs)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="arm mid-query re-optimization: at row milestones, compare "
        "observed selectivities against the plan's estimates and — past "
        "the drift threshold — re-plan the unexecuted suffix in place "
        "(guardrailed: re-plan budget, oscillation damping, improvement "
        "check; rows and zero-replan charges are identical to a "
        "non-adaptive run)",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        metavar="Q",
        help=f"q-error above which observed-vs-declared selectivity "
        f"drift triggers a re-plan (default {DRIFT_QERROR_THRESHOLD:g}; "
        f"requires --adaptive)",
    )
    parser.add_argument(
        "--max-replans",
        type=int,
        default=None,
        metavar="N",
        help="re-plan budget per query; once spent the controller "
        "records a refusal and disarms (default 2; requires --adaptive)",
    )
    parser.add_argument(
        "--inject-cards",
        metavar="FILE",
        help="inject exact cardinalities before planning: a JSON file "
        "mapping predicate fingerprints (or UDF names) to selectivity / "
        "rows+input_rows (and optional cost_per_call), applied through "
        "Catalog.apply_feedback, then the query is recompiled so ranks "
        "re-derive from the injected statistics",
    )
    return parser


def _adaptive_policy(args):
    """The CLI's adaptive knobs as an ``AdaptivePolicy``, or ``None``
    when off."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.adaptive.controller import AdaptivePolicy

    kwargs = {}
    if args.drift_threshold is not None:
        kwargs["drift_threshold"] = args.drift_threshold
    if args.max_replans is not None:
        kwargs["max_replans"] = args.max_replans
    return AdaptivePolicy(**kwargs)


def _inject_cards(db, args, query, build) -> object:
    """Apply ``--inject-cards`` and recompile; returns the new query.

    Two passes: the first compile (already done by the caller) yields
    the predicates whose fingerprints card keys may name; binding, then
    ``apply_feedback``, mutates the catalog; the rebuild re-derives
    every rank from the injected statistics (predicate stats are baked
    in at compile time, like ``repro stats --apply-feedback``).
    """
    from repro.adaptive.inject import load_injected_cards

    store = load_injected_cards(args.inject_cards).bind(query.predicates)
    applied = db.catalog.apply_feedback(store)
    for key in store.unmatched:
        print(
            f"warning: injected card {key!r} looks like a predicate "
            "fingerprint but matches none of this query's predicates "
            "(treated as a UDF name)",
            file=sys.stderr,
        )
    print(
        f"-- injected cards: {applied} statistic(s) updated from "
        f"{args.inject_cards}",
        file=sys.stderr,
    )
    return build()


def _print_stats(registry, out) -> None:
    print("-- stats", file=out)
    for name, value in sorted(registry.snapshot().items()):
        if isinstance(value, float):
            print(f"{name} = {value:.6g}", file=out)
        else:
            print(f"{name} = {value}", file=out)


def _print_materialised(db, out) -> None:
    """What this run generated on first read (wall-clock that a run on an
    already-read database would not spend)."""
    built = ", ".join(
        f"{m.name} ({m.rows:,} rows, {m.ms:.1f} ms)" for m in db.materialised
    )
    print(f"-- materialised: {built or 'nothing'}", file=out)


def _write_flight(
    directory: str,
    flight,
    *,
    workload: str,
    reason: str,
    executor: str,
    strategy: str,
    seed: int,
    result=None,
    monitor=None,
    clamped_charges: int = 0,
) -> int:
    """Serialize one crash dump; returns 0, or 1 on an unwritable path."""
    from repro.obs.flightrec import (
        build_flight_dump,
        flight_path,
        write_flight_dump,
    )

    document = build_flight_dump(
        flight,
        workload=workload,
        reason=reason,
        executor=executor,
        strategy=strategy,
        seed=seed,
        result=result,
        monitor=monitor,
        clamped_charges=clamped_charges,
    )
    try:
        target = write_flight_dump(
            flight_path(directory, workload), document
        )
    except OSError as error:
        print(
            f"error: cannot write flight dump: {error}", file=sys.stderr
        )
        return 1
    print(f"-- flight dump: {target}", file=sys.stderr)
    return 0


def _run(args, tracer, out, profiler=NULL_PROFILER, flight=None) -> int:
    db = build_database(scale=args.scale, seed=args.seed)
    registry = None
    if args.stats:
        from repro.obs.metrics import MetricsRegistry, record_run

        registry = MetricsRegistry()
    if args.workload and args.workload in ADAPT_WORKLOADS:
        from repro.adaptive.workloads import ADAPT_SQL

        adapt = build_adapt_workload(db, args.workload)
        query = adapt.query
        budget = args.budget
        rebuild = lambda: build_adapt_workload(db, args.workload).query  # noqa: E731
        print(f"-- {adapt.key}: {adapt.title}", file=out)
        print(ADAPT_SQL, file=out)
    elif args.workload:
        workload = build_workload(db, args.workload)
        query = workload.query
        budget = args.budget if args.budget is not None else workload.budget
        rebuild = lambda: build_workload(db, args.workload).query  # noqa: E731
        print(f"-- {workload.title} ({workload.figure})", file=out)
        print(workload.sql, file=out)
    else:
        from repro.bench.workloads import ensure_workload_functions

        ensure_workload_functions(db)
        query = compile_query(db, args.sql, name="cli")
        budget = args.budget
        rebuild = lambda: compile_query(db, args.sql, name="cli")  # noqa: E731
    if args.inject_cards:
        query = _inject_cards(db, args, query, rebuild)
    adaptive_policy = _adaptive_policy(args)

    if args.compare:
        from repro.bench.harness import resolve_strategies, run_strategies
        from repro.bench.report import format_outcomes

        # Recording instruments the run so artifacts carry per-operator
        # actuals, per-strategy provenance ledgers, and the profiler's
        # hotspot report.
        if not profiler.enabled and args.record:
            profiler = PhaseProfiler()
        try:
            strategies = resolve_strategies(args.strategies)
        except OptimizerError as error:
            # A mistyped strategy name is a usage error, not a runtime
            # failure: one line of valid choices, argparse's exit code.
            print(f"error: {error}", file=sys.stderr)
            return 2
        outcomes = run_strategies(
            db,
            query,
            strategies=strategies,
            caching=args.caching,
            budget=budget,
            execute=not args.explain_only,
            tracer=tracer,
            instrument=args.explain_analyze or bool(args.record),
            profiler=profiler,
            provenance=bool(args.record),
            feedback=bool(args.record),
            telemetry=bool(args.record) or bool(args.metrics_export),
            executor=args.executor,
            adaptive=adaptive_policy,
        )
        if adaptive_policy is not None:
            for outcome in outcomes:
                summary = outcome.extras.get("adaptive")
                if summary:
                    print(
                        f"-- adaptive[{outcome.strategy}]: "
                        f"{summary['replans']} replan(s), "
                        f"{summary['refusals']} refusal(s), "
                        f"{summary['triggers']} trigger(s) over "
                        f"{summary['boundaries']} boundaries",
                        file=out,
                    )
        print(
            format_outcomes(
                f"{query.name or 'query'} under every algorithm", outcomes
            ),
            file=out,
        )
        if args.metrics_export:
            monitors = {
                outcome.strategy: outcome.extras.get("monitor")
                for outcome in outcomes
                if outcome.extras.get("monitor") is not None
            }
            code = write_metrics(
                args.metrics_export, monitors, registry=registry
            )
            if code:
                return code
        if args.record:
            from repro.obs.artifacts import ArtifactRecorder

            recorder = ArtifactRecorder(
                args.record, scale=args.scale, seed=args.seed
            )
            target = recorder.record(
                args.workload or query.name or "cli",
                outcomes,
                profiler=profiler,
            )
            print(f"-- artifact: {target}", file=sys.stderr)
        return 0

    optimized = optimize(
        db,
        query,
        strategy=args.strategy,
        caching=args.caching,
        bushy=args.bushy,
        tracer=tracer,
        profiler=profiler,
    )
    print(
        f"-- strategy: {args.strategy}  "
        f"(planned in {optimized.planning_seconds * 1000:.1f} ms, "
        f"estimated cost {optimized.estimated_cost:,.1f})",
        file=out,
    )
    # --explain-analyze replaces the plain tree with the annotated one,
    # unless --explain-only skips execution (then the plain tree is all
    # there is to show).
    if args.explain_only or not args.explain_analyze:
        print(plan_tree(optimized.plan), file=out)
    if args.explain_only:
        if registry is not None:
            record_run(registry, optimized)
            _print_stats(registry, out)
        return 0

    # A flight-recorded run keeps the monitor attached regardless of
    # --metrics-export: the crash dump's frozen progress section needs it.
    monitor = None
    if args.metrics_export or flight is not None:
        from repro.obs.runtime_telemetry import RuntimeMonitor

        monitor = RuntimeMonitor()
    adaptive_ledger = (
        ProvenanceLedger() if adaptive_policy is not None else None
    )
    executor = Executor(
        db, caching=args.caching, budget=budget, tracer=tracer,
        profiler=profiler, monitor=monitor, executor=args.executor,
        # The only bound the CLI offers is documented as least-recently-used.
        cache_capacity=args.cache_capacity, cache_replacement="lru",
        flight=flight,
        adaptive=adaptive_policy, ledger=adaptive_ledger,
    )
    result = executor.execute(
        optimized.plan,
        project=query.select,
        instrument=args.explain_analyze,
    )
    if result.adaptive is not None:
        report = result.adaptive
        status = (
            "active" if report.active
            else f"disabled ({report.disabled_reason})"
        )
        print(
            f"-- adaptive: {status}; {report.replans} replan(s), "
            f"{report.refusals} refusal(s), {report.triggers} trigger(s) "
            f"over {report.boundaries} boundaries "
            f"({report.leaf_rows} leaf rows)",
            file=out,
        )
        for event in report.events:
            action = event.get("action", "?")
            detail = ""
            if action == "applied":
                moves = ", ".join(
                    f"{move['predicate']} slot "
                    f"{move['from_slot']}->{move['to_slot']}"
                    for move in event.get("moves", [])
                )
                detail = f" [{event.get('rung', '?')}] {moves}"
            elif event.get("reason"):
                detail = f": {event['reason']}"
            print(
                f"--   replan event at leaf row "
                f"{event.get('leaf_rows', '?')}: {action}{detail}",
                file=out,
            )
    if monitor is not None and args.metrics_export:
        code = write_metrics(
            args.metrics_export, {"": monitor}, registry=registry
        )
        if code:
            return code
    if args.explain_analyze or registry is not None:
        _print_materialised(db, out)
    if args.explain_analyze:
        model = CostModel(db.catalog, db.params, caching=args.caching)
        print(
            explain_analyze(
                optimized.plan,
                result.node_stats,
                model,
                batch_stats=result.batch_stats,
            ),
            file=out,
        )
    if registry is not None:
        record_run(registry, optimized, result)
        _print_stats(registry, out)
    if not result.completed:
        if flight is not None and args.flight_record:
            code = _write_flight(
                args.flight_record,
                flight,
                workload=args.workload or query.name or "cli",
                reason=result.error,
                executor=args.executor,
                strategy=args.strategy,
                seed=args.seed,
                result=result,
                monitor=monitor,
                clamped_charges=int(db.meter.clamped_charges),
            )
            if code:
                return code
        print(
            f"DNF: exceeded budget after charging "
            f"{result.charged:,.1f} units",
            file=out,
        )
        return 2
    print(
        f"{result.row_count} rows, charged {result.charged:,.1f} units "
        f"({result.metrics['function_calls']:.0f} UDF calls, "
        f"{result.metrics['random_ios']:.0f} random + "
        f"{result.metrics['seq_ios']:.0f} sequential I/Os)",
        file=out,
    )
    for row in result.rows[: args.rows]:
        print(row, file=out)
    return 0


def main(args: argparse.Namespace, out=None) -> int:
    """Run parsed ``build_parser()`` arguments; returns the exit code."""
    if out is None:
        out = sys.stdout
    tracer = Tracer() if args.trace or args.trace_export else NULL_TRACER
    profiler = PhaseProfiler() if args.trace_export else NULL_PROFILER
    flight = None
    if args.flight_record:
        from repro.obs.flightrec import FlightRecorder

        flight = FlightRecorder()
    try:
        code = _run(args, tracer, out, profiler=profiler, flight=flight)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    if args.trace:
        try:
            count = tracer.export_jsonl(args.trace)
        except OSError as error:
            print(
                f"error: cannot write trace file: {error}", file=sys.stderr
            )
            return 1
        print(f"-- trace: {count} spans -> {args.trace}", file=sys.stderr)
    if args.trace_export:
        from repro.obs.chrome import export_chrome_trace

        try:
            count = export_chrome_trace(
                args.trace_export, tracer=tracer, profiler=profiler,
                flight=flight,
            )
        except OSError as error:
            print(
                f"error: cannot write trace-export file: {error}",
                file=sys.stderr,
            )
            return 1
        print(
            f"-- trace-export: {count} events -> {args.trace_export}",
            file=sys.stderr,
        )
    return code
