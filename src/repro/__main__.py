"""Command-line driver: optimize and run SQL against the synthetic database.

Examples::

    python -m repro --sql "SELECT * FROM t3, t10 \
        WHERE t3.a1 = t10.ua1 AND costly100(t10.u20)"
    python -m repro --sql "..." --strategy pushdown --explain-only
    python -m repro --sql "..." --compare --caching
    python -m repro --workload q4 --compare --strategies all
    python -m repro --workload q1 --compare --record artifacts/
    python -m repro bench-diff benchmarks/baselines artifacts/
    python -m repro why q4 --strategy migration
    python -m repro plan-diff q4 pushdown migration
    python -m repro chaos q4 --seed 7
    python -m repro chaos q1 --seeds 7,11,13 --policy skip-row --report artifacts/
    python -m repro stats q4 --strategy pushdown --dir artifacts/
    python -m repro drift q4 1 2 --dir artifacts/
    python -m repro --workload q4 --trace-export trace.json
    python -m repro --workload q4 --executor vector --explain-analyze
    python -m repro --workload q1 --budget 50 --flight-record artifacts/
    python -m repro postmortem artifacts/FLIGHT_q1.json
    python -m repro top q4 --once
    python -m repro top q1 --strategy pushdown --metrics-export top.prom
    python -m repro --workload q1 --compare --metrics-export metrics.json
    python -m repro bench-history benchmarks/baselines artifacts/
"""

from __future__ import annotations

import sys
from importlib import import_module

#: Verb -> the module holding its ``build_parser()`` and
#: ``main(argv, out=None)``, imported when the verb is dispatched: a run
#: pays for the command it names and for no other.
VERBS = {
    "bench-adapt": "repro.cli.bench_adapt",
    "bench-diff": "repro.cli.bench_diff",
    "bench-history": "repro.cli.bench_history",
    "chaos": "repro.cli.chaos",
    "drift": "repro.cli.drift",
    "plan-diff": "repro.cli.plan_diff",
    "postmortem": "repro.cli.postmortem",
    "stats": "repro.cli.stats",
    "top": "repro.cli.top",
    "why": "repro.cli.why",
}

#: Without a verb the arguments are the run grammar
#: (``repro --sql/--workload ...``).
RUN = "repro.cli.run"


def build_parser():
    """The run grammar's parser; its ``--help`` also names the verbs."""
    from repro import __version__

    parser = import_module(RUN).build_parser()
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.epilog = (
        f"commands (repro COMMAND --help): {', '.join(sorted(VERBS))}"
    )
    return parser


def __getattr__(name: str):
    """``from repro.__main__ import plan_diff``: a verb's ``main`` under
    the verb's name (``-`` spelled ``_``)."""
    module = VERBS.get(name.replace("_", "-"))
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(module).main


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        module = VERBS.get(argv[0])
        if module is None:
            # The run grammar has no positionals, so this is a mistyped
            # verb: a usage error, argparse's exit code.
            print(
                f"error: unknown command {argv[0]!r}; choose from "
                f"{', '.join(sorted(VERBS))}, or pass --sql/--workload to "
                "run a query",
                file=sys.stderr,
            )
            return 2
        return import_module(module).main(argv[1:])
    return import_module(RUN).main(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
