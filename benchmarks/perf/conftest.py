"""Keeps the self-check out of ``pytest benchmarks/``.

``test_perf_selfcheck.py`` runs the whole benchmark in ``--quick`` mode
(minutes). It is collected only when this directory, or a file in it, is
named on the command line: ``python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    base = config.invocation_params.dir
    named = [(base / arg.split("::")[0]).resolve() for arg in config.args]
    if not any(path == HERE or HERE in path.parents for path in named):
        return True
    return None
