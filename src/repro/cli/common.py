"""Helpers shared by more than one verb."""

from __future__ import annotations

import sys


def write_metrics(path: str, monitors: dict, registry=None) -> int:
    """Write the metrics snapshot of ``monitors`` (strategy label ->
    ``RuntimeMonitor``) and ``registry``; returns 0, or 1 on an unwritable
    path (structured error, mirroring ``--trace``'s handling)."""
    from repro.obs.export import build_export, export_metrics

    export = build_export(registry=registry, monitors=monitors)
    try:
        target = export_metrics(path, export)
    except OSError as error:
        print(
            f"error: cannot write metrics file: {error}", file=sys.stderr
        )
        return 1
    print(f"-- metrics: {target}", file=sys.stderr)
    return 0


def artifact_number(record: dict, key: str) -> float:
    """A BENCH artifact field as a float; NaN when absent or not a number."""
    value = record.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return float("nan")
