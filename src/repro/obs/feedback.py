"""Query-driven statistics feedback: the versioned observed-stats store.

EXPLAIN ANALYZE (PR 1) measures per-operator truth and throws it away
after every run; ROADMAP item 3 wants it *persisted* as the input to
adaptive re-optimization. This module is that persistence layer:

* :class:`FeedbackCollector` — a per-execution sink the executor feeds
  one record per predicate evaluation (did it pass, what did it charge).
  The default executor path carries no collector at all, so collection
  is zero-overhead when disabled, like ``NULL_LEDGER``;
* :class:`PredicateObservation` — one predicate's tallies folded into
  observed selectivity (``passed / evaluated``) and observed per-call
  cost (``charged_cost / charged_calls``), next to what the catalog
  *declared*, keyed by a content-addressed predicate fingerprint;
* :class:`StatsFeedbackStore` — epoch-versioned snapshots serialised as
  ``STATS_<workload>.json`` (schema-versioned like ``BENCH_*.json``),
  each epoch carrying its observations, per-operator row counts, and a
  log-scale selectivity q-error histogram;
* :func:`format_stats_epoch` / :func:`format_drift_report` — the
  ``repro stats`` and ``repro drift`` CLI views.

Collection never changes plans: observations only become planner inputs
through the explicit :meth:`repro.catalog.catalog.Catalog.apply_feedback`
injection path, and the fingerprint-neutrality guard in CI proves every
baseline workload plans byte-identically with collection on and
injection off.

Documents are deterministic by construction — observations are keyed by
content fingerprint and sorted, floats are serialised via
:func:`~repro.obs.quality.fmt_stat` (non-finite values as their
``float()``-parseable names), and nothing derives from ``id()``,
``hash()``, or wall-clock — so stores are byte-stable across runs and
``PYTHONHASHSEED`` variation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArtifactError
from repro.obs.quality import (
    DRIFT_QERROR_THRESHOLD,
    detect_drift,
    fmt_stat,
    qerror,
    qerror_histogram,
)
from repro.obs.tables import Column, Table, fmt_cell

#: Bump when the store document shape changes incompatibly. Independent
#: of the ``BENCH_*`` schema version — the two artifact families evolve
#: separately.
STATS_SCHEMA_VERSION = 1

#: Store file naming convention: ``STATS_<workload>.json``.
STATS_PREFIX = "STATS_"

#: Per-operator fields persisted into an epoch. Deliberately excludes
#: ``wall_seconds`` — stores must stay deterministic, and wall-clock is
#: the one instrumented actual that never is.
_OPERATOR_FIELDS = (
    "node",
    "rows_out",
    "charged",
    "io_charged",
    "function_charged",
    "cache_hits",
)


def predicate_fingerprint(predicate) -> str:
    """A stable content hash identifying one predicate across runs.

    Hashes the canonical expression text plus the sorted table set —
    everything that defines *which* predicate this is, and nothing
    process-local (``pred_id`` is an itertools counter, ``id()`` is an
    address; neither survives a restart). sha256, 16 hex digits, for the
    same reasons as :func:`~repro.obs.artifacts.plan_fingerprint`.
    """
    text = f"{predicate}|{','.join(sorted(predicate.tables))}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse_stat(value) -> float:
    """Read back a :func:`fmt_stat`-serialised float (``"nan"`` parses)."""
    if value is None:
        return float("nan")
    return float(value)


@dataclass
class PredicateObservation:
    """Observed vs declared statistics for one predicate.

    Counter semantics: ``evaluated`` counts predicate evaluations that
    returned a verdict, ``passed`` the true verdicts; ``charged_calls``
    counts evaluations that charged any function cost (cache hits charge
    nothing and are excluded — the observed per-call cost is the cost of
    *work*, not of amortisation), ``charged_cost`` their total charge.
    """

    fingerprint: str
    predicate: str
    tables: tuple[str, ...]
    functions: tuple[str, ...]
    declared_selectivity: float
    declared_cost_per_call: float
    evaluated: int = 0
    passed: int = 0
    charged_calls: int = 0
    charged_cost: float = 0.0

    @property
    def is_expensive(self) -> bool:
        """Does the predicate invoke UDFs (the paper's expensive class)?"""
        return bool(self.functions)

    @property
    def observed_selectivity(self) -> float:
        if self.evaluated <= 0:
            return float("nan")
        return self.passed / self.evaluated

    @property
    def observed_cost_per_call(self) -> float:
        if self.charged_calls <= 0:
            return float("nan")
        return self.charged_cost / self.charged_calls

    @property
    def selectivity_qerror(self) -> float:
        return qerror(self.declared_selectivity, self.observed_selectivity)

    @property
    def cost_qerror(self) -> float:
        return qerror(
            self.declared_cost_per_call, self.observed_cost_per_call
        )

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "predicate": self.predicate,
            "tables": sorted(self.tables),
            "functions": sorted(self.functions),
            "declared": {
                "selectivity": fmt_stat(self.declared_selectivity),
                "cost_per_call": fmt_stat(self.declared_cost_per_call),
            },
            "observed": {
                "evaluated": self.evaluated,
                "passed": self.passed,
                "charged_calls": self.charged_calls,
                "charged_cost": fmt_stat(self.charged_cost),
                "selectivity": fmt_stat(self.observed_selectivity),
                "cost_per_call": fmt_stat(self.observed_cost_per_call),
            },
            "qerror": {
                "selectivity": fmt_stat(self.selectivity_qerror),
                "cost_per_call": fmt_stat(self.cost_qerror),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredicateObservation":
        declared = data.get("declared", {})
        observed = data.get("observed", {})
        return cls(
            fingerprint=str(data.get("fingerprint", "")),
            predicate=str(data.get("predicate", "")),
            tables=tuple(data.get("tables", ())),
            functions=tuple(data.get("functions", ())),
            declared_selectivity=_parse_stat(declared.get("selectivity")),
            declared_cost_per_call=_parse_stat(
                declared.get("cost_per_call")
            ),
            evaluated=int(observed.get("evaluated", 0)),
            passed=int(observed.get("passed", 0)),
            charged_calls=int(observed.get("charged_calls", 0)),
            charged_cost=_parse_stat(observed.get("charged_cost", 0.0)),
        )


@dataclass
class _Tally:
    """Raw per-``pred_id`` counters while an execution is in flight."""

    predicate: object
    evaluated: int = 0
    passed: int = 0
    charged_calls: int = 0
    charged_cost: float = 0.0


class FeedbackCollector:
    """Per-execution sink for predicate-evaluation observations.

    The executor's :class:`~repro.exec.predicate.PredicateRunner` calls
    :meth:`observe` once per evaluation with the verdict and the function
    cost charged by that evaluation (zero on cache hits and on contained
    failed attempts). Tallies are kept per ``pred_id`` during the run and
    folded into fingerprint-keyed :class:`PredicateObservation` objects
    at harvest, merging structurally identical conjuncts.
    """

    __slots__ = ("_tallies",)

    enabled = True

    def __init__(self) -> None:
        self._tallies: dict[int, _Tally] = {}

    def observe(self, predicate, passed: bool, charged: float) -> None:
        tally = self._tallies.get(predicate.pred_id)
        if tally is None:
            tally = _Tally(predicate)
            self._tallies[predicate.pred_id] = tally
        tally.evaluated += 1
        if passed:
            tally.passed += 1
        if charged > 0:
            tally.charged_calls += 1
            tally.charged_cost += charged

    def observe_batch(
        self,
        predicate,
        evaluated: int,
        passed: int,
        charged_calls: int,
        charged_cost: float,
    ) -> None:
        """Fold one batch of verdicts in at once — the vector executor's
        bulk equivalent of ``evaluated`` :meth:`observe` calls, with
        identical tally totals."""
        tally = self._tallies.get(predicate.pred_id)
        if tally is None:
            tally = _Tally(predicate)
            self._tallies[predicate.pred_id] = tally
        tally.evaluated += evaluated
        tally.passed += passed
        tally.charged_calls += charged_calls
        tally.charged_cost += charged_cost

    def observations(self) -> list[PredicateObservation]:
        """Fold tallies into observations, sorted by fingerprint."""
        merged: dict[str, PredicateObservation] = {}
        for _, tally in sorted(self._tallies.items()):
            predicate = tally.predicate
            fingerprint = predicate_fingerprint(predicate)
            entry = merged.get(fingerprint)
            if entry is None:
                entry = PredicateObservation(
                    fingerprint=fingerprint,
                    predicate=str(predicate),
                    tables=tuple(sorted(predicate.tables)),
                    functions=tuple(
                        sorted(set(predicate.expr.function_names()))
                    ),
                    declared_selectivity=predicate.selectivity,
                    declared_cost_per_call=predicate.cost_per_tuple,
                )
                merged[fingerprint] = entry
            entry.evaluated += tally.evaluated
            entry.passed += tally.passed
            entry.charged_calls += tally.charged_calls
            entry.charged_cost += tally.charged_cost
        return [merged[key] for key in sorted(merged)]


def stats_path(directory, workload: str) -> Path:
    """``<directory>/STATS_<workload>.json``."""
    return Path(directory) / f"{STATS_PREFIX}{workload}.json"


class StatsFeedbackStore:
    """Epoch-versioned observed statistics for one workload.

    Epochs number from 1 and only ever append — the store is a history,
    so ``repro drift`` can compare any two epochs and ROADMAP item 3's
    adaptive replanner gets the invalidation timeline it needs.
    """

    def __init__(self, workload: str, epochs: list[dict] | None = None):
        self.workload = workload
        self.epochs: list[dict] = list(epochs or [])

    def epoch_numbers(self) -> list[int]:
        """Numbers of the *end-of-run* epochs (sequence 0).

        Mid-query snapshots recorded by an adaptive re-plan share their
        run's number under ``sequence >= 1`` and are deliberately
        excluded: the drift CLI and ``apply_feedback`` compare complete
        runs, and a half-query's observations must never masquerade as
        one. Stores written before sequences existed have no
        ``sequence`` key and read as 0.
        """
        return [
            int(epoch.get("epoch", 0))
            for epoch in self.epochs
            if int(epoch.get("sequence", 0)) == 0
        ]

    def epoch(self, number: int, sequence: int = 0) -> dict:
        for epoch in self.epochs:
            if (
                int(epoch.get("epoch", 0)) == number
                and int(epoch.get("sequence", 0)) == sequence
            ):
                return epoch
        suffix = f" (sequence {sequence})" if sequence else ""
        raise ArtifactError(
            f"no epoch {number}{suffix} recorded for workload "
            f"{self.workload!r}; recorded epochs: "
            f"{self.epoch_numbers() or 'none'}"
        )

    def mid_query_epochs(self, number: int) -> list[dict]:
        """The mid-query re-plan snapshots of one run, sequence order."""
        return sorted(
            (
                epoch
                for epoch in self.epochs
                if int(epoch.get("epoch", 0)) == number
                and int(epoch.get("sequence", 0)) > 0
            ),
            key=lambda epoch: int(epoch.get("sequence", 0)),
        )

    def latest_epoch(self) -> dict:
        for epoch in reversed(self.epochs):
            if int(epoch.get("sequence", 0)) == 0:
                return epoch
        raise ArtifactError(
            f"no epochs recorded at end-of-run for workload "
            f"{self.workload!r} (mid-query re-plan snapshots do not "
            f"count); run `repro stats {self.workload}` to record one"
        )

    def observations_for(
        self, number: int | None = None
    ) -> list[PredicateObservation]:
        """The epoch's observations (``None`` = latest), fingerprint order.

        This is the duck-typed surface ``Catalog.apply_feedback``
        consumes — the catalog package stays free of obs imports.
        """
        epoch = (
            self.latest_epoch() if number is None else self.epoch(number)
        )
        observations = epoch.get("observations", {})
        return [
            PredicateObservation.from_dict(observations[key])
            for key in sorted(observations)
        ]

    def record_epoch(
        self,
        observations,
        *,
        strategy: str,
        scale: int,
        seed: int,
        caching: bool = False,
        operators=None,
        sequence: int = 0,
    ) -> int:
        """Append one epoch; returns its number (1-based, monotonic).

        ``sequence`` versions the epoch key *within* a run: 0 (the
        default) is the end-of-run epoch, ``n >= 1`` the ``n``-th
        mid-query re-plan snapshot. Mid-query epochs pre-allocate the
        forthcoming run's number — ``epoch_numbers()`` only counts
        sequence-0 epochs, so a run that records snapshots at sequences
        1..k and then its end-of-run epoch groups all k+1 documents
        under one number instead of colliding with (or shadowing) it.
        """
        number = max(self.epoch_numbers(), default=0) + 1
        epoch = {
            "epoch": number,
            "sequence": int(sequence),
            "strategy": strategy,
            "scale": scale,
            "seed": seed,
            "caching": caching,
            "observations": {
                obs.fingerprint: obs.as_dict() for obs in observations
            },
            "selectivity_qerror_histogram": qerror_histogram(
                [
                    obs.selectivity_qerror
                    for obs in observations
                    if obs.evaluated > 0
                ]
            ),
        }
        if operators is not None:
            epoch["operators"] = [
                {
                    key: entry[key]
                    for key in _OPERATOR_FIELDS
                    if key in entry
                }
                for entry in operators
            ]
        self.epochs.append(epoch)
        return number

    def as_dict(self) -> dict:
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "kind": "stats-feedback",
            "workload": self.workload,
            "epochs": list(self.epochs),
        }

    def save(self, path) -> Path:
        """Write the store; ``path`` may be a directory or a ``*.json``."""
        target = Path(path)
        if target.suffix != ".json":
            target = stats_path(target, self.workload)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            json.dump(
                self.as_dict(),
                handle,
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
            handle.write("\n")
        return target

    @classmethod
    def load(cls, path) -> "StatsFeedbackStore":
        """Read a store back, validating the schema version."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as error:
            raise ArtifactError(
                f"cannot read stats store {path}: {error}"
            ) from None
        except json.JSONDecodeError as error:
            raise ArtifactError(
                f"stats store {path} is not valid JSON: {error}"
            ) from None
        if not isinstance(document, dict):
            raise ArtifactError(f"stats store {path} is not a JSON object")
        version = document.get("schema_version")
        if version != STATS_SCHEMA_VERSION:
            raise ArtifactError(
                f"stats store {path} has schema_version {version!r}; "
                f"this build reads version {STATS_SCHEMA_VERSION}"
            )
        epochs = document.get("epochs")
        if not isinstance(epochs, list):
            raise ArtifactError(
                f"stats store {path} has no 'epochs' list"
            )
        return cls(
            workload=str(document.get("workload", "")), epochs=epochs
        )

    @classmethod
    def load_or_create(cls, path, workload: str) -> "StatsFeedbackStore":
        """Load the store at ``path`` if present, else a fresh one."""
        target = Path(path)
        if target.suffix != ".json":
            target = stats_path(target, workload)
        if target.exists():
            return cls.load(target)
        return cls(workload)


# -- CLI renderers ------------------------------------------------------------


def _stats_table() -> Table:
    """The shared stats/drift column layout (both views align)."""
    return Table(
        [
            Column("predicate", 30, align="left"),
            Column("", 9),  # set per view below
            Column("", 9),
            Column("q-err", 7),
            Column("", 10),
            Column("", 10),
            Column("q-err", 7),
            Column("drift", gap=2),
        ]
    )


def _build_stats_table(titles: tuple[str, str, str, str]) -> Table:
    table = _stats_table()
    sel_a, sel_b, cost_a, cost_b = titles
    table.columns[1] = Column(sel_a, 9)
    table.columns[2] = Column(sel_b, 9)
    table.columns[4] = Column(cost_a, 10)
    table.columns[5] = Column(cost_b, 10)
    return table


def format_stats_epoch(
    workload: str,
    epoch: dict,
    threshold: float = DRIFT_QERROR_THRESHOLD,
) -> str:
    """The ``repro stats`` table: declared vs observed, per expensive
    predicate, with q-errors and drift flags."""
    observations = [
        PredicateObservation.from_dict(entry)
        for _, entry in sorted(epoch.get("observations", {}).items())
    ]
    findings = detect_drift(observations, threshold=threshold)
    flagged: dict[str, list[str]] = {}
    for finding in findings:
        flagged.setdefault(finding.subject, []).append(finding.field)
    sequence = int(epoch.get("sequence", 0))
    tag = f" replan {sequence}" if sequence else ""
    lines = [
        f"== stats: {workload} epoch {epoch.get('epoch')}{tag} "
        f"(strategy {epoch.get('strategy')}, "
        f"scale {epoch.get('scale')}, seed {epoch.get('seed')}"
        + (", caching" if epoch.get("caching") else "")
        + ")"
    ]
    table = _build_stats_table(
        ("decl.sel", "obs.sel", "decl.cost", "obs.cost")
    )
    expensive = [obs for obs in observations if obs.is_expensive]
    for obs in expensive:
        fields = flagged.get(obs.predicate)
        drift = f"DRIFT({','.join(sorted(fields))})" if fields else "-"
        table.row(
            obs.predicate[:30],
            fmt_cell(obs.declared_selectivity),
            fmt_cell(obs.observed_selectivity),
            fmt_cell(obs.selectivity_qerror, 2),
            fmt_cell(obs.declared_cost_per_call, 1),
            fmt_cell(obs.observed_cost_per_call, 1),
            fmt_cell(obs.cost_qerror, 2),
            drift,
        )
    if not expensive:
        table.raw("(no expensive predicates observed)")
    cheap = len(observations) - len(expensive)
    if cheap:
        table.raw(
            f"({cheap} cheap predicate(s) tracked but not shown — "
            "zero-cost conjuncts have no per-call cost to drift)"
        )
    lines.append(table.render())
    lines.append(
        f"drift: {len(findings)} flag(s) at q-error threshold "
        f"{threshold:g}"
    )
    for finding in findings:
        lines.append(f"  * {finding.describe()}")
    return "\n".join(lines)


def format_drift_report(
    workload: str,
    epoch_a: dict,
    epoch_b: dict,
    threshold: float = DRIFT_QERROR_THRESHOLD,
) -> str:
    """The ``repro drift`` view: observed stats, epoch A vs epoch B.

    Epoch-over-epoch comparison of *observed* values — "the data moved"
    — as opposed to ``repro stats``, which compares observed against
    *declared* ("the catalog lies"). A predicate drifts when the q-error
    between its two observed selectivities (or per-call costs) exceeds
    ``threshold``, or when it was observed in only one epoch.
    """
    a_number = epoch_a.get("epoch")
    b_number = epoch_b.get("epoch")
    obs_a = {
        key: PredicateObservation.from_dict(entry)
        for key, entry in epoch_a.get("observations", {}).items()
    }
    obs_b = {
        key: PredicateObservation.from_dict(entry)
        for key, entry in epoch_b.get("observations", {}).items()
    }
    lines = [
        f"== drift: {workload} epoch {a_number} "
        f"(strategy {epoch_a.get('strategy')}) -> epoch {b_number} "
        f"(strategy {epoch_b.get('strategy')})"
    ]
    table = _build_stats_table(("sel.A", "sel.B", "cost.A", "cost.B"))
    drifted = 0
    for key in sorted(set(obs_a) | set(obs_b)):
        a, b = obs_a.get(key), obs_b.get(key)
        if a is None or b is None:
            present = a or b
            assert present is not None
            side = "B" if a is None else "A"
            drifted += 1
            table.row(
                present.predicate[:30],
                fmt_cell(
                    a.observed_selectivity if a else float("nan")
                ),
                fmt_cell(
                    b.observed_selectivity if b else float("nan")
                ),
                "—",
                "—",
                "—",
                "—",
                f"DRIFT(only in epoch {side})",
            )
            continue
        sel_q = qerror(a.observed_selectivity, b.observed_selectivity)
        cost_q = qerror(
            a.observed_cost_per_call, b.observed_cost_per_call
        )
        fields = []
        if sel_q > threshold:
            fields.append("selectivity")
        if cost_q > threshold:
            fields.append("cost_per_call")
        if fields:
            drifted += 1
        drift = f"DRIFT({','.join(fields)})" if fields else "-"
        table.row(
            b.predicate[:30],
            fmt_cell(a.observed_selectivity),
            fmt_cell(b.observed_selectivity),
            fmt_cell(sel_q, 2),
            fmt_cell(a.observed_cost_per_call, 1),
            fmt_cell(b.observed_cost_per_call, 1),
            fmt_cell(cost_q, 2),
            drift,
        )
    lines.append(table.render())
    lines.append(
        f"drift: {drifted} predicate(s) moved beyond q-error "
        f"{threshold:g} between epochs {a_number} and {b_number}"
    )
    return "\n".join(lines)
