"""Observability: tracing, metrics, profiling, and persistent run artifacts.

Four small pieces:

* :mod:`repro.obs.tracer` — span-based decision traces with JSONL export
  and a zero-overhead :class:`NullTracer` default;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of named gauges,
  plus :func:`record_run` which mirrors one optimize/execute round under
  uniform ``plan.*`` / ``exec.*`` names;
* :mod:`repro.obs.profile` — a :class:`PhaseProfiler` accumulating
  wall-clock per optimizer/executor phase (enumeration levels, fixpoint
  rounds, DP steps, operators) with a ``top_hotspots`` report and a
  zero-overhead :class:`NullProfiler` default;
* :mod:`repro.obs.artifacts` — schema-versioned ``BENCH_<workload>.json``
  run artifacts (environment, per-strategy measurements, plan
  fingerprints, hotspots) plus :func:`diff_artifacts`, the plan-regression
  gate behind ``python -m repro bench-diff``;
* :mod:`repro.obs.provenance` — a typed :class:`ProvenanceLedger` of every
  placement decision (rank orderings, hoists, rank comparisons, migration
  moves, prunes, virtual joins) with a zero-overhead :class:`NullLedger`
  default, plus the ``repro why`` report and counterfactual re-costing;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` export of tracer spans
  and profiler phases, loadable in Perfetto;
* :mod:`repro.obs.quality` — the shared :func:`qerror` metric, log-scale
  q-error histograms, and the observed-vs-declared drift detector that
  emits ``stats.drift`` ledger/trace events;
* :mod:`repro.obs.feedback` — :class:`FeedbackCollector` execution sinks
  and the epoch-versioned :class:`StatsFeedbackStore`
  (``STATS_<workload>.json``) behind ``repro stats`` / ``repro drift``
  and the opt-in ``Catalog.apply_feedback`` injection path;
* :mod:`repro.obs.tables` — the shared fixed-width ASCII table renderer
  behind the bench, stats/drift, chaos, and ``repro top`` reports;
* :mod:`repro.obs.histograms` — :class:`StreamingHistogram`, the
  log-bucketed single-pass histogram with nearest-rank quantiles shared
  by telemetry and the metrics export;
* :mod:`repro.obs.runtime_telemetry` — :class:`RuntimeMonitor`, the live
  per-operator progress estimator, per-predicate cost telemetry, and
  :class:`QueryResourceReport` roll-up behind ``repro top``;
* :mod:`repro.obs.export` — the Prometheus-text / JSON metrics snapshot
  (:func:`build_export` / :func:`export_metrics`) behind
  ``--metrics-export``;
* :mod:`repro.obs.flightrec` — :class:`FlightRecorder`, the fixed-capacity
  execution flight recorder whose ``FLIGHT_<workload>.json`` crash dumps
  back ``repro postmortem``.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "artifacts": (
        "ARTIFACT_PREFIX",
        "ArtifactRecorder",
        "Finding",
        "SCHEMA_VERSION",
        "artifact_path",
        "build_run_artifact",
        "canonical_plan_form",
        "collect_artifacts",
        "diff_artifacts",
        "has_regressions",
        "load_run_artifact",
        "plan_fingerprint",
        "record_run_artifact",
    ),
    "chrome": ("build_chrome_trace", "export_chrome_trace"),
    "export": ("PrometheusExport", "build_export", "export_metrics"),
    "feedback": (
        "FeedbackCollector",
        "PredicateObservation",
        "STATS_PREFIX",
        "STATS_SCHEMA_VERSION",
        "StatsFeedbackStore",
        "format_drift_report",
        "format_stats_epoch",
        "predicate_fingerprint",
        "stats_path",
    ),
    "flightrec": (
        "DEFAULT_CAPACITY",
        "FLIGHT_PREFIX",
        "FLIGHT_SCHEMA_VERSION",
        "FlightRecorder",
        "build_flight_dump",
        "flight_path",
        "format_postmortem",
        "load_flight_dump",
        "write_flight_dump",
    ),
    "histograms": ("DEFAULT_QUANTILES", "StreamingHistogram"),
    "metrics": ("MetricsRegistry", "record_run"),
    "provenance": (
        "Counterfactual",
        "CounterfactualReport",
        "EVENT_KINDS",
        "LedgerEvent",
        "NULL_LEDGER",
        "NullLedger",
        "ProvenanceLedger",
        "counterfactual_report",
        "skeleton_signature",
        "why_report",
    ),
    "profile": (
        "NULL_PHASE",
        "NULL_PROFILER",
        "NullPhase",
        "NullProfiler",
        "PhaseProfiler",
        "PhaseStat",
    ),
    "quality": (
        "DRIFT_QERROR_THRESHOLD",
        "DriftFinding",
        "catalog_drift",
        "detect_drift",
        "fmt_stat",
        "qerror",
        "qerror_histogram",
        "quality_summary",
        "signed_relative_error",
    ),
    "runtime_telemetry": (
        "OperatorProgress",
        "PredicateTelemetry",
        "QueryResourceReport",
        "RuntimeMonitor",
        "format_top",
    ),
    "tables": ("Column", "Table", "auto_table", "fmt_cell"),
    "tracer": (
        "NULL_SPAN",
        "NULL_TRACER",
        "NullSpan",
        "NullTracer",
        "Span",
        "Tracer",
        "canonical_value",
    ),
})
