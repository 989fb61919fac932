"""Observability for the cost estimation module.

The paper's architecture is a supervised feedback loop (Fig. 3):
estimates go out, actuals come back, α recalibrates, the offline tuner
folds logs into the models.  This package is the runtime instrumentation
around that loop:

* :mod:`repro.obs.config` — the one :class:`~repro.obs.config.ObsPlane`
  every emission site reports to (:func:`~repro.obs.config.plane`,
  swapped whole by :func:`~repro.obs.config.install`) and the one
  parse of the nine ``REPRO_OBS_*`` variables
  (:class:`~repro.obs.config.ObsConfig`);
* :mod:`repro.obs.metrics` — a thread-safe, zero-dependency registry of
  named counters, gauges, and fixed-bucket histograms;
* :mod:`repro.obs.tracing` — context-manager spans over the estimate
  path (wall-clock and simulated seconds kept distinct), with a no-op
  fast path when disabled and JSON export;
* :mod:`repro.obs.ledger` — the accuracy ledger: rolling q-error /
  RMSE% / slope per (system, operator), fed by ``record_actual``;
* :mod:`repro.obs.journal` — the persistent event journal: an
  append-only, schema-versioned, size-rotated JSONL stream of
  feedback-loop events (estimate/actual/remedy/tuning/drift) that
  only writes and reads;
* :mod:`repro.obs.profiler` — per-query cost-breakdown reports (text
  and self-contained HTML) assembled from recorded span trees
  (``repro trace``);
* :mod:`repro.obs.regress` — the performance-regression gate's
  baseline schema and comparison logic (driven by
  ``benchmarks/regress.py``);
* :mod:`repro.obs.exporters` — JSON-file and Prometheus-text exports;
* :mod:`repro.obs.context` — the query-scoped trace context: a
  ``contextvars`` query id (and tenant) propagated end-to-end,
  head-based trace sampling (env ``REPRO_OBS_SAMPLE``), the hand-off
  of each completed query to the plane's tracer, flight recorder and
  tenant ledger, and the per-system exemplar store that lets alerts
  name concrete queries;
* :mod:`repro.obs.tail` — tail-based trace sampling: the keep/drop
  decision moves to query *completion*, keeping latency/q-error/error
  breaches (env ``REPRO_OBS_TAIL_LATENCY`` / ``REPRO_OBS_TAIL_QERROR``)
  with the head-sample rate as a floor;
* :mod:`repro.obs.flight` — the black-box flight recorder: rings of
  recent query records and journal events, frozen into deterministic,
  replayable incident bundles (JSONL + HTML) when an alert fires or a
  drift alarm trips (dump dir via env ``REPRO_OBS_FLIGHT_DIR``);
* :mod:`repro.obs.tenants` — per-tenant cost attribution: traffic,
  estimated seconds, and q-error accumulated per workload, ranked on
  the dashboard and served by ``repro tenants``;
* :mod:`repro.obs.alerts` — the declarative SLO rule engine: evaluates
  thresholds over metrics/ledger/drift/cache observations, journals
  schema-versioned ``alert`` events on firing/resolved transitions;
* :mod:`repro.obs.health` — observation snapshots and the
  per-remote-system health grade, read from four alert rules' states;
* :mod:`repro.obs.dashboard` — the self-contained HTML health
  dashboard with the ledger's q-error sparklines;
* :mod:`repro.obs.timeseries` — the live telemetry plane: a windowed
  aggregator (quantile histograms, counter deltas, gauge last-values)
  fed by a registry observer hook, over the
  :class:`~repro.obs.timeseries.WindowRing` both windowed planes share
  (width ``REPRO_OBS_WINDOW``), journaled as ``window`` events;
* :mod:`repro.obs.sampling` — the continuous stack-sampling profiler:
  a daemon thread walks ``sys._current_frames()`` at a configurable hz
  (env ``REPRO_OBS_PROF``), tags threads by role, and folds stacks
  into bounded deterministic :class:`~repro.obs.sampling.ProfileWindow`
  aggregates on the same window ring, journaled as ``profile`` events
  rebuildable offline;
* :mod:`repro.obs.flamegraph` — flamegraph HTML rendering, flat
  hot-frame tables, and differential profiles over folded stacks
  (``repro flamegraph`` / ``--diff A B``);
* :mod:`repro.obs.rebuild` — the one journal fold: a deterministic
  :func:`~repro.obs.rebuild.replay` that rebuilds every offline view
  (ledger, counters, windows, incidents, observation, ...) in a fresh
  process, one reducer per event type;
* :mod:`repro.obs.server` — the stdlib HTTP observability server
  (``/metrics``, ``/metrics.json``, ``/health``, ``/alerts``,
  ``/timeseries``, ``/profile``, ``/dashboard``) mounted by
  ``repro serve`` or embedded via
  :class:`~repro.obs.server.ObsServer`;
* :mod:`repro.obs.logconf` — stdlib-logging configuration for the
  ``repro`` logger hierarchy.

Instrumented subsystems must import *this* package, never the other way
around: :mod:`repro.obs` depends only on the standard library.

Importing the package loads only what set-up and a request run: the
plane, registry, tail sampler, tracer, query context, ledgers, journal
and the time-series windows the federation rolls on every query.
Every other name loads its module on first use (:mod:`repro._lazy`),
so a serving process never compiles the alert engine, dashboard,
flamegraphs, profilers, exporters, journal fold or flight recorder it
does not call.
"""

from repro._lazy import lazy_exports

from repro.obs import (  # noqa: F401
    config,
    metrics,
    tail,
    context,
    tracing,
    ledger,
    journal,
    tenants,
    timeseries,
)

__all__ = lazy_exports(
    globals(),
    {
        ".config": (
            "ObsConfig",
            "ObsPlane",
            "install",
            "plane",
            "JOURNAL_ENV_VAR",
            "TRACE_ENV_VAR",
            "SAMPLE_ENV_VAR",
            "TAIL_LATENCY_ENV_VAR",
            "TAIL_QERROR_ENV_VAR",
            "FLIGHT_DIR_ENV_VAR",
            "WINDOW_WIDTH_ENV_VAR",
            "WINDOW_RETENTION_ENV_VAR",
            "PROF_ENV_VAR",
            "DEFAULT_HZ",
        ),
        ".metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsObserver",
            "MetricsRegistry",
            "DEFAULT_SECONDS_BUCKETS",
            "WALL_SECONDS_BUCKETS",
            "Q_ERROR_BUCKETS",
            "counter",
            "gauge",
            "histogram",
        ),
        ".tail": (
            "KEEP_REASONS",
            "QueryOutcome",
            "TailDecision",
            "TailSampler",
        ),
        ".tracing": (
            "NOOP_SPAN",
            "Span",
            "Tracer",
            "render_span_tree",
            "trigger_incident",
        ),
        ".ledger": (
            "AccuracyLedger",
            "AccuracyStats",
            "LedgerEntry",
        ),
        ".journal": (
            "EVENT_TYPES",
            "NOOP_JOURNAL",
            "EventJournal",
            "JournalEvent",
            "NoopJournal",
            "read_journal",
        ),
        ".flight": (
            "FLIGHT_SCHEMA_VERSION",
            "FlightRecorder",
            "IncidentBundle",
            "load_bundle",
            "render_bundle_html",
        ),
        ".tenants": (
            "TenantLedger",
            "rank_tenants",
        ),
        ".profiler": ("QueryProfile", "build_profile", "render_html", "render_text"),
        ".exporters": (
            "build_snapshot",
            "derive_gauges",
            "format_snapshot_text",
            "load_json_snapshot",
            "to_prometheus_text",
            "write_json_snapshot",
        ),
        ".context": (
            "ExemplarStore",
            "HeadSampler",
            "QueryContext",
            "QueryStats",
            "adopt_context",
            "build_query_context",
            "current_context",
            "current_query_id",
            "current_sampled",
            "current_tenant",
            "ensure_query_context",
            "note_estimated_seconds",
            "note_query_q_error",
            "query_context",
            "record_exemplar",
        ),
        ".alerts": (
            "ALERT_SCHEMA_VERSION",
            "Alert",
            "AlertEngine",
            "AlertReport",
            "AlertRule",
            "default_rules",
            "load_rules",
            "rules_from_json",
        ),
        ".health": (
            "OBSERVATION_VERSION",
            "SystemHealth",
            "build_observation",
            "evaluate_health",
            "observation_from_snapshot",
            "worst_grade",
        ),
        ".dashboard": ("render_dashboard",),
        ".timeseries": (
            "WINDOW_SCHEMA_VERSION",
            "HistogramWindow",
            "ManualClock",
            "TimeSeriesAggregator",
            "WindowSummary",
            "disable_timeseries",
            "enable_timeseries",
            "log_buckets",
            "maybe_roll_timeseries",
        ),
        ".sampling": (
            "PROFILE_SCHEMA_VERSION",
            "ProfileWindow",
            "StackSampler",
            "fold_stack",
            "maybe_start_sampling",
            "merge_stacks",
            "role_for_thread",
            "start_sampling",
            "stop_sampling",
        ),
        ".flamegraph": (
            "FlameNode",
            "FrameDelta",
            "build_flame",
            "diff_frames",
            "frame_stats",
            "render_collapsed",
            "render_diff_html",
            "render_diff_text",
            "render_flamegraph_fragment",
            "render_flamegraph_html",
            "render_top_text",
        ),
        ".rebuild": ("ReplayResult", "replay"),
        ".server": ("HttpRequest", "HttpResponse", "ObsServer", "json_response"),
        ".logconf": {"configure_logging": "configure"},
    },
)
