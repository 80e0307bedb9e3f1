"""Observability subsystem: span tracing, metrics, exporters, profiling.

The window into the execution engine the Spark UI gave the paper's
authors: who ran what, when, where, and what it cost.

* :mod:`repro.obs.spans` — :class:`Span`/:class:`Tracer`, the nested
  fit → phase → task → attempt timeline with fault-event annotations;
  :data:`NULL_TRACER` keeps untraced runs at no-op cost.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms: the serve plane's live metrics
  and the tracer's optional attempt histograms.  A fit's run records
  (per-task rows, phase buckets) stay in
  :class:`~repro.engine.counters.Counters`; the merge-round ledger is
  an annotation on the Phase III-1 span.
* :mod:`repro.obs.exporters` — JSONL span logs (round-trippable) and
  Chrome ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.report` — the human-readable run report: phase
  breakdown, worker utilization, critical path, merge-round ledger,
  stragglers, fault ledger.
* :mod:`repro.obs.profiling` — opt-in per-task ``cProfile`` capture
  merged across workers into one ``pstats`` view.

See docs/OBSERVABILITY.md for the span model and exporter formats.
"""

from repro.obs.exporters import (
    TRACE_FORMATS,
    read_spans_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
    write_trace,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    SERVE_BATCH_BUCKETS,
    SERVE_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import dump_merged_profile, merge_profile_blobs, profile_call
from repro.obs.report import (
    merge_ledger_rows,
    render_run_report,
    render_serving_report,
    serving_ledger_rows,
)
from repro.obs.spans import (
    EVENT_RESPAWN,
    EVENT_RETRY,
    EVENT_SPECULATION,
    EVENT_TIMEOUT,
    NULL_TRACER,
    SPAN_KINDS,
    NullTracer,
    Span,
    TraceValidationError,
    Tracer,
    validate_trace,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_KINDS",
    "EVENT_RETRY",
    "EVENT_TIMEOUT",
    "EVENT_RESPAWN",
    "EVENT_SPECULATION",
    "validate_trace",
    "TraceValidationError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "SERVE_BATCH_BUCKETS",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_trace",
    "TRACE_FORMATS",
    "render_run_report",
    "merge_ledger_rows",
    "render_serving_report",
    "serving_ledger_rows",
    "profile_call",
    "merge_profile_blobs",
    "dump_merged_profile",
]
