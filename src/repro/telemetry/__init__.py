"""Telemetry: structured tracing, metrics, and decision forensics.

The observability subsystem for the Spectra reproduction.  Three parts:

* :mod:`~repro.telemetry.tracer` — nested spans keyed to simulated
  time, streamed to a sink as they end, with a zero-overhead null
  tracer;
* :mod:`~repro.telemetry.metrics` — a registry of counters, gauges,
  and fixed-bucket quantile histograms any component can write to;
* :mod:`~repro.telemetry.forensics` — offline replay of an exported
  trace into time/energy breakdowns and prediction-error tables
  (the ``repro trace`` CLI).

Every counter, histogram and span name is a constant in
:mod:`~repro.telemetry.names`, imported by each writer and reader.

Entry points: a plain :class:`Telemetry` is metrics-only;
:func:`jsonl_trace` yields one that also streams every finished span to
a JSONL file.  Pass either to the world builder.  Components that
receive no telemetry run against :data:`NULL_TELEMETRY` and behave
bit-identically to code that was never instrumented.
"""

from .._lazy import lazy_exports
from .hub import NULL_TELEMETRY, Telemetry, ensure_telemetry, jsonl_trace
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, SpanTracer

# not on a run's path: trace replay and tables for ``repro trace``
__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    "forensics": ("OperationForensics", "collect_operations", "load_jsonl",
                  "render_trace_report", "split_records"),
    "formatting": ("fmt_joules", "fmt_rate", "fmt_seconds", "render_table"),
})

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Span",
    "SpanTracer",
    "Telemetry",
    "ensure_telemetry",
    "jsonl_trace",
    *_lazy_names,
]
