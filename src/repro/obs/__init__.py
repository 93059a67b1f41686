"""Observability substrate: in-process metrics and span/event tracing.

``repro.obs`` keeps the runtime's numbers in one queryable place instead
of scattered one-off dataclass counters:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms with label support,
  rendered as Prometheus text (:func:`render_snapshot`) or persisted as
  a JSON snapshot (``metrics.json`` next to every campaign store);
* :mod:`repro.obs.trace` — nested ``span("phase", k=...)`` context
  managers writing an append-only JSONL sidecar (``trace.jsonl``), with
  a process-global no-op default so instrumented hot paths cost ~nothing
  when tracing is off.

The hard invariant, asserted by the differential harnesses: nothing in
this package may perturb results — campaign digests are byte-identical
with observability on and off.  See ``docs/observability.md`` for the
metric catalog and the trace-event schema.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_FILENAME,
    REGISTRY,
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    counter,
    format_value,
    gauge,
    get_registry,
    histogram,
    load_snapshot,
    render_snapshot,
)
from repro.obs.trace import (
    NULL_TRACER,
    RECORD_TYPES,
    TRACE_FILENAME,
    TRACE_VERSION,
    JsonlTracer,
    NullTracer,
    event,
    get_tracer,
    read_trace,
    set_tracer,
    span,
    tracing,
    tracing_enabled,
    validate_trace,
)

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "REGISTRY",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "render_snapshot",
    "load_snapshot",
    "format_value",
    "DEFAULT_BUCKETS",
    "SNAPSHOT_VERSION",
    "METRICS_FILENAME",
    "NullTracer",
    "JsonlTracer",
    "NULL_TRACER",
    "TRACE_FILENAME",
    "TRACE_VERSION",
    "RECORD_TYPES",
    "span",
    "event",
    "tracing",
    "tracing_enabled",
    "get_tracer",
    "set_tracer",
    "read_trace",
    "validate_trace",
]
