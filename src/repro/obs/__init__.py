"""Observability: tracing, metrics and EXPLAIN ANALYZE.

The measurement substrate for the reproduction's efficiency claims:

* :class:`~repro.obs.trace.Tracer` — hierarchical, ring-buffered spans
  over every layer (STAR expansion, Glue, property functions, plan-table
  probes, executor operators, SHIP/chaos), exportable as JSON lines and
  Chrome ``trace_event`` format;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms snapshotable as one flat dict, with
  :func:`~repro.obs.metrics.stats_snapshot` as the single serialization
  path for every stats dataclass in the repo;
* :func:`~repro.obs.analyze.explain_analyze` — execute the chosen QEP
  and join per-operator actual rows against estimated CARD, computing
  per-operator and plan-level Q-error.
"""

from __future__ import annotations

from repro.obs.analyze import (
    AnalyzeReport,
    OperatorMeasure,
    explain_analyze,
    q_error,
)
from repro.obs.flight import (
    FlightRecord,
    FlightRecorder,
    validate_flight_dump,
)
from repro.obs.metrics import (
    BUCKET_BASE,
    Histogram,
    MetricsRegistry,
    stats_snapshot,
)
from repro.obs.openmetrics import (
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.slo import (
    SLObjective,
    SLOMonitor,
)
from repro.obs.telemetry import (
    SpanNode,
    TelemetryConfig,
    TraceContext,
    TraceSampler,
    request_events,
    span_tree,
    validate_request_tree,
)
from repro.obs.trace import (
    CATEGORIES,
    EVENT_SCHEMA,
    PHASES,
    TraceEvent,
    Tracer,
    validate_events,
    validate_jsonl,
)


__all__ = [
    "AnalyzeReport",
    "BUCKET_BASE",
    "CATEGORIES",
    "EVENT_SCHEMA",
    "FlightRecord",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "OperatorMeasure",
    "PHASES",
    "SLObjective",
    "SLOMonitor",
    "SpanNode",
    "TelemetryConfig",
    "TraceContext",
    "TraceEvent",
    "TraceSampler",
    "Tracer",
    "explain_analyze",
    "q_error",
    "render_openmetrics",
    "request_events",
    "span_tree",
    "stats_snapshot",
    "validate_events",
    "validate_flight_dump",
    "validate_jsonl",
    "validate_openmetrics",
    "validate_request_tree",
]
