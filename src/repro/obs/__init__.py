"""Observability: metrics registry, spans, packet tracing, exporters.

The measurement platform measuring itself. See DESIGN.md §"Observability"
for how the dataplane, rate limiters, prober, and campaign layers
report here, and ``python -m repro stats`` for the operator view.

Nothing here imports a higher layer: ``export`` and ``status`` write
through the leaf :mod:`repro.integrity`, so any ``repro`` module
(``repro.topology.routing`` included) can be the first one imported.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    get_registry,
)
from repro.obs.spans import (
    DEFAULT_SPAN_CAPACITY,
    MAX_SPAN_EVENTS,
    Span,
    SpanTracer,
    TRACER,
    get_tracer,
)
from repro.obs.journal import DEFAULT_JOURNAL_CAPACITY, FlightRecorder
from repro.obs.trace import DEFAULT_TRACE_CAPACITY, PacketTracer, TraceEvent
from repro.obs.export import (
    load_trace_jsonl,
    render_span_tree,
    spans_to_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    trace_events_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_spans_jsonl,
    write_trace_jsonl,
)
from repro.obs.status import (
    CampaignStatusWriter,
    STATUS_VERSION,
    load_status,
    render_status,
    sum_counter,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "Span",
    "SpanTracer",
    "TRACER",
    "get_tracer",
    "DEFAULT_SPAN_CAPACITY",
    "MAX_SPAN_EVENTS",
    "FlightRecorder",
    "DEFAULT_JOURNAL_CAPACITY",
    "PacketTracer",
    "TraceEvent",
    "DEFAULT_TRACE_CAPACITY",
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "trace_events_to_jsonl",
    "write_trace_jsonl",
    "load_trace_jsonl",
    "CampaignStatusWriter",
    "STATUS_VERSION",
    "load_status",
    "render_status",
    "sum_counter",
]
