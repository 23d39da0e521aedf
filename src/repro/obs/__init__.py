"""Unified observability: metrics, spans, wide events, exporters.

Everything the rest of the system needs is importable from here::

    from repro.obs import OBS, timed_phase, render_span_tree
    from repro.obs import to_json, to_prometheus, to_chrome_trace

``OBS`` is the process-wide runtime (disabled by default — enable it
with ``OBS.enable()`` or the CLI's ``--trace`` / ``--metrics-out``
flags; the wide-event log switches on separately via ``--events-out``
or ``OBS.events.enabled``).  See docs/OBSERVABILITY.md for the
metric-name catalogue, the span taxonomy, and the wide-event schema.
"""

from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.events import EventLog
from repro.obs.export import to_json, to_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricSpec,
    MetricsRegistry,
)
from repro.obs.runtime import OBS, Observability, timed_phase
from repro.obs.summary import StreamingQuantile
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    next_trace_id,
    render_span_tree,
    span_summary,
)

__all__ = [
    "OBS",
    "Observability",
    "timed_phase",
    "MetricsRegistry",
    "MetricFamily",
    "MetricSpec",
    "Counter",
    "Gauge",
    "Histogram",
    "StreamingQuantile",
    "EventLog",
    "FlightRecorder",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "next_trace_id",
    "render_span_tree",
    "span_summary",
    "to_json",
    "to_prometheus",
    "to_chrome_trace",
    "write_chrome_trace",
]
