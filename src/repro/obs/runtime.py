"""The process-wide observability runtime and its on/off switch.

Instrumented code throughout the repo talks to one module-level
:data:`OBS` object::

    from repro.obs.runtime import OBS

    if OBS.enabled:
        OBS.registry.counter("repro_db_probes_total").inc()
    with OBS.span("engine.ranking", candidates=n):
        ...

Disabled (the default) is the zero-cost mode the efficiency benchmarks
run in: ``OBS.enabled`` is a plain attribute read, ``OBS.span`` returns
the shared no-op span, and no metric family is ever touched.  Enabling
swaps in a real tracer; everything recorded since the last reset is
visible through ``OBS.registry`` / ``OBS.tracer``.

:class:`timed_phase` is the bridge between span timing and the older
wall-clock structs (``BuildTimings``, ``MiningTimings``): it always
measures, and when observability is on the elapsed value *is* the
span's duration, so the structs and the trace can never disagree.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricSpec, MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, Span, Tracer, _NoopSpan

__all__ = ["Observability", "OBS", "timed_phase"]


class Observability:
    """One registry + one tracer + one event log behind cheap flags.

    ``enabled`` gates metrics and spans; the event log carries its own
    ``events.enabled`` flag so wide events can be on with tracing off
    (the cheap production posture) or vice versa.
    """

    def __init__(self, enabled: bool = False, max_traces: int = 128) -> None:
        self.registry = MetricsRegistry()
        self._tracer = Tracer(max_traces=max_traces)
        self.events = EventLog()
        self.enabled = enabled

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear recorded metrics/traces/events (keeps the on/off state)."""
        self.registry.reset()
        self._tracer.reset()
        self.events.reset()

    def span(self, name: str, **attributes: object):
        """A real span when enabled, the shared no-op span otherwise."""
        if not self.enabled:
            return NOOP_SPAN
        return self._tracer.span(name, **attributes)

    # -- wide events -----------------------------------------------------------

    def emit_event(self, event: str, /, **fields: object):
        """Emit one wide event (no-op unless the event log is enabled).

        This is the blessed emission API reprolint REP005 checks call
        sites of: event names dotted snake_case, fields snake_case,
        values flat scalars.
        """
        if not self.events.enabled:
            return None
        return self.events.emit(event, **fields)

    def flight_recorder(self, event: str) -> FlightRecorder | None:
        """A per-call recorder when the event log is on, else None."""
        if not self.events.enabled:
            return None
        return FlightRecorder(self.events, event)

    def current_trace_id(self) -> str | None:
        """The trace id of this thread's open span, if any."""
        span = self._tracer.current()
        return span.trace_id if span is not None else None


#: The process-wide runtime every instrumented layer records into.
OBS = Observability(enabled=False)


class timed_phase:
    """Context manager timing one offline phase, span-first.

    Always measures (``elapsed_seconds`` is valid in disabled mode, via
    ``perf_counter``); when observability is enabled it additionally
    opens a span named ``name`` and, if ``histogram`` (a histogram
    family's :class:`~repro.obs.metrics.MetricSpec`) is given, records
    the duration into that family with ``labels``.  With tracing on,
    ``elapsed_seconds`` is taken from the span itself so timing structs
    derived from it agree with the trace exactly.
    """

    def __init__(
        self,
        name: str,
        histogram: MetricSpec | None = None,
        labels: Mapping[str, object] | None = None,
        **attributes: object,
    ) -> None:
        self.name = name
        self.histogram = histogram
        self.labels = dict(labels or {})
        self.attributes = attributes
        self.elapsed_seconds = 0.0
        self._span_context = None
        self._span: Span | _NoopSpan | None = None
        self._start = 0.0

    def __enter__(self) -> "timed_phase":
        if OBS.enabled:
            self._span_context = OBS.tracer.span(self.name, **self.attributes)
            self._span = self._span_context.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        if self._span_context is not None:
            self._span_context.__exit__(exc_type, exc, tb)
            span = self._span
            if isinstance(span, Span) and span.duration_seconds is not None:
                elapsed = span.duration_seconds
        self.elapsed_seconds = elapsed
        if OBS.enabled and self.histogram is not None and exc_type is None:
            instrument = OBS.registry.family(self.histogram).labels(**self.labels)
            instrument.observe(elapsed)  # type: ignore[union-attr]
        return False
