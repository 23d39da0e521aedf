"""Span tracing: nested, timed, attributed — with a no-op twin.

A span covers one region of work ("engine.answer", "pipeline.probing")
and records wall-clock start time, a monotonic duration, free-form
attributes and its child spans.  Spans nest through a per-thread stack,
so instrumented layers compose without passing context around: the
executor's probe span lands under whichever engine span is open on the
same thread.

Completed root spans go to a bounded ring buffer — a long-lived server
keeps the most recent traces without growing without bound.

Because the stack is thread-local, each thread builds its own span
trees; nothing carries a span from one thread to another.

Every root span is assigned a ``trace_id`` from a deterministic
process-wide counter (no wall clock, no RNG — REP001-friendly), and
descendants inherit it; the id is what correlates a span tree with the
wide events (:mod:`repro.obs.events`) emitted during the same call.

When observability is disabled the runtime hands out :data:`NOOP_SPAN`
instead, whose enter/exit/set_attribute do nothing; the instrumentation
cost collapses to one attribute check plus an argument-dict build.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterator, Sequence

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "next_trace_id",
    "render_span_tree",
    "span_summary",
]

_TRACE_ID_LOCK = threading.Lock()
_TRACE_ID_COUNTER = 0


def next_trace_id() -> str:
    """The next id from the process-wide deterministic counter."""
    global _TRACE_ID_COUNTER
    with _TRACE_ID_LOCK:
        _TRACE_ID_COUNTER += 1
        return f"t-{_TRACE_ID_COUNTER:06d}"


class Span:
    """One timed, attributed region of work; may have child spans."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "started_at",
        "status",
        "error",
        "trace_id",
        "tid",
        "_start",
        "_duration",
    )

    def __init__(self, name: str, attributes: dict[str, object]) -> None:
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.started_at = time.time()  # wall clock, for correlation
        self.status = "in_progress"
        self.error: str | None = None
        self.trace_id = ""  # assigned at push: inherited or freshly drawn
        self.tid = threading.get_ident()  # thread that opened the span
        self._start = time.perf_counter()  # monotonic, for duration
        self._duration: float | None = None

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def finish(self, error: BaseException | None = None) -> None:
        if self._duration is None:
            self._duration = time.perf_counter() - self._start
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"
        else:
            self.status = "ok"

    @property
    def duration_seconds(self) -> float | None:
        """Monotonic duration; None while the span is still open."""
        return self._duration

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "started_at": self.started_at,
            "duration_seconds": self._duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens a span on the tracer's thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.finish(error=exc)
        self._tracer._pop(self._span)
        return False  # never swallow the exception


class Tracer:
    """Builds span trees per thread; keeps completed roots in a ring."""

    def __init__(self, max_traces: int = 128) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be at least 1")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._traces: deque[Span] = deque(maxlen=max_traces)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child of the current span (or a new root)::

            with tracer.span("engine.answer", query=q.describe()) as sp:
                ...
                sp.set_attribute("answers", len(result))
        """
        return _SpanContext(self, Span(name, dict(attributes)))

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        if stack:
            parent = stack[-1]
            parent.children.append(span)
            span.trace_id = parent.trace_id
        else:
            span.trace_id = next_trace_id()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not span:
            # Unbalanced exit — drop the whole stack rather than attach
            # spans to the wrong parent.
            self._local.stack = []
            return
        stack.pop()
        if not stack:
            with self._lock:
                self._traces.append(span)

    # -- inspection -----------------------------------------------------------

    def traces(self) -> list[Span]:
        """Completed root spans, oldest first."""
        with self._lock:
            return list(self._traces)

    def last_trace(self) -> Span | None:
        with self._lock:
            return self._traces[-1] if self._traces else None

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span across all completed traces."""
        for root in self.traces():
            yield from root.walk()

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
        self._local.stack = []


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Human-readable indented rendering of one span tree."""
    duration = span.duration_seconds
    timing = f"{duration * 1000:.2f} ms" if duration is not None else "open"
    attributes = ""
    if span.attributes:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        attributes = f"  [{rendered}]"
    marker = " !" if span.status == "error" else ""
    lines = [f"{'  ' * indent}{span.name}  {timing}{marker}{attributes}"]
    if span.error:
        lines.append(f"{'  ' * (indent + 1)}error: {span.error}")
    for child in span.children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)


def span_summary(roots: Sequence[Span]) -> list[dict[str, object]]:
    """Aggregate spans by name across the given trees.

    One row per distinct span name — call count, total and max
    duration, error count — sorted by total duration descending.  This
    is the ``repro trace`` CLI's default view: a profile of where one
    traced call spent its time, without the full tree.
    """
    rows: dict[str, dict[str, object]] = {}
    for root in roots:
        for span in root.walk():
            row = rows.setdefault(
                span.name,
                {
                    "name": span.name,
                    "count": 0,
                    "total_seconds": 0.0,
                    "max_seconds": 0.0,
                    "errors": 0,
                },
            )
            duration = span.duration_seconds or 0.0
            row["count"] = int(row["count"]) + 1
            row["total_seconds"] = float(row["total_seconds"]) + duration
            row["max_seconds"] = max(float(row["max_seconds"]), duration)
            if span.status == "error":
                row["errors"] = int(row["errors"]) + 1
    return sorted(
        rows.values(),
        key=lambda row: float(row["total_seconds"]),  # type: ignore[arg-type]
        reverse=True,
    )
