"""Chrome/Perfetto trace-event export of recorded span trees.

Renders :class:`~repro.obs.tracing.Span` trees in the Chrome Trace
Event JSON format — the "complete event" (``ph: "X"``) flavour, one
object per span with microsecond ``ts``/``dur`` — loadable directly in
``chrome://tracing``, Perfetto (https://ui.perfetto.dev) or ``speedscope``.
Each span's thread id becomes the Chrome ``tid``, so spans recorded
on different threads (concurrent server requests) render as parallel
tracks instead of one serial lane.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.tracing import Span

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: All spans of one process share one Chrome pid; the format requires it.
_PID = 1


def _span_event(span: Span) -> dict[str, object]:
    args: dict[str, object] = dict(span.attributes)
    args["status"] = span.status
    args["trace_id"] = span.trace_id
    if span.error:
        args["error"] = span.error
    return {
        "name": span.name,
        "cat": span.name.split(".", 1)[0],
        "ph": "X",
        "ts": round(span.started_at * 1e6, 3),
        "dur": round((span.duration_seconds or 0.0) * 1e6, 3),
        "pid": _PID,
        "tid": span.tid,
        "args": args,
    }


def to_chrome_trace(roots: Iterable[Span]) -> dict[str, object]:
    """The given span trees as a Chrome trace-event object."""
    events = [
        _span_event(span) for root in roots for span in root.walk()
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(roots: Iterable[Span], path: str) -> int:
    """Write the trees to ``path`` as JSON; returns the event count."""
    payload = to_chrome_trace(roots)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return len(payload["traceEvents"])  # type: ignore[arg-type]
