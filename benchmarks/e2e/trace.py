"""Span recording around each layer's public entry points.

The benchmark measures the program from outside: :func:`instrumented`
temporarily replaces the functions each layer is reached through (at
the attribute the caller looks up, so a class method is patched on its
class and a module-level function in the module that calls it) with
wrappers that record one span per call.  Nothing under ``src/`` knows
it is being traced, and every wrapper is removed on exit.

Spans live in flat arrays (name, start, end, parent, request, thread)
so a traced run of a few hundred thousand calls stays small; a layer's
self time is its span's duration minus the durations of its children.
Children always run on their parent's thread (each thread nests its own
stack), so they never overlap and the sum is the covered interval.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["LAYER_TARGETS", "Tracer", "TraceSummary", "instrumented"]

#: (module, attribute path, span name, kind).  ``kind`` is "call" for a
#: plain function or method, "iter" for one returning an iterator whose
#: every ``next()`` is timed.
LAYER_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.db.webdb", "AutonomousWebDatabase.query", "db.query", "call"),
    ("repro.db.webdb", "AutonomousWebDatabase.count", "db.count", "call"),
    ("repro.db.executor", "Executor.execute", "db.executor", "call"),
    ("repro.db.executor", "Executor.count", "db.executor", "call"),
    ("repro.core.query", "BaseQueryMapper.map", "core.query", "call"),
    (
        "repro.core.relaxation",
        "GuidedRelax.relaxation_steps",
        "core.relaxation",
        "iter",
    ),
    ("repro.core.similarity", "BindingsScorer.__call__", "core.similarity", "call"),
    ("repro.core.similarity", "BoundedScorer.score_above", "core.similarity", "call"),
    ("repro.core.engine", "AIMQEngine.answer", "core.engine", "call"),
    ("repro.core.engine", "AIMQEngine.gather_similar", "core.engine", "call"),
    ("repro.resilience.source", "ResilientWebDatabase.query", "resilience", "call"),
    ("repro.resilience.source", "ResilientWebDatabase.count", "resilience", "call"),
    ("repro.serve.admission", "AdmissionController.admit", "serve.admit", "call"),
    ("repro.serve.handlers", "answer_payload", "serve.payload", "call"),
    ("repro.serve.handlers", "Router.route", "serve.router", "call"),
    ("repro.serve.session", "RequestSession.answer", "serve.session", "call"),
    ("repro.core.pipeline", "build_model", "pipeline", "call"),
    ("repro.serve.state", "build_model", "pipeline", "call"),
    ("repro.core.pipeline", "collect_sample", "sampling", "call"),
    ("repro.afd.tane", "TaneMiner.mine", "afd", "call"),
    (
        "repro.simmining.estimator",
        "ValueSimilarityMiner.build_supertuples",
        "simmining.supertuples",
        "call",
    ),
    (
        "repro.simmining.estimator",
        "ValueSimilarityMiner.estimate",
        "simmining.estimate",
        "call",
    ),
)

#: Request id of spans outside any timed operation.
NO_REQUEST = -1

#: Spans written to a Chrome trace; a broad answer alone has ~26k.
CHROME_MAX_EVENTS = 50_000


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.threads = array("q")
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread context ------------------------------------------------

    @property
    def request(self) -> int:
        """The request id new spans on this thread are tagged with."""
        return getattr(self._local, "request", NO_REQUEST)

    @request.setter
    def request(self, value: int) -> None:
        self._local.request = value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.requests.append(self.request)
            self.threads.append(threading.get_ident())
            self.ends.append(float("nan"))
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_iter(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` whose returned iterator records one span per ``next()``."""
        tracer = self

        class TracedIterator:
            def __init__(self, inner: Iterator[Any]) -> None:
                self._inner = inner

            def __iter__(self) -> "TracedIterator":
                return self

            def __next__(self) -> Any:
                index = tracer.begin(name)
                try:
                    return next(self._inner)
                except StopIteration:
                    tracer.counts[f"{name}.exhausted"] += 1
                    raise
                finally:
                    tracer.end(index)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return TracedIterator(iter(fn(*args, **kwargs)))

        return traced

    # -- analysis ----------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def write_chrome(self, path: Path) -> int:
        """Write the first ``CHROME_MAX_EVENTS`` closed spans as a Chrome trace.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``; each span is a complete ("X") event on
        its thread's track, with its request id and parent in ``args``.
        """
        events: list[dict[str, Any]] = []
        origin = self.starts[0] if self.starts else 0.0
        thread_ids: dict[int, int] = {}
        for index in range(len(self.starts)):
            if len(events) >= CHROME_MAX_EVENTS:
                break
            end = self.ends[index]
            if end != end:  # still open
                continue
            tid = thread_ids.setdefault(self.threads[index], len(thread_ids) + 1)
            events.append(
                {
                    "name": self.names[self.name_ids[index]],
                    "ph": "X",
                    "ts": round((self.starts[index] - origin) * 1e6, 3),
                    "dur": round((end - self.starts[index]) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "request": self.requests[index],
                        "parent": self.parents[index],
                        "span": index,
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


class TraceSummary:
    """Vectorised per-span durations and self times of one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.counts = Counter(tracer.counts)
        # Copies, not views: the tracer's arrays must stay resizable.
        n = len(tracer.starts)
        starts = np.array(tracer.starts, dtype=np.float64)
        ends = np.array(tracer.ends, dtype=np.float64)
        self.name_ids = np.array(tracer.name_ids, dtype=np.int64)
        self.parents = np.array(tracer.parents, dtype=np.int64)
        self.requests = np.array(tracer.requests, dtype=np.int64)
        self.closed = ~np.isnan(ends)
        self.durations = np.where(self.closed, ends - starts, 0.0)
        has_parent = self.parents >= 0
        covered = np.bincount(
            self.parents[has_parent],
            weights=self.durations[has_parent],
            minlength=n,
        )
        self.self_times = self.durations - covered[:n]

    def _all(self, requests: str) -> np.ndarray:
        """Closed spans; ``requests="op"`` keeps only those recorded
        inside a timed request (request id >= 0)."""
        selected = self.closed.copy()
        if requests == "op":
            selected &= self.requests >= 0
        return selected

    def mask(self, name: str, requests: str = "any") -> np.ndarray:
        """Closed spans called ``name`` (see :meth:`_all` for ``requests``)."""
        if name not in self.names:
            return np.zeros(len(self.name_ids), dtype=bool)
        return self._all(requests) & (self.name_ids == self.names.index(name))

    def self_seconds(self, names: tuple[str, ...], requests: str = "any") -> float:
        return float(
            sum(self.self_times[self.mask(name, requests)].sum() for name in names)
        )

    def calls(self, name: str, requests: str = "any") -> int:
        return int(self.mask(name, requests).sum())

    def durations_of(self, name: str, requests: str = "any") -> np.ndarray:
        return self.durations[self.mask(name, requests)]

    def children_of(self, child: str, parent: str) -> int:
        """Closed ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self.names or parent not in self.names:
            return 0
        selected = self.mask(child) & (self.parents >= 0)
        parent_names = self.name_ids[self.parents[selected]]
        return int((parent_names == self.names.index(parent)).sum())

    def total_self(self, requests: str = "any") -> float:
        """Summed self time of every span: the wall time spans cover."""
        return float(self.self_times[self._all(requests)].sum())

    def calls_total(self, requests: str = "any") -> int:
        return int(self._all(requests).sum())


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[list[str]]:
    """Install a span wrapper on every layer target; yields the targets
    that could not be found (reported, never fatal, so a later refactor
    that renames one entry point loses one layer's numbers, not the run).
    """
    missing: object = object()
    patches: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    try:
        for module_name, path, span_name, kind in LAYER_TARGETS:
            owner_path, _, attribute = path.rpartition(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                absent.append(f"{module_name}.{path}")
                continue
            wrapper = (
                tracer.wrap_iter(original, span_name)
                if kind == "iter"
                else tracer.wrap(original, span_name)
            )
            patches.append((owner, attribute, vars(owner).get(attribute, missing)))
            setattr(owner, attribute, wrapper)
        for target in absent:
            print(f"trace: target not found, layer untraced: {target}", file=sys.stderr)
        yield absent
    finally:
        for owner, attribute, previous in reversed(patches):
            if previous is missing:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
