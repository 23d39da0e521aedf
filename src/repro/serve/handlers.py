"""Request handlers: ``/query``, ``/healthz``, ``/readyz``, ``/metrics``,
``/stats`` and ``/reload``.

The :class:`Router` is transport-free: it maps ``(method, path, params,
body)`` to a :class:`Response`, and :mod:`repro.serve.app` adapts it to
``http.server``.  The chaos suite drives the router directly — same
code path, no sockets, no real sleeps.

Contract highlights:

* ``/query`` answers are **bit-identical** to ``repro query``: the
  handler reads constraints with the CLI's own
  :func:`~repro.core.parser.parse_binding`, builds and validates the
  query with its :func:`~repro.core.parser.build_query`, answers with
  the same per-request engine, and serialises the resulting
  :class:`~repro.core.results.AnswerSet` with :func:`answer_payload` —
  which tests also apply to the CLI-path answer to prove equality.
* Overload never turns into a 500: shed requests get 429 +
  ``Retry-After`` (stage one), pressured requests run under shrunken
  budgets (stage two), and source failures degrade into partial
  answers with a ``degradation`` block (stage three).
* Every request runs inside a ``serve.request`` span; the engine's
  spans and wide events inherit its trace id, which is also returned
  in the ``X-Trace-Id`` response header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.parser import build_query, coerce_value, parse_binding
from repro.core.query import ImpreciseQuery
from repro.core.results import AnswerSet
from repro.core.store import StoreError
from repro.db import DatabaseError, RelationSchema
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricSpec, MetricsRegistry
from repro.obs.runtime import OBS
from repro.resilience import ResilienceError
from repro.resilience.clock import Clock, SystemClock
from repro.serve.admission import (
    INFLIGHT,
    QUEUE_DEPTH,
    SHED,
    SHED_QUEUE_FULL,
    AdmissionController,
)
from repro.serve.config import ServeConfig
from repro.serve.session import RequestSession, SessionBudgets, budgets_for
from repro.serve.state import ServeState

__all__ = [
    "Response",
    "Router",
    "answer_payload",
    "preregister_serve_metrics",
]

REQUESTS = MetricSpec(
    "repro_serve_requests_total",
    "counter",
    "HTTP requests served, by route and status.",
    labels=("route", "status"),
)
REQUEST_SECONDS = MetricSpec(
    "repro_serve_request_seconds",
    "histogram",
    "End-to-end request latency, by route.",
    labels=("route",),
    buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
)


@dataclass
class Response:
    """One transport-free HTTP response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """Decode the body as JSON (test and bench convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(
    status: int, payload: Mapping[str, Any], headers: dict[str, str] | None = None
) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return Response(status, body, headers=headers or {})


def _text_response(status: int, text: str, content_type: str) -> Response:
    return Response(status, text.encode("utf-8"), content_type=content_type)


def answer_payload(
    answers: AnswerSet, budgets: SessionBudgets | None = None
) -> dict[str, Any]:
    """Serialise one :class:`AnswerSet` into plain JSON-able structures.

    Field-for-field faithful: rows, ranked order, every trace counter
    and every degradation flag come straight from the answer object, so
    applying this function to a CLI-path :class:`AnswerSet` yields the
    exact payload the server returns for the same query — the
    bit-identity assertion in the tests compares these dicts directly.
    """
    trace = answers.trace
    degradation = trace.degradation
    payload: dict[str, Any] = {
        "query": answers.query.describe(),
        "answers": [
            {
                "row_id": answer.row_id,
                "row": list(answer.row),
                "similarity": answer.similarity,
                "base_similarity": answer.base_similarity,
                "source_base_row_id": answer.source_base_row_id,
                "relaxation_level": answer.relaxation_level,
            }
            for answer in answers.answers
        ],
        "trace": {
            "base_set_size": trace.base_set_size,
            "generalisation_steps": len(trace.generalisation_steps),
            "queries_issued": trace.queries_issued,
            "probes_cached": trace.probes_cached,
            "probes_subsumed": trace.probes_subsumed,
            "logical_probes": trace.logical_probes,
            "tuples_extracted": trace.tuples_extracted,
            "tuples_relevant": trace.tuples_relevant,
            "deepest_level": trace.deepest_level,
        },
        "degraded": answers.degraded,
        "degradation": {
            "steps_skipped": len(degradation.skipped),
            "budget_exhausted": degradation.budget_exhausted,
            "breaker_open": degradation.breaker_open,
            "deadline_exceeded": degradation.deadline_exceeded,
            "probes_failed": degradation.probes_failed,
            "retries_used": degradation.retries_used,
            "breaker_opens": degradation.breaker_opens,
            "summary": degradation.summary(),
        },
    }
    if budgets is not None:
        payload["budgets"] = {
            "pressured": budgets.pressured,
            "query_deadline_seconds": budgets.query_deadline_seconds,
            "probe_cap": budgets.probe_cap,
        }
    return payload


class Router:
    """Maps one parsed request to a :class:`Response`."""

    def __init__(
        self,
        state: ServeState,
        admission: AdmissionController,
        config: ServeConfig,
        clock: Clock | None = None,
    ) -> None:
        self.state = state
        self.admission = admission
        self.config = config
        self._clock: Clock = clock if clock is not None else SystemClock()

    # -- entry point -------------------------------------------------------

    def route(
        self,
        method: str,
        path: str,
        params: Mapping[str, Sequence[str]] | None = None,
        body: bytes = b"",
    ) -> Response:
        params = params or {}
        started = self._clock.monotonic()
        try:
            response = self._dispatch(method, path, params, body)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            response = _json_response(400, {"error": str(exc)})
        except (DatabaseError, ResilienceError, OSError) as exc:
            response = _json_response(
                503, {"error": f"{type(exc).__name__}: {exc}"}
            )
        except Exception as exc:
            # Structured last resort: a handler bug must never tear the
            # connection down without a response.  The chaos suite
            # asserts this path stays cold (zero 500s under fault load).
            response = _json_response(
                500, {"error": f"internal: {type(exc).__name__}: {exc}"}
            )
        self._observe(method, path, response, self._clock.monotonic() - started)
        return response

    def _dispatch(
        self,
        method: str,
        path: str,
        params: Mapping[str, Sequence[str]],
        body: bytes,
    ) -> Response:
        if path == "/healthz":
            return _text_response(200, "ok\n", "text/plain; charset=utf-8")
        if path == "/readyz":
            return self._readyz()
        if path == "/metrics":
            return _text_response(
                200,
                to_prometheus(OBS.registry.snapshot()),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/stats":
            return self._stats()
        if path == "/reload" and method == "POST":
            return self._reload()
        if path == "/query" and method in ("GET", "POST"):
            return self._query(method, params, body)
        return _json_response(404, {"error": f"no route for {method} {path}"})

    # -- simple endpoints --------------------------------------------------

    def _readyz(self) -> Response:
        if not self.state.ready:
            return _json_response(503, {"ready": False, "reason": "loading"})
        if self.admission.draining:
            return _json_response(503, {"ready": False, "reason": "draining"})
        return _json_response(200, {"ready": True})

    def _stats(self) -> Response:
        bundle = self.state.current() if self.state.ready else None
        payload: dict[str, Any] = {
            "admission": self.admission.snapshot(),
            "state": self.state.snapshot(),
        }
        if bundle is not None:
            log = bundle.webdb.log.snapshot()
            payload["source"] = {
                "probes_issued": log.probes_issued,
                "tuples_returned": log.tuples_returned,
                "empty_results": log.empty_results,
                "count_probes": log.count_probes,
                "cache_hits": log.cache_hits,
            }
        return _json_response(200, payload)

    def _reload(self) -> Response:
        try:
            bundle = self.state.reload()
        except (
            DatabaseError, ResilienceError, OSError, StoreError, ValueError
        ) as exc:
            return _json_response(
                503, {"reloaded": False, "error": str(exc)}
            )
        return _json_response(
            200, {"reloaded": True, "generation": bundle.generation}
        )

    # -- /query ------------------------------------------------------------

    def _query(
        self,
        method: str,
        params: Mapping[str, Sequence[str]],
        body: bytes,
    ) -> Response:
        if not self.state.ready:
            return _json_response(503, {"error": "model not loaded yet"})
        bundle = self.state.current()
        try:
            query, k = self._parse_query_request(
                method, params, body, bundle.webdb.schema
            )
        except ValueError as exc:
            return _json_response(400, {"error": str(exc)})

        decision = self.admission.admit()
        if not decision.admitted:
            retry_after = max(1, round(decision.retry_after_seconds))
            return _json_response(
                429,
                {
                    "error": "overloaded, request shed",
                    "reason": decision.reason,
                    "retry_after_seconds": decision.retry_after_seconds,
                },
                headers={"Retry-After": str(retry_after)},
            )

        budgets = budgets_for(self.config, decision.pressure)
        with RequestSession(
            bundle,
            self.config,
            budgets,
            admission=self.admission,
            clock=self._clock,
        ) as session, OBS.span(
            "serve.request", route="/query", pressured=budgets.pressured
        ) as span:
            # The no-op span (observability off) carries no trace id.
            trace_id = str(getattr(span, "trace_id", "") or "")
            answers = session.answer(query, k)
            payload = answer_payload(answers, budgets)
            payload["trace_id"] = trace_id
            self._emit_request_event(trace_id, answers, budgets)
        return _json_response(200, payload, headers={"X-Trace-Id": trace_id})

    def _parse_query_request(
        self,
        method: str,
        params: Mapping[str, Sequence[str]],
        body: bytes,
        schema: RelationSchema,
    ) -> tuple[ImpreciseQuery, int]:
        """Read one ``/query`` request; anything malformed is a ValueError.

        The query is checked against the schema here, before admission,
        so a request the engine cannot answer is a 400 rather than a
        source error (503) or a crash inside the engine (500).
        """
        text: str | None = None
        bindings: dict[str, object] = {}
        k = self.config.default_k
        if method == "POST" and body:
            document = json.loads(body.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
            text = document.get("text")
            if text is not None and not isinstance(text, str):
                raise ValueError(
                    f"text must be a string, got {json.dumps(text)}"
                )
            constraints = document.get("constraints", {})
            if not isinstance(constraints, dict):
                raise ValueError("'constraints' must be an object")
            for attribute, value in constraints.items():
                if isinstance(value, str):
                    value = coerce_value(value)
                elif isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValueError(
                        f"constraint {attribute!r} must be a string or a "
                        f"number, got {json.dumps(value)}"
                    )
                bindings[str(attribute)] = value
            k = document.get("k", k)
            if isinstance(k, bool) or not isinstance(k, int):
                raise ValueError(
                    f"k must be an integer, got {json.dumps(k)}"
                )
        else:
            bindings.update(map(parse_binding, params.get("c", ())))
            text_values = params.get("text", ())
            if text_values:
                text = text_values[0]
            k_values = params.get("k", ())
            if k_values:
                k = int(k_values[0])
        if not 1 <= k <= self.config.max_k:
            raise ValueError(f"k must be in [1, {self.config.max_k}]")
        try:
            return build_query(schema, text, bindings), k
        except DatabaseError as exc:
            raise ValueError(str(exc)) from exc

    # -- observability -----------------------------------------------------

    def _emit_request_event(
        self, trace_id: str, answers: AnswerSet, budgets: SessionBudgets
    ) -> None:
        if not OBS.events.enabled:
            return
        trace = answers.trace
        OBS.emit_event(
            "serve.request",
            route="/query",
            status=200,
            answers=len(answers.answers),
            probes_issued=trace.queries_issued,
            probes_cached=trace.probes_cached,
            degraded=answers.degraded,
            pressured=budgets.pressured,
            trace_id=trace_id,
        )

    def _observe(
        self, method: str, path: str, response: Response, seconds: float
    ) -> None:
        if not OBS.enabled:
            return
        route = path if path in ROUTES else "other"
        registry = OBS.registry
        registry.family(REQUESTS).labels(
            route=route, status=response.status
        ).inc()
        registry.family(REQUEST_SECONDS).labels(route=route).observe(seconds)


#: One zero series per ``repro_serve_*`` family.
_ZERO_SERIES: tuple[tuple[MetricSpec, dict[str, object]], ...] = (
    (REQUESTS, {"route": "/query", "status": 200}),
    (SHED, {"reason": SHED_QUEUE_FULL}),
    (INFLIGHT, {}),
    (QUEUE_DEPTH, {}),
    (REQUEST_SECONDS, {"route": "/query"}),
)


def preregister_serve_metrics(registry: MetricsRegistry | None = None) -> None:
    """Zero-init every ``repro_serve_*`` family.

    Called at server start (and by ``repro stats``) so dashboards and
    the ``/metrics`` endpoint expose the serving families from the
    first scrape — a quiet server reports explicit zeros, not absent
    series.  One concrete zero series per family, matching the
    ``repro stats`` convention.
    """
    if registry is None:
        registry = OBS.registry
    for spec, labels in _ZERO_SERIES:
        registry.family(spec).labels(**labels)


#: Routes with their own label value in the request metrics.
ROUTES = (
    "/query",
    "/healthz",
    "/readyz",
    "/metrics",
    "/stats",
    "/reload",
)
