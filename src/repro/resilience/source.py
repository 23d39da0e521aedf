"""A resilient facade over :class:`AutonomousWebDatabase`.

:class:`ResilientWebDatabase` wraps a source facade and guards its two
probing methods (``query`` and ``count``) with the full resilience
stack — circuit breaker, retry with backoff, per-probe and per-query
deadline budgets — while delegating everything else (schema, probe log,
budget accounting, sampling helpers) to the wrapped instance untouched.
Because every layer of the system reaches the source through these two
methods, wrapping here gives query mapping, relaxation probing and
sampling identical protection with zero changes to their call sites.

The wrapper never alters successful results and never converts error
*types*: transient errors that outlast the retry allowance re-raise
unchanged, and permanent :class:`~repro.db.errors.DatabaseError`
subclasses pass straight through on the first attempt.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

from repro.db import AutonomousWebDatabase, QueryResult, SelectionQuery
from repro.db.errors import TransientSourceError
from repro.obs.metrics import MetricSpec, MetricsRegistry
from repro.resilience.breaker import (
    BREAKER_REJECTIONS,
    BREAKER_TRANSITIONS,
    CircuitBreaker,
)
from repro.resilience.budget import DeadlineBudget
from repro.resilience.clock import Clock, SystemClock
from repro.resilience.degradation import SKIPPED_STEPS
from repro.resilience.errors import DeadlineExceededError
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import (
    ATTEMPTS,
    BACKOFF_SECONDS,
    DEADLINE_REFUSALS,
    RETRIES,
    RETRY_EXHAUSTIONS,
    Retrier,
)

__all__ = ["ResilientWebDatabase", "preregister_resilience_metrics"]

T = TypeVar("T")

#: One zero series per ``repro_resilience_*`` family.
_ZERO_SERIES: tuple[tuple[MetricSpec, dict[str, object]], ...] = (
    (ATTEMPTS, {"outcome": "ok"}),
    (RETRIES, {"error": "TransientSourceError"}),
    (RETRY_EXHAUSTIONS, {}),
    (DEADLINE_REFUSALS, {"scope": "probe"}),
    (BACKOFF_SECONDS, {}),
    (BREAKER_REJECTIONS, {}),
    (BREAKER_TRANSITIONS, {"from_state": "closed", "to_state": "open"}),
    (SKIPPED_STEPS, {"stage": "relaxation", "error": "TransientSourceError"}),
)


def preregister_resilience_metrics(registry: MetricsRegistry) -> None:
    """Zero-init every ``repro_resilience_*`` family.

    A healthy run never trips a retry or opens the breaker, so these
    families would be absent from a metrics dump exactly when a reader
    most wants to confirm they are quiet.  Registers one concrete zero
    series per family (a bare family with no series would violate the
    snapshot schema).
    """
    for spec, labels in _ZERO_SERIES:
        registry.family(spec).labels(**labels)


class ResilientWebDatabase:
    """Probe-level resilience as a transparent facade wrapper.

    Failure accounting in the breaker is per *guarded call*: a probe
    that succeeds on its third attempt is a success (retries already
    cured the blip), while retry exhaustion and deadline refusals are
    failures.  Permanent database errors — schema mistakes, malformed
    queries, an exhausted probe budget — say nothing about the source's
    health and leave the breaker untouched.
    """

    def __init__(
        self,
        webdb: AutonomousWebDatabase,
        policy: ResiliencePolicy | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.inner = webdb
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.retrier = Retrier(self.policy.retry, self.clock)
        self.breaker: CircuitBreaker | None = None
        if self.policy.breaker_failure_threshold is not None:
            self.breaker = CircuitBreaker(
                failure_threshold=self.policy.breaker_failure_threshold,
                recovery_seconds=self.policy.breaker_recovery_seconds,
                clock=self.clock,
            )
        # Per-thread deadline scope: concurrent sessions (the serve
        # layer runs many answer() calls against one facade) each open
        # their own scope, and one thread's budget must never shadow or
        # clobber another's.  threading.local gives every thread an
        # independent slot with no locking on the probe hot path.
        self._scopes = threading.local()

    @property
    def _query_budget(self) -> DeadlineBudget | None:
        budget: DeadlineBudget | None = getattr(self._scopes, "budget", None)
        return budget

    # -- guarded probing -------------------------------------------------------

    def query(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        return self._guard(
            lambda: self.inner.query(query, limit=limit, offset=offset)
        )

    def count(self, query: SelectionQuery) -> int:
        return self._guard(lambda: self.inner.count(query))

    @contextmanager
    def deadline_scope(self) -> Iterator[DeadlineBudget]:
        """Open a per-query deadline covering all probes issued inside.

        Nested scopes shadow the outer one for their duration, and the
        scope is *thread-local*: concurrent sessions on one facade each
        see only their own budget.  With ``query_deadline_seconds=None``
        the budget is unlimited, so the engine can open a scope
        unconditionally.
        """
        budget = DeadlineBudget(
            self.policy.query_deadline_seconds, self.clock, scope="query"
        )
        previous = self._query_budget
        self._scopes.budget = budget
        try:
            yield budget
        finally:
            self._scopes.budget = previous

    def _guard(self, fn: Callable[[], T]) -> T:
        if self.breaker is not None:
            self.breaker.before_call()
        # The probe budget bounds this call from its first attempt on;
        # the retrier draws no jitter and sleeps only after a transient
        # failure.
        budgets: tuple[DeadlineBudget, ...] = ()
        if self.policy.probe_deadline_seconds is not None:
            budgets = (
                DeadlineBudget(
                    self.policy.probe_deadline_seconds, self.clock, scope="probe"
                ),
            )
        query_budget = self._query_budget
        if query_budget is not None:
            budgets += (query_budget,)
        try:
            value = self.retrier.call(fn, budgets)
        except (TransientSourceError, DeadlineExceededError):
            # Retry exhaustion or a deadline refusal: the source is
            # misbehaving at guarded-call granularity.
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        if self.breaker is not None:
            self.breaker.record_success()
        return value

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for CLI/evalx reporting (plain JSON-able values)."""
        payload: dict[str, Any] = {
            "retries": self.retrier.retries,
            "retry_exhaustions": self.retrier.exhaustions,
            "breaker_enabled": self.breaker is not None,
        }
        if self.breaker is not None:
            payload.update(
                breaker_state=self.breaker.state.value,
                breaker_opens=self.breaker.open_count,
                breaker_rejections=self.breaker.rejections,
            )
        return payload

    def __getattr__(self, name: str) -> Any:
        # Everything that is not guarded probing (schema, log, budget
        # accounting, cardinality, fault knobs) is the inner facade's
        # business, verbatim.
        return getattr(self.inner, name)
