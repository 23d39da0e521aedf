"""Admission control: token bucket, bounded queue, load shedding.

Overload protection happens *before* any model work: a request first
passes the :class:`AdmissionController`, which either grants an
in-flight slot, parks the request in a bounded wait queue, or sheds it
(HTTP 429 + ``Retry-After``).  Shedding at the door is degradation
stage one — the server stays upright by refusing work it cannot finish
rather than queueing unboundedly and collapsing.

The controller is deterministic under an injected
:class:`~repro.resilience.clock.Clock`: the token bucket refills from
``clock.monotonic()``, so chaos tests drive it with a
:class:`~repro.resilience.clock.VirtualClock` and no real sleeps.  All
mutable state lives behind one lock; blocking (the queue wait) happens
on the condition built over that same lock, never while holding it
around slow work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS
from repro.resilience.clock import Clock, SystemClock
from repro.serve.config import ServeConfig

__all__ = ["AdmissionController", "AdmissionDecision"]

#: Shed reasons, also the ``reason`` label of ``repro_serve_shed_total``.
SHED_DRAINING = "draining"
SHED_QUEUE_FULL = "queue_full"
SHED_THROTTLED = "throttled"
SHED_QUEUE_TIMEOUT = "queue_timeout"

INFLIGHT = MetricSpec(
    "repro_serve_inflight_count",
    "gauge",
    "Requests currently holding an in-flight slot.",
)
QUEUE_DEPTH = MetricSpec(
    "repro_serve_queue_depth_count",
    "gauge",
    "Requests parked in the bounded admission queue.",
)
SHED = MetricSpec(
    "repro_serve_shed_total",
    "counter",
    "Requests shed at admission, by reason.",
    labels=("reason",),
)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    ``pressure`` is the in-flight utilisation (0..1) observed at the
    moment of admission — the session layer uses it to pick the
    request's budgets, so one consistent snapshot drives both the
    admission and the degradation stage.
    """

    admitted: bool
    reason: str
    retry_after_seconds: float
    pressure: float


class AdmissionController:
    """Token-bucket admission with a bounded wait queue.

    Order of checks for one request: drain flag, token bucket, then
    slot availability.  A request that finds all ``max_inflight`` slots
    busy waits on the slot condition for at most
    ``queue_wait_seconds`` — but only while fewer than ``max_queue``
    requests are already waiting; beyond that depth it is shed
    immediately.  ``queue_wait_seconds=0`` disables waiting entirely
    (every full moment sheds), which is what the deterministic tests
    use.
    """

    def __init__(self, config: ServeConfig, clock: Clock | None = None) -> None:
        self.config = config
        self._clock: Clock = clock if clock is not None else SystemClock()
        # One condition guards every mutable field; waiting for a slot
        # and mutating the counters share its lock, so a release can
        # wake queued requests without a second lock in the picture.
        self._slots = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self._draining = False
        self._tokens = float(config.burst)
        self._refilled = self._clock.monotonic()
        self.admitted_total = 0
        self.shed_total = 0
        self.shed_by_reason: dict[str, int] = {}

    # -- admission ---------------------------------------------------------

    def admit(self, wait: bool = True) -> AdmissionDecision:
        """Try to claim an in-flight slot for one request.

        An admitted decision *must* be paired with :meth:`release` once
        the request finishes (use :class:`~repro.serve.session.RequestSession`
        as a context manager to get that for free).
        """
        with self._slots:
            decision = self._admit_locked(wait)
            inflight = self._inflight
            waiting = self._waiting
        self._publish(decision, inflight, waiting)
        return decision

    def _admit_locked(self, wait: bool) -> AdmissionDecision:
        config = self.config
        if self._draining:
            return self._shed_locked(SHED_DRAINING, config.retry_after_seconds)
        if not self._take_token_locked():
            return self._shed_locked(
                SHED_THROTTLED, self._throttle_retry_after_locked()
            )
        if self._inflight < config.max_inflight:
            return self._grant_locked()
        if not wait or config.queue_wait_seconds == 0 or config.max_queue == 0:
            return self._shed_locked(SHED_QUEUE_FULL, config.retry_after_seconds)
        if self._waiting >= config.max_queue:
            return self._shed_locked(SHED_QUEUE_FULL, config.retry_after_seconds)
        return self._wait_for_slot_locked()

    def _wait_for_slot_locked(self) -> AdmissionDecision:
        """Park the request until a slot frees, the wait budget runs
        out, or a drain begins.  The condition wait releases the lock,
        so releases and other admissions proceed while we sleep."""
        config = self.config
        deadline = self._clock.monotonic() + config.queue_wait_seconds
        self._waiting += 1
        try:
            while True:
                if self._draining:
                    return self._shed_locked(
                        SHED_DRAINING, config.retry_after_seconds
                    )
                if self._inflight < config.max_inflight:
                    return self._grant_locked()
                timeout = deadline - self._clock.monotonic()
                if timeout <= 0:
                    return self._shed_locked(
                        SHED_QUEUE_TIMEOUT, config.retry_after_seconds
                    )
                self._slots.wait(timeout)
        finally:
            self._waiting -= 1

    def _grant_locked(self) -> AdmissionDecision:
        self._inflight += 1
        self.admitted_total += 1
        return AdmissionDecision(
            admitted=True,
            reason="ok",
            retry_after_seconds=0.0,
            pressure=self._inflight / self.config.max_inflight,
        )

    def _shed_locked(self, reason: str, retry_after: float) -> AdmissionDecision:
        self.shed_total += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        return AdmissionDecision(
            admitted=False,
            reason=reason,
            retry_after_seconds=retry_after,
            pressure=self._inflight / self.config.max_inflight,
        )

    def release(self) -> None:
        """Return one in-flight slot and wake a queued request."""
        with self._slots:
            self._inflight -= 1
            inflight = self._inflight
            waiting = self._waiting
            self._slots.notify()
        self._publish(None, inflight, waiting)

    # -- token bucket ------------------------------------------------------

    def _take_token_locked(self) -> bool:
        config = self.config
        if config.rate <= 0:
            return True
        now = self._clock.monotonic()
        self._tokens = min(
            float(config.burst),
            self._tokens + (now - self._refilled) * config.rate,
        )
        self._refilled = now
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True

    def _throttle_retry_after_locked(self) -> float:
        config = self.config
        if config.rate <= 0:
            return config.retry_after_seconds
        deficit = (1.0 - self._tokens) / config.rate
        return max(config.retry_after_seconds, deficit)

    # -- drain -------------------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; wake every queued request so it sheds."""
        with self._slots:
            self._draining = True
            self._slots.notify_all()

    @property
    def draining(self) -> bool:
        with self._slots:
            return self._draining

    def await_idle(self, timeout_seconds: float) -> bool:
        """Block until no request is in flight or queued (True), or the
        drain deadline passes (False).  Event-driven: each release
        notifies the condition, so no polling sleeps are involved."""
        deadline = self._clock.monotonic() + timeout_seconds
        with self._slots:
            while self._inflight > 0 or self._waiting > 0:
                remaining = deadline - self._clock.monotonic()
                if remaining <= 0:
                    return False
                self._slots.wait(remaining)
            return True

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain JSON-able counters for ``/stats``."""
        with self._slots:
            return {
                "inflight": self._inflight,
                "queued": self._waiting,
                "draining": self._draining,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "shed_by_reason": dict(self.shed_by_reason),
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
            }

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def _publish(
        decision: AdmissionDecision | None, inflight: int, waiting: int
    ) -> None:
        """Mirror admission state into the serve metric families.

        Runs *after* the lock is released: the registry serialises
        internally, and publishing stale-by-a-moment gauges is better
        than holding the admission lock across another subsystem."""
        if not OBS.enabled:
            return
        registry = OBS.registry
        registry.family(INFLIGHT).set(inflight)
        registry.family(QUEUE_DEPTH).set(waiting)
        if decision is not None and not decision.admitted:
            registry.family(SHED).labels(reason=decision.reason).inc()
