"""Circuit breaker: stop probing a source that keeps failing.

Retries cure blips; they make sustained outages *worse* — every query
would burn its full retry allowance against a dead source.  The breaker
sits above the retrier and counts *guarded-call outcomes* (a call that
succeeded after two retries is a success):

* ``closed`` — traffic flows; ``failure_threshold`` consecutive
  failures open the circuit;
* ``open`` — calls are refused instantly with
  :class:`~repro.resilience.errors.CircuitOpenError` until
  ``recovery_seconds`` have passed on the injected clock;
* ``half_open`` — one trial call is admitted: success closes the
  circuit, failure re-opens it for a fresh recovery window.

Transitions are recorded in ``transitions`` (for tests and reports)
and, when observability is on, in
``repro_resilience_breaker_transitions_total{from_state,to_state}``.
"""

from __future__ import annotations

from enum import Enum

from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS
from repro.resilience.clock import Clock
from repro.resilience.errors import CircuitOpenError

__all__ = ["BreakerState", "CircuitBreaker"]

BREAKER_REJECTIONS = MetricSpec(
    "repro_resilience_breaker_rejections_total",
    "counter",
    "Guarded calls refused because the circuit was open.",
)
BREAKER_TRANSITIONS = MetricSpec(
    "repro_resilience_breaker_transitions_total",
    "counter",
    "Circuit-breaker state transitions.",
    labels=("from_state", "to_state"),
)


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker over an injectable clock."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 1.0,
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds cannot be negative")
        if clock is None:
            raise ValueError("a clock must be injected")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.rejections = 0
        self.transitions: list[tuple[str, str]] = []

    @property
    def state(self) -> BreakerState:
        """Current state (open circuits lapse to half-open lazily)."""
        if (
            self._state is BreakerState.OPEN
            and self._clock.monotonic() - self._opened_at
            >= self.recovery_seconds
        ):
            self._transition(BreakerState.HALF_OPEN)
        return self._state

    @property
    def open_count(self) -> int:
        """How many times the circuit has opened so far."""
        return sum(1 for _, to in self.transitions if to == "open")

    def before_call(self) -> None:
        """Gate one guarded call; raises when the circuit is open."""
        if self.state is BreakerState.OPEN:
            self.rejections += 1
            if OBS.enabled:
                OBS.registry.family(BREAKER_REJECTIONS).inc()
            retry_in = max(
                0.0,
                self.recovery_seconds
                - (self._clock.monotonic() - self._opened_at),
            )
            raise CircuitOpenError(retry_in=retry_in)

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        if self._state is BreakerState.HALF_OPEN:
            # The trial call failed: back to a fresh recovery window.
            self._open()
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open()

    # -- internals -----------------------------------------------------------

    def _open(self) -> None:
        self._opened_at = self._clock.monotonic()
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, to: BreakerState) -> None:
        origin = self._state
        self._state = to
        self.transitions.append((origin.value, to.value))
        if OBS.enabled:
            OBS.registry.family(BREAKER_TRANSITIONS).labels(
                from_state=origin.value, to_state=to.value
            ).inc()
