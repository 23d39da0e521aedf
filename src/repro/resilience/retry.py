"""Retry with exponential backoff and deterministic, seeded jitter.

The retrier only ever swallows the transient taxonomy
(:class:`~repro.db.errors.TransientSourceError`); permanent failures —
schema errors, malformed queries, an exhausted probe budget — propagate
on the first attempt, because retrying them hides real bugs (this is
precisely the shape reprolint's REP006 retry extension enforces
repo-wide).

Determinism: the jitter comes from a private ``random.Random(seed)``
stream, one draw per backoff sleep, and all waiting goes through the
injectable clock — so a retry schedule is a pure function of
``(config, seed, error sequence)`` and the chaos suite can assert it
exactly, with no wall-clock involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.db.errors import TransientSourceError
from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS
from repro.resilience.budget import DeadlineBudget
from repro.resilience.clock import Clock

__all__ = ["RetryConfig", "Retrier"]

T = TypeVar("T")

ATTEMPTS = MetricSpec(
    "repro_resilience_attempts_total",
    "counter",
    "Guarded probe attempts, by outcome.",
    labels=("outcome",),
)
RETRIES = MetricSpec(
    "repro_resilience_retries_total",
    "counter",
    "Retry sleeps performed, by transient error kind.",
    labels=("error",),
)
RETRY_EXHAUSTIONS = MetricSpec(
    "repro_resilience_retry_exhaustions_total",
    "counter",
    "Guarded calls whose transient failures outlasted the retry allowance.",
)
DEADLINE_REFUSALS = MetricSpec(
    "repro_resilience_deadline_refusals_total",
    "counter",
    "Backoff sleeps refused by a deadline budget, by scope.",
    labels=("scope",),
)
BACKOFF_SECONDS = MetricSpec(
    "repro_resilience_backoff_seconds",
    "histogram",
    "Backoff sleep durations before retrying a probe.",
    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0),
)


@dataclass(frozen=True)
class RetryConfig:
    """Backoff shape for one retrier.

    Attempt ``n`` (1-based) that fails transiently sleeps

    ``min(max_delay, base_delay * multiplier**(n-1)) * (1 - jitter*u)``

    with ``u`` drawn from the seeded stream, then retries; a
    ``retry_after`` hint on the error raises the sleep to at least that
    value (a throttling source's word beats the local schedule).  After
    ``max_attempts`` total attempts the last transient error is
    re-raised unchanged.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


class Retrier:
    """Executes callables under a :class:`RetryConfig`.

    One retrier holds one jitter stream; share a single instance per
    source so the schedule stays a function of the global attempt
    sequence.
    """

    def __init__(self, config: RetryConfig, clock: Clock) -> None:
        self.config = config
        self._clock = clock
        self._rng = random.Random(config.seed)
        self.retries = 0
        self.exhaustions = 0

    def backoff_delay(
        self, attempt: int, retry_after: float | None = None
    ) -> float:
        """The (jittered) sleep after failed attempt ``attempt``.

        Advances the jitter stream by exactly one draw.
        """
        config = self.config
        raw = min(
            config.max_delay,
            config.base_delay * config.multiplier ** (attempt - 1),
        )
        jittered = raw * (1.0 - config.jitter * self._rng.random())
        if retry_after is not None:
            jittered = max(jittered, retry_after)
        return jittered

    def call(
        self,
        fn: Callable[[], T],
        budgets: tuple[DeadlineBudget, ...] = (),
    ) -> T:
        """Run ``fn``, retrying transient failures within the budgets.

        Every attempt first checks each budget; a budget that cannot
        afford the next backoff sleep — because the delay would consume
        its entire remaining time, or nothing remains at all — turns
        the transient failure into a
        :class:`~repro.resilience.errors.DeadlineExceededError` chained
        from it, *before* any time is slept.  Backoff therefore never
        sleeps up to (or past) an active deadline.
        """
        config = self.config
        attempt = 0
        while True:
            attempt += 1
            for budget in budgets:
                budget.require()
            try:
                value = fn()
            except TransientSourceError as exc:
                self._record_attempt("transient")
                if attempt >= config.max_attempts:
                    self.exhaustions += 1
                    if OBS.enabled:
                        OBS.registry.family(RETRY_EXHAUSTIONS).inc()
                    raise
                delay = self.backoff_delay(attempt, exc.retry_after)
                for budget in budgets:
                    if not budget.affords_sleep(delay):
                        if OBS.enabled:
                            OBS.registry.family(DEADLINE_REFUSALS).labels(
                                scope=budget.scope
                            ).inc()
                        raise budget.refuse_sleep(delay) from exc
                self.retries += 1
                if OBS.events.enabled and OBS.events.probe_events:
                    OBS.emit_event(
                        "resilience.retry",
                        attempt=attempt,
                        max_attempts=config.max_attempts,
                        delay_seconds=round(delay, 6),
                        error=type(exc).__name__,
                        trace_id=OBS.current_trace_id() or "",
                    )
                if OBS.enabled:
                    OBS.registry.family(RETRIES).labels(
                        error=type(exc).__name__
                    ).inc()
                    OBS.registry.family(BACKOFF_SECONDS).observe(delay)
                    with OBS.span(
                        "resilience.backoff",
                        attempt=attempt,
                        max_attempts=config.max_attempts,
                        delay=round(delay, 6),
                        error=type(exc).__name__,
                    ):
                        self._clock.sleep(delay)
                else:
                    self._clock.sleep(delay)
            else:
                self._record_attempt("ok")
                return value

    @staticmethod
    def _record_attempt(outcome: str) -> None:
        if OBS.enabled:
            OBS.registry.family(ATTEMPTS).labels(outcome=outcome).inc()
