"""Retry with deterministic backoff, and the deadline budgets under it."""

import pytest

from repro.db.errors import (
    QueryError,
    SourceThrottledError,
    TransientProbeError,
    TransientSourceError,
)
from repro.resilience import (
    DeadlineBudget,
    DeadlineExceededError,
    Retrier,
    RetryConfig,
    VirtualClock,
)


class _Flaky:
    """Fails ``failures`` times with ``error``, then returns ``value``."""

    def __init__(self, failures, error=None, value="ok"):
        self.failures = failures
        self.error = error or TransientProbeError()
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return self.value


class TestRetryConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RetryConfig(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryConfig(jitter=1.5)


class TestBackoffSchedule:
    def test_deterministic_under_seed(self):
        config = RetryConfig(seed=7)
        first = Retrier(config, VirtualClock())
        second = Retrier(config, VirtualClock())
        assert [first.backoff_delay(n) for n in range(1, 6)] == [
            second.backoff_delay(n) for n in range(1, 6)
        ]

    def test_exponential_shape_with_cap(self):
        config = RetryConfig(
            base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        retrier = Retrier(config, VirtualClock())
        assert retrier.backoff_delay(1) == pytest.approx(0.1)
        assert retrier.backoff_delay(2) == pytest.approx(0.2)
        assert retrier.backoff_delay(3) == pytest.approx(0.3)
        assert retrier.backoff_delay(5) == pytest.approx(0.3)

    def test_jitter_only_shrinks_the_delay(self):
        config = RetryConfig(base_delay=0.2, jitter=0.5)
        retrier = Retrier(config, VirtualClock())
        for attempt in range(1, 20):
            delay = retrier.backoff_delay(attempt)
            raw = min(config.max_delay, 0.2 * 2.0 ** (attempt - 1))
            assert raw * 0.5 <= delay <= raw

    def test_retry_after_hint_is_a_floor(self):
        retrier = Retrier(
            RetryConfig(base_delay=0.01, jitter=0.0), VirtualClock()
        )
        assert retrier.backoff_delay(1, retry_after=0.5) == pytest.approx(0.5)


class TestCall:
    def test_transient_failures_are_cured(self):
        clock = VirtualClock()
        retrier = Retrier(RetryConfig(max_attempts=4, seed=1), clock)
        flaky = _Flaky(failures=2)
        assert retrier.call(flaky) == "ok"
        assert flaky.calls == 3
        assert retrier.retries == 2
        assert len(clock.sleeps) == 2

    def test_sleep_schedule_matches_backoff_delay(self):
        config = RetryConfig(max_attempts=5, seed=11)
        clock = VirtualClock()
        retrier = Retrier(config, clock)
        retrier.call(_Flaky(failures=3))
        reference = Retrier(config, VirtualClock())
        assert clock.sleeps == pytest.approx(
            [reference.backoff_delay(n) for n in (1, 2, 3)]
        )

    def test_exhaustion_reraises_the_original_error(self):
        clock = VirtualClock()
        retrier = Retrier(RetryConfig(max_attempts=3), clock)
        flaky = _Flaky(failures=10)
        with pytest.raises(TransientProbeError):
            retrier.call(flaky)
        assert flaky.calls == 3
        assert retrier.exhaustions == 1
        assert len(clock.sleeps) == 2  # no sleep after the last attempt

    def test_permanent_errors_propagate_immediately(self):
        clock = VirtualClock()
        retrier = Retrier(RetryConfig(max_attempts=5), clock)
        flaky = _Flaky(failures=10, error=QueryError("malformed"))
        with pytest.raises(QueryError):
            retrier.call(flaky)
        assert flaky.calls == 1
        assert clock.sleeps == []

    def test_throttle_retry_after_respected(self):
        clock = VirtualClock()
        retrier = Retrier(
            RetryConfig(max_attempts=2, base_delay=0.001, jitter=0.0), clock
        )
        flaky = _Flaky(
            failures=1, error=SourceThrottledError(retry_after=0.75)
        )
        assert retrier.call(flaky) == "ok"
        assert clock.sleeps == [pytest.approx(0.75)]


class TestDeadlineBudget:
    def test_unlimited_budget_never_expires(self):
        clock = VirtualClock()
        budget = DeadlineBudget(None, clock, scope="query")
        clock.advance(10_000)
        assert not budget.expired
        assert budget.affords_sleep(10_000)
        budget.require()

    def test_require_raises_after_expiry(self):
        clock = VirtualClock()
        budget = DeadlineBudget(1.0, clock, scope="probe")
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError) as info:
            budget.require()
        assert info.value.scope == "probe"
        assert info.value.budget_seconds == pytest.approx(1.0)
        assert info.value.elapsed_seconds == pytest.approx(2.0)

    def test_budget_refuses_unaffordable_sleep(self):
        clock = VirtualClock()
        retrier = Retrier(
            RetryConfig(max_attempts=5, base_delay=2.0, jitter=0.0), clock
        )
        budget = DeadlineBudget(1.0, clock, scope="probe")
        with pytest.raises(DeadlineExceededError) as info:
            retrier.call(_Flaky(failures=10), budgets=(budget,))
        assert info.value.scope == "probe"
        assert isinstance(info.value.__cause__, TransientSourceError)
        assert clock.sleeps == []  # the refusal happened before sleeping

    def test_affords_sleep_requires_strictly_positive_headroom(self):
        clock = VirtualClock()
        budget = DeadlineBudget(1.0, clock, scope="probe")
        assert budget.affords_sleep(0.999)
        assert not budget.affords_sleep(1.0)  # sleeps exactly to the deadline
        assert not budget.affords_sleep(1.5)
        clock.advance(1.0)
        assert not budget.affords_sleep(0.0)  # nothing left at all

    def test_backoff_never_sleeps_budget_to_exhaustion(self):
        # Regression: a delay exactly equal to the remaining budget used
        # to be "affordable", so the retrier slept the budget to zero and
        # the next attempt's require() raised an *uncaused* deadline
        # error after the time was already burned.  The refusal must now
        # happen before the sleep, chained from the transient failure.
        clock = VirtualClock()
        retrier = Retrier(
            RetryConfig(max_attempts=5, base_delay=1.0, jitter=0.0), clock
        )
        budget = DeadlineBudget(1.0, clock, scope="query")
        with pytest.raises(DeadlineExceededError) as info:
            retrier.call(_Flaky(failures=10), budgets=(budget,))
        assert info.value.scope == "query"
        assert isinstance(info.value.__cause__, TransientSourceError)
        assert clock.sleeps == []

    def test_budget_exhausted_during_attempt_refuses_without_sleeping(self):
        # The attempt itself can consume the whole budget (a slow probe
        # under a SystemClock).  The follow-up backoff must refuse with
        # the causal chain intact rather than sleeping past the deadline.
        clock = VirtualClock()

        def slow_then_transient():
            clock.advance(1.5)
            raise TransientProbeError()

        retrier = Retrier(
            RetryConfig(max_attempts=5, base_delay=0.01, jitter=0.0), clock
        )
        budget = DeadlineBudget(1.0, clock, scope="probe")
        with pytest.raises(DeadlineExceededError) as info:
            retrier.call(slow_then_transient, budgets=(budget,))
        assert isinstance(info.value.__cause__, TransientSourceError)
        assert clock.sleeps == []

    def test_budget_spanning_retries_expires_between_attempts(self):
        clock = VirtualClock()
        retrier = Retrier(
            RetryConfig(max_attempts=10, base_delay=0.6, jitter=0.0), clock
        )
        budget = DeadlineBudget(1.0, clock, scope="query")
        with pytest.raises(DeadlineExceededError):
            retrier.call(_Flaky(failures=10), budgets=(budget,))
        # 0.6 affordable, cumulative 1.2 is not: exactly one sleep ran.
        assert clock.sleeps == [pytest.approx(0.6)]


class TestDeadlineScopeThreadIsolation:
    def test_scope_is_invisible_to_other_threads(self, car_webdb):
        import threading

        from repro.db import Eq, SelectionQuery
        from repro.resilience import (
            DeadlineExceededError as Expired,
            ResiliencePolicy,
            ResilientWebDatabase,
        )

        clock = VirtualClock()
        guarded = ResilientWebDatabase(
            car_webdb,
            ResiliencePolicy(query_deadline_seconds=1.0),
            clock=clock,
        )
        probe = SelectionQuery((Eq("Make", "Toyota"),))
        expired_scope_open = threading.Event()
        other_thread_done = threading.Event()
        outcome = {}

        def holder():
            with guarded.deadline_scope():
                clock.advance(2.0)  # this thread's budget is now expired
                try:
                    guarded.count(probe)
                except Expired:
                    outcome["holder"] = "expired"
                expired_scope_open.set()
                other_thread_done.wait(timeout=10)

        def prober():
            expired_scope_open.wait(timeout=10)
            # Concurrent session on the same facade: the holder's
            # expired budget must not leak into this thread.
            outcome["prober"] = guarded.count(probe)
            other_thread_done.set()

        threads = [
            threading.Thread(target=holder),
            threading.Thread(target=prober),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert outcome["holder"] == "expired"
        assert isinstance(outcome["prober"], int)


class _SlowFailingSource:
    """Every probe takes ``seconds`` of virtual time, then fails."""

    def __init__(self, clock, seconds):
        self.clock = clock
        self.seconds = seconds
        self.attempts = 0

    def query(self, query, limit=None, offset=0):
        self.attempts += 1
        self.clock.advance(self.seconds)
        raise TransientProbeError()


class TestObservabilityPostures:
    """The guarded path is one path: observability never changes it."""

    @staticmethod
    def _guarded_outcome():
        from repro.db import Eq, SelectionQuery
        from repro.resilience import ResiliencePolicy, ResilientWebDatabase

        clock = VirtualClock()
        source = _SlowFailingSource(clock, seconds=0.4)
        guarded = ResilientWebDatabase(
            source,  # type: ignore[arg-type]
            ResiliencePolicy(
                retry=RetryConfig(base_delay=0.01),
                probe_deadline_seconds=1.0,
                breaker_failure_threshold=None,
            ),
            clock=clock,
        )
        with pytest.raises((TransientSourceError, DeadlineExceededError)) as info:
            guarded.query(SelectionQuery((Eq("Make", "Ford"),)))
        return (
            source.attempts,
            guarded.retrier.retries,
            clock.monotonic(),
            clock.sleeps,
            info.type.__name__,
        )

    def test_same_attempts_retries_and_clock_in_every_posture(self, monkeypatch):
        from repro.obs import OBS

        outcomes = {"off": self._guarded_outcome()}
        monkeypatch.setattr(OBS.events, "enabled", True)
        outcomes["events"] = self._guarded_outcome()
        monkeypatch.setattr(OBS, "enabled", True)
        try:
            outcomes["tracing"] = self._guarded_outcome()
        finally:
            OBS.reset()
        assert outcomes["events"] == outcomes["off"]
        assert outcomes["tracing"] == outcomes["off"]
        attempts, retries, now, _, error = outcomes["off"]
        # The probe budget starts before attempt one: a third 0.4 s
        # attempt starts inside the 1 s budget, a fourth would not.
        assert (attempts, retries, error) == (3, 2, "DeadlineExceededError")
        assert 1.2 <= now < 1.3
