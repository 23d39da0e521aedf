"""Client-side resilience for probing autonomous Web sources.

The paper's model assumes sources that always answer; real Web forms
time out, throttle and go down.  This package supplies the client-side
machinery that keeps AIMQ useful against such sources — retry with
deterministic backoff, circuit breaking, deadline budgets, and
structured degradation — all measured against an injectable clock so
every schedule is reproducible under a seed.

Layering: this package sits beside ``repro.db`` (it knows the transient
error taxonomy and wraps the facade) and below everything that probes.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.budget import DeadlineBudget
from repro.resilience.clock import Clock, SystemClock, VirtualClock
from repro.resilience.degradation import DegradationReport, SkippedStep
from repro.resilience.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ResilienceError,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import Retrier, RetryConfig
from repro.resilience.source import (
    ResilientWebDatabase,
    preregister_resilience_metrics,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CircuitOpenError",
    "Clock",
    "DeadlineBudget",
    "DeadlineExceededError",
    "DegradationReport",
    "ResilienceError",
    "ResiliencePolicy",
    "ResilientWebDatabase",
    "Retrier",
    "RetryConfig",
    "SkippedStep",
    "SystemClock",
    "VirtualClock",
    "preregister_resilience_metrics",
]
