"""Structured degradation: what a partial answer is missing, and why.

When the source fails mid-relaxation the engine no longer throws away
the tuples it has already retrieved and ranked — it returns them as a
*degraded* answer and attaches a :class:`DegradationReport` describing
exactly which steps of Algorithm 1 were skipped and for which fault.
Downstream consumers (CLI, evalx reports) render the report; nothing is
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db import ProbeLimitExceededError, TransientSourceError
from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS
from repro.resilience.errors import CircuitOpenError, DeadlineExceededError

__all__ = ["SkippedStep", "DegradationReport"]

SKIPPED_STEPS = MetricSpec(
    "repro_resilience_skipped_steps_total",
    "counter",
    "Relaxation work abandoned after resilience gave up, by stage and error kind.",
    labels=("stage", "error"),
)


@dataclass(frozen=True)
class SkippedStep:
    """One piece of Algorithm 1 that was abandoned.

    ``stage`` is where the failure hit (``base_query`` — the precise
    query mapping, ``relaxation`` — one relaxation probe,
    ``expansion`` — the remainder of a base tuple's expansion, or
    ``answer`` — the remainder of the whole call); ``error_kind`` the
    exception class that caused it.
    """

    stage: str
    reason: str
    error_kind: str
    base_row_id: int | None = None
    level: int | None = None

    def describe(self) -> str:
        where = self.stage
        if self.base_row_id is not None:
            where += f"[base row {self.base_row_id}]"
        if self.level is not None:
            where += f"@level {self.level}"
        return f"{where}: {self.reason} ({self.error_kind})"


@dataclass
class DegradationReport:
    """Everything an answer lost to source failures.

    ``budget_exhausted`` / ``breaker_open`` / ``deadline_exceeded``
    flag the terminal condition that (if any) aborted the whole call;
    ``probes_failed`` counts probes that failed past all resilience
    (each one produced a skipped step).
    """

    skipped: list[SkippedStep] = field(default_factory=list)
    budget_exhausted: bool = False
    breaker_open: bool = False
    deadline_exceeded: bool = False
    probes_failed: int = 0
    retries_used: int = 0
    breaker_opens: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.skipped)

    def record(
        self,
        stage: str,
        error: BaseException,
        base_row_id: int | None = None,
        level: int | None = None,
    ) -> SkippedStep:
        """Account one skipped step caused by ``error``."""
        if isinstance(error, ProbeLimitExceededError):
            self.budget_exhausted = True
            reason = (
                f"probe budget exhausted "
                f"({error.probes_issued}/{error.budget} probes)"
            )
        elif isinstance(error, CircuitOpenError):
            self.breaker_open = True
            reason = "circuit breaker open"
        elif isinstance(error, DeadlineExceededError):
            self.deadline_exceeded = True
            reason = f"{error.scope} deadline exceeded"
        elif isinstance(error, TransientSourceError):
            reason = "transient failures outlasted the retry allowance"
        else:
            reason = str(error) or type(error).__name__
        self.probes_failed += 1
        step = SkippedStep(
            stage=stage,
            reason=reason,
            error_kind=type(error).__name__,
            base_row_id=base_row_id,
            level=level,
        )
        self.skipped.append(step)
        if OBS.enabled:
            OBS.registry.family(SKIPPED_STEPS).labels(
                stage=stage, error=step.error_kind
            ).inc()
        return step

    def summary(self) -> str:
        """One-paragraph human rendering for CLI and report appendices."""
        if not self.degraded:
            return "answer complete: no degradation"
        flags = []
        if self.budget_exhausted:
            flags.append("probe budget exhausted")
        if self.breaker_open:
            flags.append("circuit breaker open")
        if self.deadline_exceeded:
            flags.append("deadline exceeded")
        lines = [
            f"DEGRADED answer: {len(self.skipped)} step(s) skipped"
            + (f" — {', '.join(flags)}" if flags else "")
        ]
        for step in self.skipped[:8]:
            lines.append(f"  - {step.describe()}")
        if len(self.skipped) > 8:
            lines.append(f"  ... and {len(self.skipped) - 8} more")
        if self.retries_used:
            lines.append(f"  retries used: {self.retries_used}")
        if self.breaker_opens:
            lines.append(f"  breaker opened: {self.breaker_opens}x")
        return "\n".join(lines)
