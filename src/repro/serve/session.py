"""Per-request context: budgets, resilience scope, probe cap.

Degradation stage two lives here.  Every admitted request gets a
:class:`SessionBudgets` derived from the pressure observed at
admission: under normal load the budgets are the configured defaults
(usually unlimited), but once in-flight utilisation crosses
``pressure_threshold`` the per-query deadline shrinks and a per-request
probe cap switches on.  The engine already knows how to degrade under
both — it returns a *partial* :class:`~repro.core.results.AnswerSet`
with a :class:`~repro.resilience.degradation.DegradationReport` — so a
pressured request still answers, just with less source work behind it.

The probe cap is enforced by :class:`BudgetedSource`, a thin
per-request proxy over the shared facade.  Cache hits never charge the
cap (matching the facade's own budget semantics), so cached traffic
stays cheap even under pressure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Any, cast

from repro.core.query import ImpreciseQuery
from repro.core.results import AnswerSet
from repro.db import (
    AutonomousWebDatabase,
    ProbeLimitExceededError,
    QueryResult,
    SelectionQuery,
)
from repro.resilience import Clock, ResiliencePolicy
from repro.serve.admission import AdmissionController
from repro.serve.config import ServeConfig
from repro.serve.state import ModelBundle

__all__ = ["BudgetedSource", "RequestSession", "SessionBudgets", "budgets_for"]


@dataclass(frozen=True)
class SessionBudgets:
    """The resource envelope of one admitted request."""

    query_deadline_seconds: float | None
    probe_cap: int | None
    pressured: bool


def budgets_for(config: ServeConfig, pressure: float) -> SessionBudgets:
    """Derive one request's budgets from the admission-time pressure."""
    if pressure >= config.pressure_threshold:
        deadline = config.pressured_deadline_seconds
        if config.query_deadline_seconds is not None:
            deadline = min(deadline, config.query_deadline_seconds)
        return SessionBudgets(
            query_deadline_seconds=deadline,
            probe_cap=config.pressured_probe_cap,
            pressured=True,
        )
    return SessionBudgets(
        query_deadline_seconds=config.query_deadline_seconds,
        probe_cap=None,
        pressured=False,
    )


class BudgetedSource:
    """Per-request probe cap over the shared facade.

    Counts source-reaching probes issued through *this* request and
    raises :class:`~repro.db.errors.ProbeLimitExceededError` once the
    cap is reached — the same permanent error the facade's own global
    budget raises, so the engine's degradation path handles it
    unchanged.  Results served from the shared probe cache are free.
    Everything that is not probing delegates to the shared facade
    verbatim.
    """

    def __init__(self, inner: AutonomousWebDatabase, probe_cap: int) -> None:
        self._serve_inner = inner
        self._probe_cap = probe_cap
        self._issued_lock = threading.Lock()
        self._issued = 0

    @property
    def probes_issued(self) -> int:
        with self._issued_lock:
            return self._issued

    def _check_cap(self) -> None:
        with self._issued_lock:
            issued = self._issued
        if issued >= self._probe_cap:
            raise ProbeLimitExceededError(self._probe_cap, probes_issued=issued)

    def _charge(self) -> None:
        with self._issued_lock:
            self._issued += 1

    def query(
        self,
        query: SelectionQuery,
        limit: int | None = None,
        offset: int = 0,
    ) -> QueryResult:
        self._check_cap()
        result = self._serve_inner.query(query, limit=limit, offset=offset)
        if not result.from_cache:
            self._charge()
        return result

    def count(self, query: SelectionQuery) -> int:
        self._check_cap()
        matches = self._serve_inner.count(query)
        self._charge()
        return matches

    def __getattr__(self, name: str) -> Any:
        return getattr(self._serve_inner, name)


class RequestSession:
    """One admitted request's answering context.

    Builds a fresh :class:`~repro.core.engine.AIMQEngine` over the
    shared state — exactly the way the ``repro query`` CLI does, which
    is what makes served answers bit-identical — wrapped in the
    request's own resilience scope and probe cap.  Used as a context
    manager so the admission slot is always released, even when the
    handler raises.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        config: ServeConfig,
        budgets: SessionBudgets,
        admission: AdmissionController | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.bundle = bundle
        self.budgets = budgets
        self._admission = admission
        self._released = False
        source: AutonomousWebDatabase = bundle.webdb
        self.budgeted: BudgetedSource | None = None
        if budgets.probe_cap is not None:
            self.budgeted = BudgetedSource(source, budgets.probe_cap)
            source = cast(AutonomousWebDatabase, self.budgeted)
        resilience: ResiliencePolicy | None = None
        if config.resilient or budgets.query_deadline_seconds is not None:
            resilience = ResiliencePolicy(
                query_deadline_seconds=budgets.query_deadline_seconds
            )
        self.engine = bundle.model.engine(
            source, resilience=resilience, clock=clock
        )

    def answer(self, query: ImpreciseQuery, k: int) -> AnswerSet:
        return self.engine.answer(query, k=k)

    # -- context management ------------------------------------------------

    def __enter__(self) -> "RequestSession":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def release(self) -> None:
        """Return the admission slot (idempotent)."""
        if self._released or self._admission is None:
            return
        self._released = True
        self._admission.release()
