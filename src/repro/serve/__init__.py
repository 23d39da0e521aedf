"""AIMQ-as-a-service: the long-lived answering server (``repro serve``).

The serve layer composes the robustness primitives grown in PRs 4-7
into an overload-safe HTTP server: the mined AFD/VSim models are loaded
once (:mod:`repro.serve.state`), requests pass token-bucket admission
control with bounded queueing and load shedding
(:mod:`repro.serve.admission`), each admitted request answers through a
per-request resilience scope with pressure-shrunk budgets
(:mod:`repro.serve.session`), and SIGTERM drains gracefully
(:mod:`repro.serve.lifecycle`).  Served answers are bit-identical to
the one-shot ``repro query`` path — same :class:`AnswerSet`, same
:class:`DegradationReport`, same probe accounting.

Layering: ``repro.serve`` sits above ``repro.core`` and is imported by
``repro.cli`` only; nothing below imports serve (enforced by REP003).
See ``docs/SERVING.md`` for the endpoint and degradation contract.
"""

from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.app import AIMQServer, serve
from repro.serve.config import ServeConfig
from repro.serve.handlers import (
    Response,
    Router,
    answer_payload,
    preregister_serve_metrics,
)
from repro.serve.lifecycle import LifecycleController
from repro.serve.session import RequestSession, SessionBudgets, budgets_for
from repro.serve.state import ServeState

__all__ = [
    "AIMQServer",
    "AdmissionController",
    "AdmissionDecision",
    "LifecycleController",
    "RequestSession",
    "Response",
    "Router",
    "ServeConfig",
    "ServeState",
    "SessionBudgets",
    "answer_payload",
    "budgets_for",
    "preregister_serve_metrics",
    "serve",
]
