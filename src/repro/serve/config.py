"""One immutable knob-set for the whole serving stack.

:class:`ServeConfig` bundles everything ``repro serve`` needs: which
dataset/model to load, how the shared probe cache is sized, the
admission-control envelope (token bucket, queue bound, in-flight
concurrency), and the staged-degradation thresholds that shrink
per-request budgets under pressure.  Like
:class:`~repro.resilience.policy.ResiliencePolicy` it is frozen and
validated up front so a misconfigured server refuses to start instead
of misbehaving under load.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Configuration for one :class:`~repro.serve.app.AIMQServer`.

    Admission envelope
        ``max_inflight`` bounds concurrently answering requests;
        ``max_queue`` bounds requests waiting for a slot;
        ``queue_wait_seconds`` bounds how long a queued request waits
        before it is shed; ``rate``/``burst`` shape the token bucket
        (``rate=0`` disables throttling).  Shed responses carry
        ``Retry-After: retry_after_seconds``.

    Staged degradation
        Once in-flight utilisation reaches ``pressure_threshold`` the
        request still runs, but under shrunken budgets: the per-query
        deadline drops to ``pressured_deadline_seconds`` and at most
        ``pressured_probe_cap`` source probes may be issued — the
        engine then returns a *partial* answer with a
        :class:`~repro.resilience.degradation.DegradationReport`
        instead of an error.
    """

    # -- binding ----------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 8080

    # -- model / source ---------------------------------------------------
    dataset: str = "cardb"
    rows: int = 2_000
    sample: int = 500
    seed: int = 7
    model_path: str | None = None
    probe_cache_capacity: int = 4_096

    # -- answering defaults (mirror the ``repro query`` flags) ------------
    default_k: int = 10
    max_k: int = 200
    resilient: bool = True

    # -- admission envelope ----------------------------------------------
    max_inflight: int = 8
    max_queue: int = 16
    queue_wait_seconds: float = 2.0
    rate: float = 0.0
    burst: int = 1
    retry_after_seconds: float = 1.0

    # -- staged degradation ----------------------------------------------
    pressure_threshold: float = 0.75
    query_deadline_seconds: float | None = None
    pressured_deadline_seconds: float = 2.0
    pressured_probe_cap: int = 64

    # -- lifecycle --------------------------------------------------------
    drain_seconds: float = 5.0
    events_out: str | None = None

    def __post_init__(self) -> None:
        if self.dataset not in ("cardb", "censusdb"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.rows < 1 or self.sample < 1:
            raise ValueError("rows and sample must be positive")
        if self.probe_cache_capacity < 0:
            raise ValueError("probe_cache_capacity cannot be negative")
        if self.default_k < 1 or self.max_k < self.default_k:
            raise ValueError("need 1 <= default_k <= max_k")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.max_queue < 0:
            raise ValueError("max_queue cannot be negative")
        if self.queue_wait_seconds < 0:
            raise ValueError("queue_wait_seconds cannot be negative")
        if self.rate < 0:
            raise ValueError("rate cannot be negative")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")
        if not 0.0 < self.pressure_threshold <= 1.0:
            raise ValueError("pressure_threshold must be in (0, 1]")
        if (
            self.query_deadline_seconds is not None
            and self.query_deadline_seconds <= 0
        ):
            raise ValueError("query_deadline_seconds must be positive (or None)")
        if self.pressured_deadline_seconds <= 0:
            raise ValueError("pressured_deadline_seconds must be positive")
        if self.pressured_probe_cap < 1:
            raise ValueError("pressured_probe_cap must be at least 1")
        if self.drain_seconds < 0:
            raise ValueError("drain_seconds cannot be negative")
