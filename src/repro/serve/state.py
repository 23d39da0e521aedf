"""Server state: load the mined artifacts once, swap them atomically.

The expensive offline artifacts — the source facade, the AFD/VSim
model (mined or loaded from a :mod:`repro.core.store` JSON file) — are
built by :func:`dataset_webdb` and :func:`load_or_build_model`, the
functions ``repro query``, ``repro trace``, ``repro stats`` and
``repro mine`` call too, so every answer served from this state is
bit-identical to the one-shot path.

Warm reload is crash-safe by construction: :meth:`ServeState.reload`
builds a complete new bundle *outside* the state lock (model mining
probes the source; nothing slow runs under a lock), then swaps the
reference in one locked assignment.  A reload that raises leaves the
previous bundle untouched and still serving.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any

from repro.core.config import AIMQSettings
from repro.core.pipeline import AIMQModel, build_model
from repro.core.store import load_model
from repro.datasets.cardb import cardb_webdb
from repro.datasets.census import census_webdb
from repro.db.webdb import AutonomousWebDatabase
from repro.evalx import census_settings
from repro.obs.runtime import OBS
from repro.serve.config import ServeConfig

__all__ = [
    "ModelBundle",
    "ServeState",
    "dataset_webdb",
    "load_or_build_model",
]


@dataclass(frozen=True)
class ModelBundle:
    """One immutable generation of serving state.

    Handlers snapshot the current bundle once per request and use it
    throughout, so a concurrent reload never mixes generations inside
    a single answer.
    """

    webdb: AutonomousWebDatabase
    model: AIMQModel
    generation: int


def dataset_webdb(dataset: str, rows: int, seed: int) -> AutonomousWebDatabase:
    """The source facade over ``rows`` synthetic rows of ``dataset``."""
    if dataset == "cardb":
        return cardb_webdb(rows, seed=seed)
    if dataset == "censusdb":
        return census_webdb(rows, seed=seed)[0]
    raise ValueError(f"unknown dataset {dataset!r}")


def load_or_build_model(
    webdb: AutonomousWebDatabase,
    dataset: str,
    sample: int,
    seed: int,
    model_path: str | None,
) -> AIMQModel:
    """The stored model at ``model_path``, else one mined from a
    ``sample``-row probe of ``webdb`` with the dataset's settings."""
    if model_path:
        return load_model(model_path, webdb.schema)
    if dataset == "censusdb":
        settings = census_settings(error_threshold=0.3)
    else:
        settings = AIMQSettings(max_relaxation_level=3)
    return build_model(
        webdb,
        sample_size=sample,
        rng=random.Random(seed + 1),
        settings=settings,
    )


def _build_bundle(config: ServeConfig, generation: int) -> ModelBundle:
    webdb = dataset_webdb(config.dataset, config.rows, config.seed)
    if config.probe_cache_capacity > 0:
        # The shared, admission-bounded probe cache: repeats across
        # concurrent sessions are served locally.  It is on before the
        # model build, so sampling probes pass through it too.  A cold
        # cache charges nothing and changes nothing, so first-touch
        # answers remain bit-identical to the cache-less CLI path.
        webdb.enable_probe_cache(config.probe_cache_capacity)
    model = load_or_build_model(
        webdb, config.dataset, config.sample, config.seed, config.model_path
    )
    return ModelBundle(webdb=webdb, model=model, generation=generation)


class ServeState:
    """Holds the current :class:`ModelBundle` behind an atomic swap."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._bundle: ModelBundle | None = None
        self._reloads = 0
        self._reload_failures = 0

    @classmethod
    def load(cls, config: ServeConfig) -> "ServeState":
        """Build the first generation eagerly (server start)."""
        state = cls(config)
        state.reload()
        return state

    # -- access ------------------------------------------------------------

    def current(self) -> ModelBundle:
        with self._lock:
            if self._bundle is None:
                raise RuntimeError("serve state not loaded yet")
            return self._bundle

    @property
    def ready(self) -> bool:
        with self._lock:
            return self._bundle is not None

    # -- warm reload -------------------------------------------------------

    def reload(self) -> ModelBundle:
        """Build a fresh bundle and swap it in atomically.

        All mining/loading happens before the lock is taken; a failure
        propagates to the caller and the old bundle keeps serving.
        """
        with self._lock:
            generation = self._bundle.generation + 1 if self._bundle else 1
        try:
            bundle = _build_bundle(self.config, generation)
        except Exception:
            with self._lock:
                self._reload_failures += 1
            raise
        with self._lock:
            self._bundle = bundle
            self._reloads += 1
        if OBS.events.enabled:
            OBS.emit_event(
                "serve.state_reload",
                generation=generation,
                dataset=self.config.dataset,
                from_store=bool(self.config.model_path),
                trace_id=OBS.current_trace_id() or "",
            )
        return bundle

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain JSON-able state summary for ``/stats``."""
        with self._lock:
            bundle = self._bundle
            reloads = self._reloads
            failures = self._reload_failures
        payload: dict[str, Any] = {
            "ready": bundle is not None,
            "reloads": reloads,
            "reload_failures": failures,
            "dataset": self.config.dataset,
        }
        if bundle is not None:
            payload.update(
                generation=bundle.generation,
                relation=bundle.webdb.schema.name,
                rows=bundle.webdb.cardinality_hint(),
                sample_rows=len(bundle.model.sample),
            )
        return payload
