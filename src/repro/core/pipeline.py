"""Offline build pipeline: probe → mine dependencies → mine similarities.

Mirrors the AIMQ architecture (paper Figure 1): the Data Collector
probes the autonomous source, the Dependency Miner derives the attribute
ordering, and the Similarity Miner — reusing the importance weights —
estimates categorical value similarities.  The resulting
:class:`AIMQModel` bundles everything the online engine needs, plus the
wall-clock timing breakdown that Table 2 reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.afd.model import DependencyModel
from repro.afd.tane import TaneMiner
from repro.core.attribute_order import AttributeOrdering, compute_attribute_ordering
from repro.core.config import AIMQSettings
from repro.core.engine import AIMQEngine
from repro.core.relaxation import RandomRelax, _RelaxerBase
from repro.db import AutonomousWebDatabase, Table
from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS, timed_phase
from repro.resilience import Clock, ResiliencePolicy
from repro.sampling.collector import CollectionReport, collect_sample
from repro.simmining.estimator import SimilarityModel, ValueSimilarityMiner

__all__ = ["BuildTimings", "AIMQModel", "build_model", "build_model_from_sample"]

PHASE_SECONDS = MetricSpec(
    "repro_core_pipeline_phase_seconds",
    "histogram",
    "Wall-clock seconds per offline pipeline phase.",
    labels=("phase",),
)


@dataclass
class BuildTimings:
    """Seconds spent in each offline phase (Table 2's AIMQ rows)."""

    probing_seconds: float = 0.0
    dependency_mining_seconds: float = 0.0
    supertuple_seconds: float = 0.0
    similarity_estimation_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.probing_seconds
            + self.dependency_mining_seconds
            + self.supertuple_seconds
            + self.similarity_estimation_seconds
        )


@dataclass
class AIMQModel:
    """Everything the online engine needs, mined from one sample."""

    sample: Table
    dependencies: DependencyModel
    ordering: AttributeOrdering
    value_similarity: SimilarityModel
    settings: AIMQSettings
    timings: BuildTimings = field(default_factory=BuildTimings)
    collection_report: CollectionReport | None = None
    numeric_extents: dict[str, tuple[float, float]] = field(default_factory=dict)

    def engine(
        self,
        webdb: AutonomousWebDatabase,
        strategy: _RelaxerBase | None = None,
        resilience: "ResiliencePolicy | None" = None,
        clock: "Clock | None" = None,
    ) -> AIMQEngine:
        """Online engine over ``webdb`` (GuidedRelax unless overridden).

        Passing ``resilience`` wraps the facade in
        :class:`~repro.resilience.ResilientWebDatabase`, giving every
        probe of this engine retry/breaker/deadline protection.
        """
        return AIMQEngine(
            webdb=webdb,
            ordering=self.ordering,
            value_similarity=self.value_similarity,
            settings=self.settings,
            strategy=strategy,
            numeric_extents=self.numeric_extents,
            resilience=resilience,
            clock=clock,
        )

    def random_engine(
        self, webdb: AutonomousWebDatabase, seed: int = 0
    ) -> AIMQEngine:
        """Baseline engine using RandomRelax (paper §6.1)."""
        return self.engine(webdb, strategy=RandomRelax(seed=seed))


def build_model_from_sample(
    sample: Table,
    settings: AIMQSettings | None = None,
    key_criterion: str = "support",
) -> AIMQModel:
    """Mine all models from an already collected sample table."""
    settings = settings or AIMQSettings()
    timings = BuildTimings()

    # Phase durations come from span-backed timers: when observability
    # is enabled each phase is also a span (and a sample in the
    # ``repro_core_pipeline_phase_seconds`` histogram), so BuildTimings
    # and the trace report the same numbers by construction.
    with timed_phase(
        "pipeline.dependency_mining",
        histogram=PHASE_SECONDS,
        labels={"phase": "dependency_mining"},
    ) as mining_phase:
        dependencies = TaneMiner(settings.tane).mine(sample)
    timings.dependency_mining_seconds = mining_phase.elapsed_seconds

    ordering = compute_attribute_ordering(
        sample.schema, dependencies, key_criterion=key_criterion
    ).smoothed(settings.importance_smoothing)

    miner = ValueSimilarityMiner(
        config=settings.simmining,
        importance_weights=ordering.importance,
    )
    value_similarity = miner.mine(sample)
    timings.supertuple_seconds = miner.timings.supertuple_seconds
    timings.similarity_estimation_seconds = miner.timings.estimation_seconds
    if OBS.enabled:
        phases = OBS.registry.family(PHASE_SECONDS)
        phases.labels(phase="supertuple").observe(timings.supertuple_seconds)
        phases.labels(phase="similarity_estimation").observe(
            timings.similarity_estimation_seconds
        )

    extents: dict[str, tuple[float, float]] = {}
    for name in sample.schema.numeric_names:
        extent = sample.numeric_extent(name)
        if extent is not None:
            extents[name] = (float(extent[0]), float(extent[1]))

    return AIMQModel(
        sample=sample,
        dependencies=dependencies,
        ordering=ordering,
        value_similarity=value_similarity,
        settings=settings,
        timings=timings,
        numeric_extents=extents,
    )


def build_model(
    webdb: AutonomousWebDatabase,
    sample_size: int,
    rng: random.Random | None = None,
    settings: AIMQSettings | None = None,
    spanning_attribute: str | None = None,
    key_criterion: str = "support",
) -> AIMQModel:
    """Full offline pipeline against an autonomous source.

    Probes the source for a ``sample_size`` random sample, then mines
    dependencies, the attribute ordering and value similarities.
    """
    rng = rng or random.Random(0)
    with OBS.span("pipeline.build_model", sample_size=sample_size):
        with timed_phase(
            "pipeline.probing",
            histogram=PHASE_SECONDS,
            labels={"phase": "probing"},
        ) as probing_phase:
            sample, report = collect_sample(
                webdb, sample_size, rng, spanning_attribute=spanning_attribute
            )

        model = build_model_from_sample(
            sample, settings=settings, key_criterion=key_criterion
        )
    model.timings.probing_seconds = probing_phase.elapsed_seconds
    model.collection_report = report
    return model
