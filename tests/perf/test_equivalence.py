"""Fast-path equivalence properties.

The performance layer's contract is that every fast path is *result
equivalent* to its reference path: answering with the probe cache on
returns the identical :class:`AnswerSet`; only the probe accounting
differs.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model
from repro.core.query import ImpreciseQuery
from repro.datasets.cardb import generate_cardb
from repro.db.webdb import AutonomousWebDatabase

# -- probe cache on/off -------------------------------------------------------


@pytest.fixture(scope="module")
def cache_setup():
    webdb = AutonomousWebDatabase(generate_cardb(1200, seed=5))
    model = build_model(
        webdb,
        sample_size=400,
        rng=random.Random(6),
        settings=AIMQSettings(max_relaxation_level=3),
    )
    webdb.reset_accounting()
    return webdb, model


def _sample_queries(webdb, model, count: int) -> list[ImpreciseQuery]:
    schema = webdb.schema
    sample = model.sample
    queries = []
    for index in range(count):
        row = sample.row((index * 97) % len(sample))
        bindings = {
            name: row[schema.position(name)]
            for name in ("Model", "Price", "Location")
            if row[schema.position(name)] is not None
        }
        queries.append(ImpreciseQuery.like(schema.name, **bindings))
    return queries


def test_probe_cache_preserves_answer_sets(cache_setup):
    webdb, model = cache_setup
    engine = model.engine(webdb)
    for query in _sample_queries(webdb, model, 4):
        webdb.disable_probe_cache()
        cold = engine.answer(query)
        webdb.enable_probe_cache()
        try:
            warm = engine.answer(query)
            hot = engine.answer(query)
        finally:
            webdb.disable_probe_cache()

        # Identical answers: same tuples, same scores, same order.
        assert cold.answers == warm.answers
        assert cold.answers == hot.answers
        # Only the probe accounting differs: with the cache off nothing
        # is ever served from it, with it on the same lookups happen
        # but repeats stop reaching the source.
        assert cold.trace.probes_cached == 0
        assert warm.trace.total_lookups == cold.trace.queries_issued
        assert hot.trace.total_lookups == cold.trace.queries_issued
        assert hot.trace.probes_cached > 0
        assert hot.trace.queries_issued < cold.trace.queries_issued


# -- obs_overhead scenario ---------------------------------------------------


def test_obs_overhead_scenario_proves_bit_identity():
    """events/tracing on never changes an answer, and both get recorded."""
    from repro.obs import OBS
    from repro.perf.bench import BenchScale, _Fixture, bench_obs_overhead

    scale = BenchScale(
        rows=300,
        sample=100,
        repeats=1,
        queries=1,
        candidates=100,
        top_k=5,
        score_rows=50,
        score_repeats=1,
    )
    result = bench_obs_overhead(scale, _Fixture(scale))
    assert result.name == "obs_overhead"
    assert result.equivalent is True
    assert result.details["events_recorded"] >= 1
    assert result.details["traces_recorded"] >= 1
    # The scenario restores the global runtime to the disabled posture.
    assert OBS.enabled is False
    assert OBS.events.enabled is False
