"""The engine's T_sim cut changes no answer.

``answer`` and ``gather_similar`` score every extracted tuple with
``BoundedScorer.score_above``.  At every threshold of the paper's
sweep they must return the identical answers, scores and
``RelaxationTrace`` as an engine that scores every tuple in full
(``tests/oracles/scoring.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model
from repro.core.query import ImpreciseQuery
from repro.datasets.cardb import generate_cardb
from repro.db.webdb import AutonomousWebDatabase
from repro.obs import OBS
from tests.oracles.scoring import uncut_engine

THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)


@pytest.fixture(scope="module")
def engines():
    table = generate_cardb(2_000, seed=11)
    webdb = AutonomousWebDatabase(table)
    model = build_model(
        webdb,
        sample_size=500,
        rng=random.Random(12),
        settings=AIMQSettings(max_relaxation_level=3),
    )
    engine = model.engine(webdb)
    seeds = [(row_id, table.row(row_id)) for row_id in (3, 404, 1_234, 1_999)]
    return engine, uncut_engine(engine), model, seeds


def _queries(model) -> list[ImpreciseQuery]:
    schema = model.sample.schema
    queries = [ImpreciseQuery.like(schema.name, Make="Ford")]
    for index in (0, 97, 211):
        row = model.sample.row(index)
        bindings = {
            name: row[schema.position(name)]
            for name in ("Model", "Price", "Location")
            if row[schema.position(name)] is not None
        }
        queries.append(ImpreciseQuery.like(schema.name, **bindings))
    return queries


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_answer_matches_the_uncut_oracle(engines, threshold):
    engine, oracle, model, _ = engines
    for query in _queries(model):
        cut = engine.answer(query, k=25, similarity_threshold=threshold)
        full = oracle.answer(query, k=25, similarity_threshold=threshold)
        assert cut.answers  # a vacuous comparison would prove nothing
        assert cut.answers == full.answers
        assert cut.trace == full.trace


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_gather_similar_matches_the_uncut_oracle(engines, threshold):
    engine, oracle, _, seeds = engines
    for row_id, row in seeds:
        cut = engine.gather_similar(
            row, similarity_threshold=threshold, target=20, row_id=row_id
        )
        full = oracle.gather_similar(
            row, similarity_threshold=threshold, target=20, row_id=row_id
        )
        assert cut == full


def test_cut_rows_are_counted_instead_of_scored(engines):
    engine, _, _, seeds = engines
    OBS.reset()
    OBS.enable()
    try:
        extracted = 0
        for row_id, row in seeds:
            _, trace = engine.gather_similar(
                row, similarity_threshold=0.9, target=20, row_id=row_id
            )
            extracted += trace.tuples_extracted
        scored = OBS.registry.get("repro_core_similarity_score").unlabelled().count
        cut = OBS.registry.get("repro_core_similarity_cut_total").unlabelled().value
    finally:
        OBS.disable()
        OBS.reset()
    assert cut > 0
    assert scored + cut == extracted
