"""Ablation — importance-weight smoothing (λ).

DESIGN.md calls out the smoothing blend W' = (1−λ)W + λ/n as a
reproduction-specific safeguard: pure Algorithm 2 weights can be
*exactly zero* for attributes untouched by any mined AFD, which makes
the similarity function blind to those columns.  This ablation shows

* λ=0 reproduces the raw Algorithm 2 weights (zeros included),
* λ=0.3 (default) floors every attribute while preserving the ranking,
* λ=1 collapses to uniform,

and measures the ranking quality of each against the hidden catalogue
taste on a shared random candidate pool.
"""

import random

from repro.core.attribute_order import uniform_ordering
from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model_from_sample
from repro.core.similarity import TupleSimilarity
from repro.datasets.cardb import generate_cardb
from repro.evalx.metrics import paper_mrr
from repro.evalx.userstudy import CarGroundTruth
from repro.sampling.collector import nested_samples

CAR_ROWS = 8000
SAMPLE_ROWS = 2500
N_QUERIES = 25
POOL = 400


def _ranking_mrr(scorer, table, ground_truth, rng) -> float:
    schema = table.schema
    mrrs = []
    for _ in range(N_QUERIES):
        query_id = rng.randrange(len(table))
        row = table.row(query_id)
        reference = schema.row_to_mapping(row)
        candidates = rng.sample(range(len(table)), POOL)
        score = scorer.row_scorer(row)
        top = sorted(candidates, key=lambda i: -score(table.row(i)))[:10]
        scores = [ground_truth.score(reference, table.row(i)) for i in top]
        order = sorted(range(10), key=lambda i: -scores[i])
        ranks = [0] * 10
        for rank, index in enumerate(order, start=1):
            if scores[index] >= 0.25:
                ranks[index] = rank
        mrrs.append(paper_mrr(ranks))
    return sum(mrrs) / len(mrrs)


def test_ablation_importance_smoothing(benchmark, record_result):
    def build():
        table = generate_cardb(CAR_ROWS, seed=7)
        sample = nested_samples(table, [SAMPLE_ROWS], random.Random(8))[
            SAMPLE_ROWS
        ]
        model = build_model_from_sample(
            sample, settings=AIMQSettings(importance_smoothing=0.0)
        )
        return table, model

    table, model = benchmark.pedantic(build, rounds=1, iterations=1)
    ground_truth = CarGroundTruth(table.schema)
    raw = model.ordering  # λ=0 (built with smoothing disabled)
    smoothed = raw.smoothed(0.3)
    flat = uniform_ordering(table.schema)

    results = {}
    for name, ordering in (("raw λ=0", raw), ("λ=0.3", smoothed), ("uniform", flat)):
        scorer = TupleSimilarity(table.schema, ordering, model.value_similarity)
        results[name] = _ranking_mrr(
            scorer, table, ground_truth, random.Random(77)
        )

    lines = ["Ablation — importance smoothing (rank agreement vs hidden taste)"]
    for name, value in results.items():
        lines.append(f"  {name:<10} MRR {value:.3f}")
    zero_attrs = [n for n, w in raw.importance.items() if w == 0.0]
    lines.append(f"  zero-weight attributes at λ=0: {zero_attrs}")
    record_result("ablation_smoothing", "\n".join(lines))

    # λ=0.3 must fix the zero-weight blindness without losing ranking
    # quality relative to raw Algorithm 2 weights.
    floored = raw.smoothed(0.3)
    assert all(w > 0 for w in floored.importance.values())
    assert results["λ=0.3"] >= results["raw λ=0"] - 0.02
    # Mined weights (any λ < 1) must beat uniform on diverse pools.
    assert results["λ=0.3"] > results["uniform"]
