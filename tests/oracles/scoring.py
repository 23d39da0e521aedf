"""Oracles for query–tuple scoring (``repro.core.similarity``).

The per-call reference scorer: :func:`sim_to_bindings`,
:func:`sim_to_query` and :func:`sim_between_rows` recompute the
renormalised weights, column positions and value similarities on every
call.  The engine scores through one compiled plan per reference
binding set instead (``TupleSimilarity.bindings_scorer`` and its
relatives), which performs the identical floating-point operations in
the identical order; ``tests/core/test_similarity.py::TestCompiledScorers``
holds the two bit-for-bit equal.

The engine also scored every extracted tuple in full with
``BindingsScorer.__call__`` and then dropped it when the score was
``≤ T_sim``.  It now scores through ``BoundedScorer.score_above``,
which stops on a tuple as soon as it provably cannot clear ``T_sim``
(docs/PERFORMANCE.md §4).  :func:`uncut_engine` restores the full
scoring on a copy of an engine.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

from repro.core.engine import AIMQEngine
from repro.core.query import ImpreciseQuery
from repro.core.similarity import (
    BindingsScorer,
    TupleSimilarity,
    numeric_similarity,
    range_scaled_similarity,
)


def sim_to_bindings(
    similarity: TupleSimilarity,
    bindings: Mapping[str, object],
    row: Sequence[object],
) -> float:
    """Sim(reference bindings, row) with weights over the bindings."""
    attributes = tuple(bindings)
    if not attributes:
        return 0.0
    weights = similarity.ordering.weights_over(attributes)
    total = 0.0
    for attribute, reference in bindings.items():
        weight = weights[attribute]
        if weight == 0.0:
            continue
        candidate = row[similarity.schema.position(attribute)]
        total += weight * attribute_similarity(
            similarity, attribute, reference, candidate
        )
    return total


def sim_to_query(
    similarity: TupleSimilarity, query: ImpreciseQuery, row: Sequence[object]
) -> float:
    """Sim(Q, t) over the query's *like* constraints."""
    bindings = {
        constraint.attribute: constraint.value
        for constraint in query.like_constraints
    }
    if not bindings:
        return 0.0
    return sim_to_bindings(similarity, bindings, row)


def sim_between_rows(
    similarity: TupleSimilarity,
    reference_row: Sequence[object],
    candidate_row: Sequence[object],
    attributes: tuple[str, ...] | None = None,
) -> float:
    """Sim with a base-set tuple as the reference (Alg. 1 step 7)."""
    schema = similarity.schema
    names = attributes if attributes is not None else schema.attribute_names
    bindings = {
        name: reference_row[schema.position(name)]
        for name in names
        if reference_row[schema.position(name)] is not None
    }
    return sim_to_bindings(similarity, bindings, candidate_row)


def attribute_similarity(
    similarity: TupleSimilarity,
    attribute: str,
    reference: object,
    candidate: object,
) -> float:
    """One attribute's similarity term; None on either side scores 0."""
    if candidate is None or reference is None:
        return 0.0
    if similarity.schema.attribute(attribute).is_numeric:
        extent = (
            similarity.numeric_extents.get(attribute)
            if similarity.numeric_mode == "range"
            else None
        )
        if extent is not None:
            return range_scaled_similarity(
                float(reference), float(candidate), extent[0], extent[1]  # type: ignore[arg-type]
            )
        return numeric_similarity(float(reference), float(candidate))  # type: ignore[arg-type]
    return similarity.value_similarity.similarity(
        attribute, str(reference), str(candidate)
    )


class UncutScorer:
    """``score_above`` that never cuts: the full score of every row."""

    def __init__(self, scorer: BindingsScorer) -> None:
        self._scorer = scorer

    def score_above(self, row: Sequence[object]) -> float:
        return self._scorer(row)


class UncutSimilarity(TupleSimilarity):
    """Hands out :class:`UncutScorer` where the engine asks for a cut."""

    def bounded_row_scorer(
        self,
        reference_row: Sequence[object],
        threshold: float,
        attributes: tuple[str, ...] | None = None,
    ) -> UncutScorer:  # type: ignore[override]
        return UncutScorer(self.row_scorer(reference_row, attributes))


def uncut_engine(engine: AIMQEngine) -> AIMQEngine:
    """A copy of ``engine`` whose expansion scores every tuple in full.

    The copy shares the source, ordering, strategy and mapper; the
    engine's own ``≤ T_sim`` check then drops the tuples the cut would
    have stopped early.
    """
    similarity = engine.similarity
    oracle = copy.copy(engine)
    oracle.similarity = UncutSimilarity(
        similarity.schema,
        similarity.ordering,
        similarity.value_similarity,
        numeric_mode=similarity.numeric_mode,
        numeric_extents=similarity.numeric_extents,
    )
    return oracle
