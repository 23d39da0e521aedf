"""Oracle for base-tuple scoring (``repro.core.similarity``).

The engine scored every extracted tuple in full with
``BindingsScorer.__call__`` and then dropped it when the score was
``≤ T_sim``.  It now scores through ``BoundedScorer.score_above``,
which stops on a tuple as soon as it provably cannot clear ``T_sim``
(docs/PERFORMANCE.md §4).  :func:`uncut_engine` restores the full
scoring on a copy of an engine.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.core.engine import AIMQEngine
from repro.core.similarity import BindingsScorer, TupleSimilarity


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
