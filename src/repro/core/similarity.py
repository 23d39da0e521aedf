"""Query–tuple similarity estimation (paper §5).

    Sim(Q, t) = Σ_i W_imp(A_i) · sim_i    over Q's bound attributes,

where ``sim_i`` is the mined VSim for categorical attributes and the
relative numeric closeness ``1 − |Q.A_i − t.A_i| / |Q.A_i|`` (floored at
zero) for numeric ones.  Importance weights are renormalised over the
bound attributes so they sum to one regardless of how many attributes
the query binds.

The same machinery scores tuple-to-tuple similarity (Algorithm 1 step 7
compares extracted tuples to *base-set tuples*, not to the query), by
treating one tuple's values as the reference bindings.

Every score comes from one compiled plan per reference binding set:
the weight table, column positions and per-value similarity lookups
are resolved once and reused across every candidate row.
:class:`BindingsScorer` sums the plan over a row;
:class:`BoundedScorer` walks the same plan with Algorithm 1 step 7's
``T_sim`` cut built in and scores every extracted tuple.  The per-call
reference scorer, which recomputed everything on each call, is a test
oracle (``tests/oracles/scoring.py``) whose scores the compiled plan
equals bit for bit.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.core.attribute_order import AttributeOrdering
from repro.core.query import ImpreciseQuery
from repro.db import RelationSchema
from repro.floats import exact_eq
from repro.simmining.estimator import SimilarityModel

__all__ = [
    "numeric_similarity",
    "range_scaled_similarity",
    "TupleSimilarity",
    "BindingsScorer",
    "BoundedScorer",
]

#: Slack on the bounded scorer's cut.  The cut compares a rounded
#: running sum against a rounded bound, so a row is cut only when it
#: misses the threshold by a margin ~1e6× the worst-case rounding
#: error of a sum of at most a few dozen terms in [0, 1].
_CUT_SLACK = 1e-9


def numeric_similarity(reference: float, candidate: float) -> float:
    """Relative closeness of two numbers, clamped to [0, 1].

    Implements the paper's ``1 − (Q.A − t.A)/Q.A`` with the stated
    lower-bound guard ("if the distance > 1 we assume the distance to be
    1").  A zero reference cannot scale distances, so it matches only
    itself — the conservative reading.
    """
    if reference == 0:
        return 1.0 if candidate == 0 else 0.0
    distance = abs(reference - candidate) / abs(reference)
    return max(0.0, 1.0 - min(distance, 1.0))


def range_scaled_similarity(
    reference: float, candidate: float, low: float, high: float
) -> float:
    """L1 closeness scaled by the attribute's observed extent.

    The Lp-metric alternative the paper alludes to in §5 ("we can by
    default use a Lp distance metric such as Euclidean distance"):
    ``1 − |q − t| / (high − low)``.  Unlike the relative measure this
    is symmetric in absolute terms — a $500 gap costs the same at
    $5,000 as at $50,000 — which suits attributes whose meaning is
    additive (years, hours) better than multiplicative ones (prices).
    """
    if high <= low:
        # Values straight from the relation, never computed: exact
        # identity is the paper's semantics for a zero-width extent.
        return 1.0 if exact_eq(reference, candidate) else 0.0
    distance = abs(reference - candidate) / (high - low)
    return max(0.0, 1.0 - min(distance, 1.0))


class BindingsScorer:
    """Precompiled Sim(reference, ·) for one set of reference bindings.

    Holds a plan of ``(column position, weight, value scorer)`` triples
    resolved once; calling the scorer on a row walks the plan in the
    bindings' original order and adds one ``weight · similarity`` term
    per step.  Categorical value scorers memoise VSim lookups per
    candidate value.
    """

    __slots__ = ("_plan",)

    def __init__(
        self,
        plan: Sequence[tuple[int, float, Callable[[object], float]]],
    ) -> None:
        self._plan = tuple(plan)

    def __call__(self, row: Sequence[object]) -> float:
        total = 0.0
        for position, weight, value_score in self._plan:
            total += weight * value_score(row[position])
        return total


class BoundedScorer:
    """Sim(reference, ·) with the ``T_sim`` cut of Algorithm 1 step 7.

    Walks the same ``(column position, weight, value scorer)`` plan as
    :class:`BindingsScorer`, adding each exact term in the same order,
    and gives up on a row as soon as the running sum plus the weights
    of the terms still to come is ≤ ``threshold − 1e-9``.  Every term
    is ``weight · s`` with ``weight ≥ 0`` and ``s ∈ [0, 1]``, so the
    unseen terms add at most their weights and a cut row scores at
    most the threshold.  A row that is not cut gets the exact sum,
    bit-identical to :meth:`BindingsScorer.__call__`.
    """

    __slots__ = ("_plan",)

    def __init__(
        self,
        plan: Sequence[tuple[int, float, Callable[[object], float]]],
        threshold: float,
    ) -> None:
        # Each term carries its cut: the running sum after it must
        # exceed threshold − slack − (weights of the later terms).
        steps: list[tuple[int, float, Callable[[object], float], float]] = []
        remaining = 0.0
        for position, weight, value_score in reversed(plan):
            steps.append(
                (position, weight, value_score, threshold - _CUT_SLACK - remaining)
            )
            remaining += weight
        self._plan = tuple(reversed(steps))

    def score_above(self, row: Sequence[object]) -> float | None:
        """Exact Sim(reference, row), or None when provably ≤ threshold."""
        total = 0.0
        for position, weight, value_score, cutoff in self._plan:
            total += weight * value_score(row[position])
            if total <= cutoff:
                return None
        return total


class TupleSimilarity:
    """Scores rows against reference bindings with mined models.

    ``numeric_mode`` selects the numeric closeness function:
    ``"relative"`` (the paper's formula, default) or ``"range"``
    (extent-scaled L1; requires ``numeric_extents`` with per-attribute
    ``(low, high)`` pairs, falling back to relative when an attribute's
    extent is unknown).
    """

    def __init__(
        self,
        schema: RelationSchema,
        ordering: AttributeOrdering,
        value_similarity: SimilarityModel,
        numeric_mode: str = "relative",
        numeric_extents: Mapping[str, tuple[float, float]] | None = None,
    ) -> None:
        if numeric_mode not in ("relative", "range"):
            raise ValueError("numeric_mode must be 'relative' or 'range'")
        self.schema = schema
        self.ordering = ordering
        self.value_similarity = value_similarity
        self.numeric_mode = numeric_mode
        self.numeric_extents = dict(numeric_extents or {})
        self._weights_memo: dict[tuple[str, ...], dict[str, float]] = {}

    # -- compiled scorers ----------------------------------------------------

    def bindings_scorer(self, bindings: Mapping[str, object]) -> BindingsScorer:
        """Compile Sim(bindings, ·) into a reusable scorer.

        Importance weights are renormalised over the bound attributes.
        The plan preserves binding order and drops zero-weight
        attributes and ``None`` references, whose terms would be
        exactly ``weight * 0.0``.
        """
        return BindingsScorer(self._plan(bindings))

    def bounded_scorer(
        self, bindings: Mapping[str, object], threshold: float
    ) -> BoundedScorer:
        """Compile Sim(bindings, ·) with the cut at ``threshold``."""
        return BoundedScorer(self._plan(bindings), threshold)

    def query_scorer(self, query: ImpreciseQuery) -> BindingsScorer:
        """Sim(Q, ·) over the query's *like* constraints.

        Precise constraints were already enforced by the boolean engine
        when the tuple was fetched; only likeness constraints carry
        graded similarity.
        """
        bindings = {
            constraint.attribute: constraint.value
            for constraint in query.like_constraints
        }
        return self.bindings_scorer(bindings)

    def row_scorer(
        self,
        reference_row: Sequence[object],
        attributes: tuple[str, ...] | None = None,
    ) -> BindingsScorer:
        """Sim with a base-set tuple as the reference (Alg. 1 step 7).

        The reference bindings are the tuple's non-null values over
        ``attributes`` (default: every attribute).
        """
        return self.bindings_scorer(self._row_bindings(reference_row, attributes))

    def bounded_row_scorer(
        self,
        reference_row: Sequence[object],
        threshold: float,
        attributes: tuple[str, ...] | None = None,
    ) -> BoundedScorer:
        """Bounded form of :meth:`row_scorer` for one base tuple."""
        return self.bounded_scorer(
            self._row_bindings(reference_row, attributes), threshold
        )

    def _row_bindings(
        self,
        reference_row: Sequence[object],
        attributes: tuple[str, ...] | None,
    ) -> dict[str, object]:
        """A base tuple's non-null values as reference bindings."""
        names = attributes if attributes is not None else self.schema.attribute_names
        return {
            name: reference_row[self.schema.position(name)]
            for name in names
            if reference_row[self.schema.position(name)] is not None
        }

    def _plan(
        self, bindings: Mapping[str, object]
    ) -> list[tuple[int, float, Callable[[object], float]]]:
        """The ``(position, weight, value scorer)`` terms of Sim(bindings, ·)."""
        attributes = tuple(bindings)
        if not attributes:
            return []
        weights = self._weights_for(attributes)
        plan: list[tuple[int, float, Callable[[object], float]]] = []
        for attribute, reference in bindings.items():
            weight = weights[attribute]
            if weight == 0.0 or reference is None:
                continue
            plan.append(
                (
                    self.schema.position(attribute),
                    weight,
                    self._value_scorer(attribute, reference),
                )
            )
        return plan

    def _weights_for(self, attributes: tuple[str, ...]) -> dict[str, float]:
        """Memoised ``ordering.weights_over`` (callers must not mutate)."""
        weights = self._weights_memo.get(attributes)
        if weights is None:
            weights = self.ordering.weights_over(attributes)
            self._weights_memo[attributes] = weights
        return weights

    def _value_scorer(
        self, attribute: str, reference: object
    ) -> Callable[[object], float]:
        """Per-attribute similarity with the reference value bound."""
        if self.schema.attribute(attribute).is_numeric:
            extent = (
                self.numeric_extents.get(attribute)
                if self.numeric_mode == "range"
                else None
            )
            if extent is not None:
                low, high = extent

                def range_score(candidate: object) -> float:
                    if candidate is None:
                        return 0.0
                    return range_scaled_similarity(
                        float(reference), float(candidate), low, high  # type: ignore[arg-type]
                    )

                return range_score

            def relative_score(candidate: object) -> float:
                if candidate is None:
                    return 0.0
                return numeric_similarity(float(reference), float(candidate))  # type: ignore[arg-type]

            return relative_score

        lookup = self.value_similarity.similarity
        reference_text = str(reference)
        memo: dict[object, float] = {}

        def categorical_score(candidate: object) -> float:
            if candidate is None:
                return 0.0
            cached = memo.get(candidate)
            if cached is None:
                cached = lookup(attribute, reference_text, str(candidate))
                memo[candidate] = cached
            return cached

        return categorical_score
