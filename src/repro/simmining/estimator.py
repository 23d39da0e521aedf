"""Similarity Miner: estimating VSim between categorical values.

For every categorical attribute, every distinct value's answer set is
summarised as a supertuple, and the similarity between two values is the
importance-weighted sum of bag-Jaccard similarities of their supertuples
(paper §5.2):

    VSim(C1, C2) = Σ_i  W_imp(A_i) · SimJ(C1.A_i, C2.A_i)

The pairwise pass over the ``k`` distinct values of each of ``m``
categorical attributes is the O(m·k²) cost the paper contrasts with
ROCK's O(n³) (§6.1): it depends on the number of AV-pairs, not on the
number of tuples.  Every pair of an attribute's grid is scored once, in
``(i, j), i < j`` order over the values sorted by name.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.obs.runtime import OBS, timed_phase
from repro.simmining.avpair import AVPair
from repro.simmining.bag import jaccard_bags, jaccard_sets
from repro.simmining.supertuple import (
    SuperTuple,
    build_binners,
    keyword_columns,
    supertuple_from_keywords,
)

__all__ = [
    "SimilarityMinerConfig",
    "SimilarityModel",
    "ValueSimilarityMiner",
    "MiningTimings",
]


@dataclass(frozen=True)
class SimilarityMinerConfig:
    """Knobs of the value-similarity estimation pass.

    Parameters
    ----------
    numeric_bins:
        Bins used to discretise numeric attributes inside supertuples.
    min_value_count:
        Values rarer than this in the sample get no supertuple (their
        statistics would be noise); they fall back to similarity 0.
    store_threshold:
        Pairs scoring below this are not stored (lookup returns 0.0);
        keeps the model small without changing rankings near the top.
    bag_semantics:
        True (paper) = multiset Jaccard; False = set Jaccard ablation.
    """

    numeric_bins: int = 10
    min_value_count: int = 2
    store_threshold: float = 0.0
    bag_semantics: bool = True

    def __post_init__(self) -> None:
        if self.numeric_bins < 1:
            raise ValueError("numeric_bins must be at least 1")
        if self.min_value_count < 1:
            raise ValueError("min_value_count must be at least 1")
        if not 0.0 <= self.store_threshold < 1.0:
            raise ValueError("store_threshold must be in [0, 1)")


@dataclass
class MiningTimings:
    """Wall-clock accounting for Table 2."""

    supertuple_seconds: float = 0.0
    estimation_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.supertuple_seconds + self.estimation_seconds


#: Shared immutable view returned by ``pairs()`` for unknown attributes.
_NO_PAIRS: Mapping[tuple[str, str], float] = MappingProxyType({})


class SimilarityModel:
    """Mined value-similarity lookup for categorical attributes."""

    def __init__(self, attributes: Iterable[str]) -> None:
        self._pairs: dict[str, dict[tuple[str, str], float]] = {
            name: {} for name in attributes
        }
        self._values: dict[str, set[str]] = {name: set() for name in attributes}
        self._pair_views: dict[str, Mapping[tuple[str, str], float]] = {}

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._pairs)

    def known_values(self, attribute: str) -> frozenset[str]:
        return frozenset(self._values.get(attribute, ()))

    def record(
        self, attribute: str, value_a: str, value_b: str, similarity: float
    ) -> None:
        if attribute not in self._pairs:
            raise KeyError(f"unknown categorical attribute {attribute!r}")
        if not 0.0 <= similarity <= 1.0:
            raise ValueError(f"similarity {similarity} out of [0, 1]")
        key = (value_a, value_b) if value_a <= value_b else (value_b, value_a)
        self._pairs[attribute][key] = similarity
        self._values[attribute].update((value_a, value_b))

    def register_value(self, attribute: str, value: str) -> None:
        """Mark a value as seen even if it stores no pairs."""
        self._values[attribute].add(value)

    def similarity(self, attribute: str, value_a: str, value_b: str) -> float:
        """VSim lookup: 1 for identical values, 0 for unknown pairs."""
        if value_a == value_b:
            return 1.0
        pairs = self._pairs.get(attribute)
        if pairs is None:
            return 0.0
        key = (value_a, value_b) if value_a <= value_b else (value_b, value_a)
        return pairs.get(key, 0.0)

    def top_similar(
        self, attribute: str, value: str, n: int = 3
    ) -> list[tuple[str, float]]:
        """The ``n`` most similar other values (paper Table 3 rows)."""
        scored = [
            (other, self.similarity(attribute, value, other))
            for other in self._values.get(attribute, ())
            if other != value
        ]
        # nsmallest(n, key=...) == sorted(key=...)[:n] by contract, so
        # the Table 3 rows are unchanged while only an n-sized heap is
        # kept over the k known values.
        return heapq.nsmallest(n, scored, key=lambda pair: (-pair[1], pair[0]))

    def pairs(self, attribute: str) -> Mapping[tuple[str, str], float]:
        """Read-only **live view** of one attribute's stored pair scores.

        Contract: the returned mapping reflects later :meth:`record`
        calls and must not be mutated (it is a ``MappingProxyType``);
        copy it (``dict(model.pairs(a))``) to snapshot.  Views are
        memoised, so hot-path callers iterating per access (the Figure
        5 graph builder, feedback tuners, the model store) no longer
        pay an O(pairs) copy per call.
        """
        view = self._pair_views.get(attribute)
        if view is None:
            store = self._pairs.get(attribute)
            if store is None:
                return _NO_PAIRS
            view = MappingProxyType(store)
            self._pair_views[attribute] = view
        return view

    def pair_count(self) -> int:
        return sum(len(pairs) for pairs in self._pairs.values())


class ValueSimilarityMiner:
    """Builds a :class:`SimilarityModel` from a local sample table."""

    def __init__(
        self,
        config: SimilarityMinerConfig | None = None,
        importance_weights: Mapping[str, float] | None = None,
    ) -> None:
        self.config = config or SimilarityMinerConfig()
        self.importance_weights = dict(importance_weights or {})
        self.timings = MiningTimings()
        self._supertuples: dict[AVPair, SuperTuple] = {}
        self._supertuple_attributes: frozenset[str] = frozenset()

    # -- supertuple generation --------------------------------------------

    def build_supertuples(
        self, table: Table, attributes: Iterable[str] | None = None
    ) -> dict[AVPair, SuperTuple]:
        """Phase 1 (Table 2's "SuperTuple Generation").

        Builds one supertuple per sufficiently frequent AV-pair over the
        given categorical attributes (default: all of them).  The
        sample's keyword columns are derived once, inside the timed
        phase, and each AV-pair's bags are counted from its posting's
        row ids.
        """
        schema = table.schema
        names = tuple(attributes) if attributes is not None else schema.categorical_names
        for name in names:
            if not schema.attribute(name).is_categorical:
                raise ValueError(f"attribute {name!r} is not categorical")
        observing = OBS.enabled
        with timed_phase(
            "simmining.supertuples",
            histogram="repro_simmining_phase_seconds",
            help_text="Wall-clock seconds per similarity-mining phase.",
            labels={"phase": "supertuple"},
            n_attributes=len(names),
        ) as phase:
            keywords = keyword_columns(
                {attribute.name: table.column(attribute.name) for attribute in schema},
                schema,
                build_binners(table, self.config.numeric_bins),
            )
            supertuples: dict[AVPair, SuperTuple] = {}
            for name in names:
                attribute_start = time.perf_counter() if observing else 0.0
                index = table.hash_index(name) or table.create_hash_index(name)
                for value in index.distinct_values():
                    row_ids = index.lookup(value)
                    if len(row_ids) < self.config.min_value_count:
                        continue
                    avpair = AVPair(name, value)
                    supertuples[avpair] = supertuple_from_keywords(
                        avpair, row_ids, keywords
                    )
                if observing:
                    OBS.registry.histogram(
                        "repro_simmining_supertuple_build_seconds",
                        "Supertuple construction time per attribute.",
                        labels=("attribute",),
                    ).labels(attribute=name).observe(
                        time.perf_counter() - attribute_start
                    )
        if observing:
            OBS.registry.counter(
                "repro_simmining_supertuples_total",
                "Supertuples built over sufficiently frequent AV-pairs.",
            ).inc(len(supertuples))
        self._supertuples = supertuples
        self._supertuple_attributes = frozenset(names)
        self.timings.supertuple_seconds += phase.elapsed_seconds
        return supertuples

    # -- pairwise estimation ------------------------------------------------

    def estimate(
        self, table: Table, attributes: Iterable[str] | None = None
    ) -> SimilarityModel:
        """Phase 2 (Table 2's "Similarity Estimation"): full VSim model.

        Supertuples are rebuilt automatically when the requested
        attribute set is not covered by the set
        :meth:`build_supertuples` last ran with — previously a stale
        build was silently reused and never-built attributes produced
        no pairs at all.
        """
        schema = table.schema
        names = tuple(attributes) if attributes is not None else schema.categorical_names
        if not set(names) <= self._supertuple_attributes:
            self.build_supertuples(table, names)
        config = self.config
        pair_evaluations = 0
        with timed_phase(
            "simmining.estimate",
            histogram="repro_simmining_phase_seconds",
            help_text="Wall-clock seconds per similarity-mining phase.",
            labels={"phase": "estimation"},
            n_attributes=len(names),
        ) as phase:
            model = SimilarityModel(names)
            by_attribute: dict[str, list[SuperTuple]] = {name: [] for name in names}
            for avpair, supertuple in self._supertuples.items():
                if avpair.attribute in by_attribute:
                    by_attribute[avpair.attribute].append(supertuple)
            for name in names:
                supertuples = sorted(
                    by_attribute[name], key=lambda st: st.avpair.value
                )
                for supertuple in supertuples:
                    model.register_value(name, supertuple.avpair.value)
                weights = self._attribute_weights(schema, bound=name)
                # Zero-weight attributes add exactly 0 to every pair;
                # filtering them here (in iteration order) keeps the
                # accumulation order of the full weight table.
                weight_items = tuple(
                    (attr, weight)
                    for attr, weight in weights.items()
                    if weight != 0.0
                )
                pair_evaluations += len(supertuples) * (len(supertuples) - 1) // 2
                for value_a, value_b, score in _evaluate_pairs(
                    supertuples,
                    weight_items,
                    bag_semantics=config.bag_semantics,
                    store_threshold=config.store_threshold,
                ):
                    model.record(name, value_a, value_b, score)
        if OBS.enabled:
            OBS.registry.counter(
                "repro_simmining_pair_evaluations_total",
                "VSim evaluations over AV-pair supertuple pairs (the "
                "paper's O(m*k^2) cost).",
            ).inc(pair_evaluations)
        self.timings.estimation_seconds += phase.elapsed_seconds
        return model

    def mine(
        self, table: Table, attributes: Iterable[str] | None = None
    ) -> SimilarityModel:
        """Both phases in one call."""
        self.build_supertuples(table, attributes)
        return self.estimate(table, attributes)

    # -- internals ---------------------------------------------------------

    def _attribute_weights(
        self, schema: RelationSchema, bound: str
    ) -> dict[str, float]:
        """Importance weights over the supertuple attributes (≠ bound).

        Uses the caller-supplied W_imp when given (renormalised over the
        unbound attributes), else uniform weights.
        """
        names = [n for n in schema.attribute_names if n != bound]
        if self.importance_weights:
            raw = {n: max(self.importance_weights.get(n, 0.0), 0.0) for n in names}
            total = sum(raw.values())
            if total > 0:
                return {n: w / total for n, w in raw.items()}
        uniform = 1.0 / len(names) if names else 0.0
        return {n: uniform for n in names}


def _evaluate_pairs(
    supertuples: Sequence[SuperTuple],
    weight_items: Sequence[tuple[str, float]],
    bag_semantics: bool,
    store_threshold: float,
) -> list[tuple[str, str, float]]:
    """Score every pair ``(i, j), i < j`` of one attribute's supertuples.

    Returns the ``(value_a, value_b, score)`` triples that clear the
    store threshold, in grid order.
    """
    stored: list[tuple[str, str, float]] = []
    for i, left in enumerate(supertuples):
        for j in range(i + 1, len(supertuples)):
            right = supertuples[j]
            score = 0.0
            for attribute, weight in weight_items:
                left_bag = left.bag(attribute)
                right_bag = right.bag(attribute)
                if bag_semantics:
                    score += weight * jaccard_bags(left_bag, right_bag)
                else:
                    score += weight * jaccard_sets(
                        left_bag.as_set(), right_bag.as_set()
                    )
            score = min(score, 1.0)
            if score >= store_threshold and score > 0.0:
                stored.append((left.avpair.value, right.avpair.value, score))
    return stored
