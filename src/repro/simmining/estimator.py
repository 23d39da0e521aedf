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
``(i, j), i < j`` order over the values sorted by name, from the
value × keyword count matrices supertuple generation counted: a whole
block of pairs per numpy operation, each operation the one the pair
loop did per pair, in the same order, so every score is bit-identical
to it (docs/PERFORMANCE.md §14).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.obs.metrics import MetricSpec
from repro.obs.runtime import OBS, timed_phase
from repro.simmining.avpair import AVPair
from repro.simmining.bag import Bag
from repro.simmining.supertuple import (
    SuperTuple,
    bags_from_counts,
    build_binners,
    code_table,
    cooccurrence,
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


PHASE_SECONDS = MetricSpec(
    "repro_simmining_phase_seconds",
    "histogram",
    "Wall-clock seconds per similarity-mining phase.",
    labels=("phase",),
)

#: Shared immutable view returned by ``pairs()`` for unknown attributes.
_NO_PAIRS: Mapping[tuple[str, str], float] = MappingProxyType({})

#: Most elements (rows × columns × keywords) one block of Σmin
#: intersections holds: 8 MB of int64, however large the grid.
_BLOCK_ELEMENTS = 1 << 20

#: One bound attribute's grid: its supertuple values, and for every
#: other attribute the value × keyword count matrix, rows in that order.
_Grid = tuple[list[str], dict[str, NDArray[np.intp]]]


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
        self._grids: dict[str, _Grid] = {}
        # The table the last build read, and its write count then.
        self._built_from: tuple[Table, int] | None = None

    # -- supertuple generation --------------------------------------------

    def build_supertuples(
        self, table: Table, attributes: Iterable[str] | None = None
    ) -> dict[AVPair, SuperTuple]:
        """Phase 1 (Table 2's "SuperTuple Generation").

        Builds one supertuple per sufficiently frequent AV-pair over the
        given categorical attributes (default: all of them).  Inside the
        timed phase, the sample's keyword columns are coded once; then
        each bound attribute's values are counted against every other
        attribute's keywords into one matrix, whose rows are the bags.
        The matrices are kept for :meth:`estimate`.
        """
        schema = table.schema
        names = tuple(attributes) if attributes is not None else schema.categorical_names
        for name in names:
            if not schema.attribute(name).is_categorical:
                raise ValueError(f"attribute {name!r} is not categorical")
        observing = OBS.enabled
        min_count = self.config.min_value_count
        with timed_phase(
            "simmining.supertuples",
            histogram=PHASE_SECONDS,
            labels={"phase": "supertuple"},
            n_attributes=len(names),
        ) as phase:
            coded = code_table(table, build_binners(table, self.config.numeric_bins))
            supertuples: dict[AVPair, SuperTuple] = {}
            grids: dict[str, _Grid] = {}
            for name in names:
                attribute_start = time.perf_counter() if observing else 0.0
                codes, values = coded[name]
                sizes = np.bincount(codes[codes >= 0], minlength=len(values))
                eligible = np.flatnonzero(sizes >= min_count)
                # One slot past the values, so a null's -1 reads -1.
                renumber = np.full(len(values) + 1, -1, dtype=np.intp)
                renumber[eligible] = np.arange(len(eligible))
                rows = renumber[codes]
                kept = [values[code] for code in eligible.tolist()]
                counts: dict[str, NDArray[np.intp]] = {}
                bags: dict[str, list[Bag]] = {}
                for other, (keyword_codes, keywords) in coded.items():
                    if other == name:
                        continue
                    matrix, firsts = cooccurrence(
                        rows, len(kept), keyword_codes, len(keywords)
                    )
                    counts[other] = matrix
                    bags[other] = bags_from_counts(matrix, firsts, keywords)
                for row, (value, size) in enumerate(
                    zip(kept, sizes[eligible].tolist())
                ):
                    avpair = AVPair(name, value)
                    supertuples[avpair] = SuperTuple(
                        avpair=avpair,
                        bags={other: column[row] for other, column in bags.items()},
                        answerset_size=size,
                    )
                grids[name] = (kept, counts)
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
        self._grids = grids
        self._built_from = (table, table.writes)
        self.timings.supertuple_seconds += phase.elapsed_seconds
        return supertuples

    # -- pairwise estimation ------------------------------------------------

    def estimate(
        self, table: Table, attributes: Iterable[str] | None = None
    ) -> SimilarityModel:
        """Phase 2 (Table 2's "Similarity Estimation"): full VSim model.

        Reuses the last :meth:`build_supertuples` only when it read this
        very table, with no write since, and covered every requested
        attribute; otherwise the supertuples are rebuilt first, so a
        build of another table, or of this one before a write, is never
        scored.
        """
        schema = table.schema
        names = tuple(attributes) if attributes is not None else schema.categorical_names
        built_from = self._built_from
        if (
            built_from is None
            or built_from[0] is not table
            or built_from[1] != table.writes
            or not set(names) <= self._supertuple_attributes
        ):
            self.build_supertuples(table, names)
        config = self.config
        pair_evaluations = 0
        with timed_phase(
            "simmining.estimate",
            histogram=PHASE_SECONDS,
            labels={"phase": "estimation"},
            n_attributes=len(names),
        ) as phase:
            model = SimilarityModel(names)
            for name in names:
                values, counts = self._grids[name]
                order = np.asarray(
                    sorted(range(len(values)), key=values.__getitem__), dtype=np.intp
                )
                ordered = [values[i] for i in order.tolist()]
                for value in ordered:
                    model.register_value(name, value)
                weights = self._attribute_weights(schema, bound=name)
                # Zero-weight attributes add exactly 0 to every pair;
                # filtering them here (in iteration order) keeps the
                # accumulation order of the full weight table.
                terms = []
                for attr, weight in weights.items():
                    if weight != 0.0:
                        matrix = counts[attr][order]
                        if not config.bag_semantics:
                            matrix = (matrix > 0).astype(np.intp)
                        terms.append((matrix, weight))
                pair_evaluations += len(values) * (len(values) - 1) // 2
                for i, j, score in _score_grid(
                    terms, len(values), config.store_threshold
                ):
                    model.record(name, ordered[i], ordered[j], score)
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


def _score_grid(
    terms: Sequence[tuple[NDArray[np.intp], float]],
    n_values: int,
    store_threshold: float,
) -> list[tuple[int, int, float]]:
    """Score every pair ``(i, j), i < j`` of one attribute's grid.

    ``terms`` pairs each weighted attribute's count matrix (rows in grid
    order; 0/1 for set semantics) with its weight, in weight order.
    Per pair this is the bag-Jaccard loop, operation for operation: the
    integer Σmin intersection, the union from the row totals, one
    division (1.0 when both bags are empty), the weighted terms added
    in order from 0.0, then ``min(·, 1.0)``.  Rows are taken in blocks
    of at most ``_BLOCK_ELEMENTS`` intersection elements.  Returns the
    ``(i, j, score)`` triples that clear the store threshold, in grid
    order, scores as built-in floats.
    """
    widest = max((matrix.shape[1] for matrix, _ in terms), default=0)
    step = max(1, _BLOCK_ELEMENTS // max(1, n_values * widest))
    totals = [matrix.sum(axis=1) for matrix, _ in terms]
    stored: list[tuple[int, int, float]] = []
    for start in range(0, n_values - 1, step):
        stop = min(start + step, n_values - 1)
        # Rows start..stop-1 against columns start+1..n_values-1; local
        # (r, c) is the pair (start + r, start + 1 + c), above the
        # diagonal when c >= r.
        score = np.zeros((stop - start, n_values - start - 1))
        for (matrix, weight), total in zip(terms, totals):
            intersection = np.minimum(
                matrix[start:stop, None, :], matrix[None, start + 1 :, :]
            ).sum(axis=2)
            union = total[start:stop, None] + total[None, start + 1 :] - intersection
            similarity = np.ones(union.shape)  # SimJ(empty, empty) = 1
            np.divide(intersection, union, out=similarity, where=union > 0)
            score += weight * similarity
        np.minimum(score, 1.0, out=score)
        above = np.arange(score.shape[1]) >= np.arange(score.shape[0])[:, None]
        rows, columns = np.nonzero(above & (score >= store_threshold) & (score > 0.0))
        stored.extend(
            zip(
                (rows + start).tolist(),
                (columns + start + 1).tolist(),
                score[rows, columns].tolist(),
            )
        )
    return stored
