"""Similarity Miner: estimating VSim between categorical values.

For every categorical attribute, every distinct value's answer set is
summarised as a supertuple, and the similarity between two values is the
importance-weighted sum of bag-Jaccard similarities of their supertuples
(paper §5.2):

    VSim(C1, C2) = Σ_i  W_imp(A_i) · SimJ(C1.A_i, C2.A_i)

The pairwise pass over the ``k`` distinct values of each of ``m``
categorical attributes is the O(m·k²) cost the paper contrasts with
ROCK's O(n³) (§6.1): it depends on the number of AV-pairs, not on the
number of tuples.

Three fast paths attack that cost (all opt-in, all provably
result-equivalent to the naive pass — see ``docs/PERFORMANCE.md``):

* **Prune bounds** (``prune_bound=True``): per bag,
  ``SimJ(A, B) ≤ min(|A|, |B|) / max(|A|, |B|)`` (the intersection is
  at most the smaller bag, the union at least the larger), so
  ``Σᵢ wᵢ·boundᵢ < store_threshold`` rejects a pair from its bag sizes
  alone, and a running suffix-bound aborts mid-evaluation once the
  remaining attributes cannot lift the score over the threshold.
* **Parallel estimation** (``workers > 1``): the pair grid of every
  attribute is chunked across a ``ProcessPoolExecutor``; results are
  folded back in deterministic task order.  ``workers=1`` keeps the
  serial loop bit-for-bit.
* **Inverted-index candidate generation** (``use_index=True``): each
  attribute's supertuples are indexed by their ``(attribute, keyword)``
  features (:class:`~repro.simmining.index.SuperTupleIndex`) and only
  pairs sharing at least one feature are evaluated — skipped pairs
  have VSim exactly 0 and could never be stored.  The candidate list
  replaces the pair grid in both the serial and the parallel path, so
  the index composes with ``workers``/``prune_bound`` bit-identically.

``index_topk=True`` additionally attaches a
:class:`~repro.simmining.index.TopSimilarIndex` to the produced model,
making :meth:`SimilarityModel.top_similar` an O(n)-entry merge instead
of a scan over all known values — identical rankings, tie order
included.
"""

from __future__ import annotations

import gc
import heapq
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.obs.runtime import OBS, timed_phase
from repro.simmining.avpair import AVPair
from repro.simmining.bag import jaccard_bags, jaccard_sets
from repro.simmining.index import SuperTupleIndex, TopSimilarIndex
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
    workers:
        Process count for the pairwise estimation pass.  1 (default)
        preserves the serial path bit-for-bit; >1 chunks each
        attribute's pair grid across a ``ProcessPoolExecutor`` and
        produces an identical model (same pairs, same scores).
    prune_bound:
        When True, skip ``_vsim`` for pairs whose bag-size upper bound
        ``Σ wᵢ·min(|Aᵢ|,|Bᵢ|)/max(|Aᵢ|,|Bᵢ|)`` cannot reach
        ``store_threshold``.  Never drops a pair the naive loop would
        have stored; a no-op when ``store_threshold`` is 0.
    parallel_chunk_pairs:
        Pairs per worker task when ``workers > 1``.
    use_index:
        When True, build a :class:`~repro.simmining.index.SuperTupleIndex`
        per attribute and evaluate only the candidate pairs it emits
        (pairs sharing at least one co-occurring keyword or both-empty
        bag).  Skipped pairs have VSim exactly 0, so the produced model
        is bit-identical at any ``store_threshold``; composes with
        ``workers`` and ``prune_bound``.
    index_topk:
        When True, the produced :class:`SimilarityModel` carries a
        :class:`~repro.simmining.index.TopSimilarIndex` per attribute,
        serving ``top_similar`` sublinearly with identical rankings.
    """

    numeric_bins: int = 10
    min_value_count: int = 2
    store_threshold: float = 0.0
    bag_semantics: bool = True
    workers: int = 1
    prune_bound: bool = False
    parallel_chunk_pairs: int = 512
    use_index: bool = False
    index_topk: bool = False

    def __post_init__(self) -> None:
        if self.numeric_bins < 1:
            raise ValueError("numeric_bins must be at least 1")
        if self.min_value_count < 1:
            raise ValueError("min_value_count must be at least 1")
        if not 0.0 <= self.store_threshold < 1.0:
            raise ValueError("store_threshold must be in [0, 1)")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.parallel_chunk_pairs < 1:
            raise ValueError("parallel_chunk_pairs must be at least 1")


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
    """Mined value-similarity lookup for categorical attributes.

    With :meth:`enable_top_index` (or ``index_topk=True`` in the miner
    config) every attribute carries a
    :class:`~repro.simmining.index.TopSimilarIndex` that is maintained
    incrementally by :meth:`record`/:meth:`register_value`, and
    :meth:`top_similar` retrieves sublinearly instead of scanning all
    known values — the rankings are identical either way.
    """

    def __init__(self, attributes: Iterable[str]) -> None:
        self._pairs: dict[str, dict[tuple[str, str], float]] = {
            name: {} for name in attributes
        }
        self._values: dict[str, set[str]] = {name: set() for name in attributes}
        self._pair_views: dict[str, Mapping[tuple[str, str], float]] = {}
        self._top_index: dict[str, TopSimilarIndex] | None = None

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._pairs)

    @property
    def has_top_index(self) -> bool:
        """Whether ``top_similar`` is served from the neighbour index."""
        return self._top_index is not None

    def enable_top_index(self) -> None:
        """Attach (and backfill) a per-attribute top-k retrieval index.

        Safe to call at any point: pairs and values recorded so far are
        replayed into the index, later ones are indexed incrementally.
        Idempotent.
        """
        if self._top_index is not None:
            return
        index = {name: TopSimilarIndex() for name in self._pairs}
        for name, values in self._values.items():
            for value in sorted(values):
                index[name].register(value)
        for name, pairs in self._pairs.items():
            for (value_a, value_b), similarity in pairs.items():
                index[name].record(value_a, value_b, similarity)
        self._top_index = index

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
        if self._top_index is not None:
            self._top_index[attribute].record(value_a, value_b, similarity)

    def register_value(self, attribute: str, value: str) -> None:
        """Mark a value as seen even if it stores no pairs."""
        self._values[attribute].add(value)
        if self._top_index is not None:
            self._top_index[attribute].register(value)

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
        if self._top_index is not None:
            index = self._top_index.get(attribute)
            if index is not None:
                # Sorted-neighbour-list merge: identical ranking (tie
                # order included) touching only ~n entries.
                return index.top(value, n)
        scored = [
            (other, self.similarity(attribute, value, other))
            for other in self._values.get(attribute, ())
            if other != value
        ]
        # nsmallest(n, key=...) == sorted(key=...)[:n] by contract, so
        # the Table 3 rows are unchanged while only an n-sized heap is
        # kept over the k known values.
        return heapq.nsmallest(n, scored, key=lambda pair: (-pair[1], pair[0]))

    def max_similarity(self, attribute: str, value: str) -> float:
        """Upper bound on ``similarity(value, other)`` over ``other ≠ value``.

        Exact (the largest stored pair score involving ``value``) when
        the top index is enabled; the trivial bound 1.0 otherwise.
        Identical values always score 1.0 and are outside this bound —
        callers handle equality separately.
        """
        if self._top_index is None:
            return 1.0
        index = self._top_index.get(attribute)
        if index is None:
            # Unmined attribute: every non-identical lookup returns 0.
            return 0.0
        return index.max_score(value)

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
        observing = OBS.enabled
        pair_evaluations = 0
        pairs_pruned = 0
        index_candidates = 0
        index_skipped = 0
        index_postings = 0
        with timed_phase(
            "simmining.estimate",
            histogram="repro_simmining_phase_seconds",
            help_text="Wall-clock seconds per similarity-mining phase.",
            labels={"phase": "estimation"},
            n_attributes=len(names),
        ) as phase:
            model = SimilarityModel(names)
            if config.index_topk:
                model.enable_top_index()
            by_attribute: dict[str, list[SuperTuple]] = {name: [] for name in names}
            for avpair, supertuple in self._supertuples.items():
                if avpair.attribute in by_attribute:
                    by_attribute[avpair.attribute].append(supertuple)
            jobs: list[tuple[str, list[SuperTuple], tuple[tuple[str, float], ...]]] = []
            for name in names:
                supertuples = sorted(
                    by_attribute[name], key=lambda st: st.avpair.value
                )
                for supertuple in supertuples:
                    model.register_value(name, supertuple.avpair.value)
                weights = self._attribute_weights(schema, bound=name)
                # Zero-weight attributes are skipped by _vsim anyway;
                # filtering here (in iteration order) keeps the exact
                # accumulation order of the naive loop.
                weight_items = tuple(
                    (attr, weight)
                    for attr, weight in weights.items()
                    if weight != 0.0
                )
                jobs.append((name, supertuples, weight_items))

            pair_lists: dict[str, list[tuple[int, int]]] | None = None
            if config.use_index:
                # Candidate generation via posting-list intersection:
                # only pairs sharing a feature survive, in the exact
                # grid order, so evaluation folds bit-identically and
                # every skipped pair has VSim exactly 0 (the empty-bag
                # sentinel keeps ∅-vs-∅ pairs, whose SimJ is 1).
                pair_lists = {}
                for name, supertuples, weight_items in jobs:
                    build_start = time.perf_counter() if observing else 0.0
                    index = SuperTupleIndex(
                        weight_items, bag_semantics=config.bag_semantics
                    )
                    for supertuple in supertuples:
                        index.add(supertuple)
                    candidates = index.candidate_pairs(
                        [st.avpair.value for st in supertuples]
                    )
                    pair_lists[name] = candidates
                    grid_size = len(supertuples) * (len(supertuples) - 1) // 2
                    index_candidates += len(candidates)
                    index_skipped += grid_size - len(candidates)
                    index_postings += index.posting_count
                    if observing:
                        OBS.registry.histogram(
                            "repro_simmining_index_build_seconds",
                            "Inverted-index construction time per "
                            "attribute.",
                            buckets=(
                                0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                            ),
                        ).observe(time.perf_counter() - build_start)

            if config.workers > 1:
                outcomes = self._estimate_parallel(jobs, pair_lists)
            else:
                outcomes = [
                    (
                        name,
                        _evaluate_pairs(
                            supertuples,
                            weight_items,
                            pair_lists[name]
                            if pair_lists is not None
                            else _pair_grid(len(supertuples)),
                            bag_semantics=config.bag_semantics,
                            store_threshold=config.store_threshold,
                            prune=config.prune_bound,
                        ),
                    )
                    for name, supertuples, weight_items in jobs
                ]
            for name, (stored, evaluated, pruned) in outcomes:
                pair_evaluations += evaluated
                pairs_pruned += pruned
                for value_a, value_b, score in stored:
                    model.record(name, value_a, value_b, score)
        if observing:
            OBS.registry.counter(
                "repro_simmining_pair_evaluations_total",
                "VSim evaluations over AV-pair supertuple pairs (the "
                "paper's O(m*k^2) cost).",
            ).inc(pair_evaluations)
            OBS.registry.counter(
                "repro_simmining_pairs_pruned_total",
                "Supertuple pairs skipped by the bag-size upper bound "
                "before (or during) VSim evaluation.",
            ).inc(pairs_pruned)
            if config.use_index:
                OBS.registry.counter(
                    "repro_simmining_index_candidate_pairs_total",
                    "Supertuple pairs emitted by posting-list "
                    "intersection.",
                ).inc(index_candidates)
                OBS.registry.counter(
                    "repro_simmining_index_pairs_skipped_total",
                    "Grid pairs skipped as provably VSim 0 (no shared "
                    "feature).",
                ).inc(index_skipped)
                OBS.registry.counter(
                    "repro_simmining_index_postings_total",
                    "Posting entries inserted while building supertuple "
                    "indexes.",
                ).inc(index_postings)
        self.timings.estimation_seconds += phase.elapsed_seconds
        return model

    def _estimate_parallel(
        self,
        jobs: list[tuple[str, list[SuperTuple], tuple[tuple[str, float], ...]]],
        pair_lists: dict[str, list[tuple[int, int]]] | None = None,
    ) -> list[tuple[str, tuple[list[tuple[str, str, float]], int, int]]]:
        """Chunk every attribute's pair list across a process pool.

        The pairs are the full grid, or — with ``use_index`` — the
        index's candidate list (``pair_lists``), which is a subsequence
        of the grid in the grid's order, so chunking and folding are
        unchanged.  The shared supertuples travel once per worker (pool
        initializer); tasks carry only ``(attribute, pair indices)``.
        Results fold back in deterministic task order, and a pool that
        cannot start (sandboxed fork, missing semaphores) degrades to
        the serial path rather than failing the build.
        """
        config = self.config

        def pairs_for(name: str, count: int) -> list[tuple[int, int]]:
            if pair_lists is not None:
                return pair_lists[name]
            return _pair_grid(count)

        context = {
            "supertuples": {name: supertuples for name, supertuples, _ in jobs},
            "weights": {name: weight_items for name, _, weight_items in jobs},
            "bag_semantics": config.bag_semantics,
            "store_threshold": config.store_threshold,
            "prune": config.prune_bound,
        }
        tasks: list[tuple[str, list[tuple[int, int]]]] = []
        for name, supertuples, _ in jobs:
            grid = pairs_for(name, len(supertuples))
            for start in range(0, len(grid), config.parallel_chunk_pairs):
                tasks.append(
                    (name, grid[start : start + config.parallel_chunk_pairs])
                )
        # Workers are forked, so they inherit the parent's whole object
        # graph; without a freeze every collection in parent or child
        # rescans that inherited heap (and COW-faults its pages), which
        # can dwarf the scoring work itself when the parent is large.
        # Freezing exempts pre-fork objects from collection for the
        # pool's lifetime; the parent thaws afterwards.
        gc.collect()
        gc.freeze()
        try:
            try:
                with ProcessPoolExecutor(
                    max_workers=config.workers,
                    initializer=_init_vsim_worker,
                    initargs=(context,),
                ) as pool:
                    chunk_results = list(pool.map(_score_vsim_chunk, tasks))
            except (OSError, PermissionError):
                return [
                    (
                        name,
                        _evaluate_pairs(
                            supertuples,
                            weight_items,
                            pairs_for(name, len(supertuples)),
                            bag_semantics=config.bag_semantics,
                            store_threshold=config.store_threshold,
                            prune=config.prune_bound,
                        ),
                    )
                    for name, supertuples, weight_items in jobs
                ]
        finally:
            gc.unfreeze()
        merged: dict[str, tuple[list[tuple[str, str, float]], int, int]] = {
            name: ([], 0, 0) for name, _, _ in jobs
        }
        for (name, _), (stored, evaluated, pruned) in zip(tasks, chunk_results):
            previous = merged[name]
            merged[name] = (
                previous[0] + stored,
                previous[1] + evaluated,
                previous[2] + pruned,
            )
        return [(name, merged[name]) for name, _, _ in jobs]

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

    def _vsim(
        self,
        left: SuperTuple,
        right: SuperTuple,
        weights: Mapping[str, float],
    ) -> float:
        score = 0.0
        for attribute, weight in weights.items():
            if weight == 0.0:
                continue
            left_bag = left.bag(attribute)
            right_bag = right.bag(attribute)
            if self.config.bag_semantics:
                score += weight * jaccard_bags(left_bag, right_bag)
            else:
                score += weight * jaccard_sets(
                    left_bag.as_set(), right_bag.as_set()
                )
        return min(score, 1.0)


# -- pair-grid evaluation (shared by the serial and parallel paths) ----------

#: Slack applied to the *mid-evaluation* suffix-bound cutoff.  The
#: whole-pair bound is FP-safe without slack (every rounded operation is
#: monotone and term-wise dominates the score's), but the running cutoff
#: mixes evaluated terms with bound terms, so a generous margin — ~1e6×
#: the worst-case rounding error at these magnitudes — keeps it sound.
_PRUNE_SLACK = 1e-9


def _pair_grid(n: int) -> list[tuple[int, int]]:
    """Index pairs ``(i, j), i < j`` in the naive loop's order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _bag_magnitude(supertuple: SuperTuple, attribute: str, bag_semantics: bool) -> int:
    return supertuple.bag_magnitude(attribute, bag_semantics)


def _evaluate_pairs(
    supertuples: Sequence[SuperTuple],
    weight_items: Sequence[tuple[str, float]],
    pairs: Sequence[tuple[int, int]],
    bag_semantics: bool,
    store_threshold: float,
    prune: bool,
) -> tuple[list[tuple[str, str, float]], int, int]:
    """Score index ``pairs`` over one attribute's supertuples.

    Returns ``(stored, evaluated, pruned)`` where ``stored`` holds
    ``(value_a, value_b, score)`` triples that clear the store
    threshold, ``evaluated`` counts full VSim evaluations and
    ``pruned`` counts pairs rejected by the upper bound (outright or
    mid-evaluation).  With ``prune=False`` this is the naive pass.
    """
    stored: list[tuple[str, str, float]] = []
    evaluated = 0
    pruned = 0
    sizes: list[tuple[int, ...]] | None = None
    if prune and store_threshold > 0.0:
        sizes = [
            tuple(
                _bag_magnitude(st, attribute, bag_semantics)
                for attribute, _ in weight_items
            )
            for st in supertuples
        ]
    for i, j in pairs:
        left = supertuples[i]
        right = supertuples[j]
        if sizes is None:
            evaluated += 1
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
        else:
            # Per-term upper bounds from bag sizes alone:
            # SimJ(A, B) ≤ min(|A|, |B|) / max(|A|, |B|).
            left_sizes = sizes[i]
            right_sizes = sizes[j]
            bounds: list[float] = []
            total_bound = 0.0
            for t, (_, weight) in enumerate(weight_items):
                size_a = left_sizes[t]
                size_b = right_sizes[t]
                if size_a == 0 and size_b == 0:
                    ratio = 1.0  # two empty bags are identical (SimJ = 1)
                elif size_a == 0 or size_b == 0:
                    ratio = 0.0
                else:
                    ratio = (
                        (size_a if size_a < size_b else size_b)
                        / (size_a if size_a > size_b else size_b)
                    )
                term_bound = weight * ratio
                bounds.append(term_bound)
                total_bound += term_bound
            if total_bound < store_threshold:
                pruned += 1
                continue
            # Suffix sums of the remaining bounds for the running cutoff.
            suffix = [0.0] * len(bounds)
            acc = 0.0
            for t in range(len(bounds) - 1, 0, -1):
                acc += bounds[t]
                suffix[t - 1] = acc
            score = 0.0
            aborted = False
            for t, (attribute, weight) in enumerate(weight_items):
                left_bag = left.bag(attribute)
                right_bag = right.bag(attribute)
                if bag_semantics:
                    score += weight * jaccard_bags(left_bag, right_bag)
                else:
                    score += weight * jaccard_sets(
                        left_bag.as_set(), right_bag.as_set()
                    )
                if score + suffix[t] < store_threshold - _PRUNE_SLACK:
                    aborted = True
                    break
            if aborted:
                pruned += 1
                continue
            evaluated += 1
            score = min(score, 1.0)
        if score >= store_threshold and score > 0.0:
            stored.append((left.avpair.value, right.avpair.value, score))
    return stored, evaluated, pruned


# -- process-pool plumbing ----------------------------------------------------

#: Per-worker context installed by the pool initializer so task payloads
#: stay small (attribute name + index pairs, not the supertuples).
_WORKER_CONTEXT: dict | None = None


def _init_vsim_worker(context: dict) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _score_vsim_chunk(
    task: tuple[str, list[tuple[int, int]]],
) -> tuple[list[tuple[str, str, float]], int, int]:
    name, pairs = task
    context = _WORKER_CONTEXT
    assert context is not None, "worker used before initializer ran"
    return _evaluate_pairs(
        context["supertuples"][name],
        context["weights"][name],
        pairs,
        bag_semantics=context["bag_semantics"],
        store_threshold=context["store_threshold"],
        prune=context["prune"],
    )
