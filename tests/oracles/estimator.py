"""Oracles for VSim estimation (``repro.simmining.estimator``).

The miner used to build each supertuple's bags from keyword columns
(``tests/oracles/supertuple.py``) and score an attribute's grid pair by
pair, bag-Jaccard by bag-Jaccard, in ``_evaluate_pairs``.  It now
counts value × keyword matrices and scores whole blocks of the grid
per numpy operation (docs/PERFORMANCE.md §14).  ``build_supertuples``
and ``estimate`` below are the two replaced methods; patched onto
``ValueSimilarityMiner`` they mine the reference model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.db.table import Table
from repro.simmining.avpair import AVPair
from repro.simmining.bag import jaccard_bags, jaccard_sets
from repro.simmining.estimator import SimilarityModel, ValueSimilarityMiner
from repro.simmining.supertuple import SuperTuple, build_binners
from tests.oracles.supertuple import keyword_columns, supertuple_from_keywords


def build_supertuples(
    self: ValueSimilarityMiner, table: Table, attributes: Iterable[str] | None = None
) -> dict[AVPair, SuperTuple]:
    """One supertuple per frequent AV-pair, counted from posting row ids."""
    schema = table.schema
    names = tuple(attributes) if attributes is not None else schema.categorical_names
    for name in names:
        if not schema.attribute(name).is_categorical:
            raise ValueError(f"attribute {name!r} is not categorical")
    keywords = keyword_columns(
        {attribute.name: table.column(attribute.name) for attribute in schema},
        schema,
        build_binners(table, self.config.numeric_bins),
    )
    supertuples: dict[AVPair, SuperTuple] = {}
    for name in names:
        index = table.hash_index(name) or table.create_hash_index(name)
        for value in index.distinct_values():
            row_ids = index.lookup(value)
            if len(row_ids) < self.config.min_value_count:
                continue
            avpair = AVPair(name, value)  # type: ignore[arg-type]
            supertuples[avpair] = supertuple_from_keywords(avpair, row_ids, keywords)
    self._supertuples = supertuples
    self._supertuple_attributes = frozenset(names)
    return supertuples


def estimate(
    self: ValueSimilarityMiner, table: Table, attributes: Iterable[str] | None = None
) -> SimilarityModel:
    """The VSim model, scored pair by pair over the supertuples."""
    schema = table.schema
    names = tuple(attributes) if attributes is not None else schema.categorical_names
    if not set(names) <= self._supertuple_attributes:
        self.build_supertuples(table, names)
    config = self.config
    model = SimilarityModel(names)
    by_attribute: dict[str, list[SuperTuple]] = {name: [] for name in names}
    for avpair, supertuple in self._supertuples.items():
        if avpair.attribute in by_attribute:
            by_attribute[avpair.attribute].append(supertuple)
    for name in names:
        supertuples = sorted(by_attribute[name], key=lambda st: st.avpair.value)
        for supertuple in supertuples:
            model.register_value(name, supertuple.avpair.value)
        weights = self._attribute_weights(schema, bound=name)
        weight_items = tuple(
            (attr, weight) for attr, weight in weights.items() if weight != 0.0
        )
        for value_a, value_b, score in _evaluate_pairs(
            supertuples,
            weight_items,
            bag_semantics=config.bag_semantics,
            store_threshold=config.store_threshold,
        ):
            model.record(name, value_a, value_b, score)
    return model


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
