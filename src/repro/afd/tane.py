"""Levelwise TANE-style miner for AFDs and approximate keys.

The paper (§4) mines, from a probed sample, every approximate
functional dependency and approximate key whose ``g3`` error is below a
threshold ``T_err``, using the TANE algorithm of Huhtala et al.  This
module implements that search:

* single-attribute stripped partitions are computed from the columns;
* higher levels of the attribute-set lattice are reached via stripped
  partition products (π_X = π_{X∖a} · π_a);
* at each set ``X`` (|X| ≥ 2) the candidate dependencies
  ``X∖{A} → A`` for every ``A ∈ X`` are scored with the g3 measure;
* every set up to ``max_key_size`` is scored as an approximate key.

Minimality is tracked for both artifacts: a dependency is minimal when
no proper subset of its determinant already determines the consequent
within the threshold, and a key is minimal when no proper subset is
itself a valid approximate key.  Non-minimal artifacts are kept (the
paper's CarDB run reports 26 keys, clearly counting non-minimal ones)
but flagged, so callers can filter.

Numeric attributes participate with their raw values by default, which
mirrors the paper; an optional equal-width binning preprocessor is
available because it is a natural ablation (binned numerics produce
denser dependency structure).  It bins with the supertuple binners
(:func:`~repro.simmining.supertuple.build_binners`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.afd.g3 import dependency_error, key_error
from repro.afd.model import AFD, ApproximateKey, DependencyModel
from repro.afd.partition import (
    StrippedPartition,
    partition_product,
    partition_single,
)
from repro.db.table import Table
from repro.obs.runtime import OBS
from repro.simmining.supertuple import NumericBinner, build_binners

if TYPE_CHECKING:
    from repro.obs.tracing import Span

__all__ = ["TaneConfig", "TaneMiner", "mine_dependencies", "tane_columns"]


@dataclass(frozen=True)
class TaneConfig:
    """Knobs of the dependency miner.

    Parameters
    ----------
    error_threshold:
        ``T_err``: keep AFDs with g3 error at or below this value.
    key_error_threshold:
        Separate ``T_err`` for approximate keys (defaults to
        ``error_threshold`` when None).  A key's g3 error counts every
        duplicate tuple, so it grows with sample size even when the
        key's *relative* standing is rock-stable (paper Fig. 4); keys
        therefore usually want a looser threshold than dependencies.
    max_lhs_size:
        Largest determinant size considered for AFDs.
    max_key_size:
        Largest attribute-set size considered for keys.
    keep_non_minimal:
        Record non-minimal AFDs/keys (flagged ``minimal=False``).
    numeric_bins:
        When positive, numeric columns are equal-width binned into this
        many buckets before partitioning (default 0 = raw values).
    filter_trivial_consequents:
        Drop AFDs ``X → A`` when ``A`` is near-constant — when always
        predicting A's majority value already violates at most
        ``error_threshold`` of the tuples, *anything* "determines" A
        and the dependency carries no information (an attribute that
        is 96% zeros, like Census capital-loss, would otherwise absorb
        all of Algorithm 2's dependence weight).
    filter_key_determinants:
        Drop AFDs ``X → A`` when ``X`` is itself an approximate key at
        the threshold — near-unique determinants (raw prices, census
        fnlwgt) trivially determine every attribute, which again says
        nothing about semantic dependence.
    """

    error_threshold: float = 0.15
    key_error_threshold: float | None = None
    max_lhs_size: int = 2
    max_key_size: int = 3
    keep_non_minimal: bool = True
    numeric_bins: int = 0
    filter_trivial_consequents: bool = True
    filter_key_determinants: bool = True

    @property
    def effective_key_threshold(self) -> float:
        if self.key_error_threshold is None:
            return self.error_threshold
        return self.key_error_threshold

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_threshold < 1.0:
            raise ValueError("error_threshold must be in [0, 1)")
        if self.key_error_threshold is not None and not (
            0.0 <= self.key_error_threshold < 1.0
        ):
            raise ValueError("key_error_threshold must be in [0, 1)")
        if self.max_lhs_size < 1:
            raise ValueError("max_lhs_size must be at least 1")
        if self.max_key_size < 1:
            raise ValueError("max_key_size must be at least 1")
        if self.numeric_bins < 0:
            raise ValueError("numeric_bins cannot be negative")


def tane_columns(table: Table, numeric_bins: int) -> dict[str, Sequence[object]]:
    """``table``'s columns as TANE partitions them.

    With ``numeric_bins`` positive, each numeric column is equal-width
    binned by its :func:`~repro.simmining.supertuple.build_binners`
    binner: a finite cell's label is its bin index, and a None, NaN or
    ±inf cell keeps its own value, so it groups as it would unbinned.
    A column with no finite cell has no binner and stays raw.
    """
    binners: dict[str, NumericBinner] = (
        build_binners(table, numeric_bins) if numeric_bins else {}
    )
    columns: dict[str, Sequence[object]] = {}
    for name in table.schema.attribute_names:
        column = table.column(name)
        binner = binners.get(name)
        columns[name] = column if binner is None else _bin_labels(column, binner)
    return columns


def _bin_labels(column: Sequence[object], binner: NumericBinner) -> list[object]:
    values = np.array(column, dtype=np.float64)  # None reads as NaN
    finite = np.isfinite(values)
    indices: list[object] = binner.bin_indices(values[finite]).tolist()
    if len(indices) == len(column):
        return indices
    labels = list(column)
    for position, index in zip(np.flatnonzero(finite).tolist(), indices):
        labels[position] = index
    return labels


def _null_error(partition: StrippedPartition) -> float:
    """g3 error of the majority-value predictor ∅ → A, from π_A."""
    if partition.n_rows == 0:
        return 0.0
    labels = partition.labels
    largest = int(np.bincount(labels[labels >= 0]).max(initial=1))
    return (partition.n_rows - largest) / partition.n_rows


class TaneMiner:
    """Mines a :class:`DependencyModel` from one table (probed sample)."""

    def __init__(self, config: TaneConfig | None = None) -> None:
        self.config = config or TaneConfig()
        self._trivial_rhs: set[int] = set()
        self._pruned: dict[str, int] = {}

    def _prune(self, reason: str) -> None:
        self._pruned[reason] = self._pruned.get(reason, 0) + 1

    # -- public API -----------------------------------------------------------

    def mine(self, table: Table) -> DependencyModel:
        """Run the levelwise search over ``table`` and return the model."""
        config = self.config
        names = table.schema.attribute_names
        n_rows = len(table)
        columns = tane_columns(table, config.numeric_bins)

        model = DependencyModel(names, sample_size=n_rows)
        if n_rows == 0:
            return model

        with OBS.span(
            "afd.tane.mine", n_rows=n_rows, n_attributes=len(names)
        ) as span:
            self._pruned = {}
            cache: dict[tuple[int, ...], StrippedPartition] = {}
            for index, name in enumerate(names):
                cache[(index,)] = partition_single(columns[name], n_rows)

            # Consequents for which the majority-value predictor is already
            # within the threshold (see filter_trivial_consequents).
            self._trivial_rhs = set()
            if config.filter_trivial_consequents:
                for index in range(len(names)):
                    if _null_error(cache[(index,)]) <= config.error_threshold:
                        self._trivial_rhs.add(index)

            max_level = max(config.max_lhs_size + 1, config.max_key_size)
            max_level = min(max_level, len(names))

            # Valid determinant sets per consequent, for minimality checks.
            valid_lhs: dict[int, list[frozenset[int]]] = {
                index: [] for index in range(len(names))
            }
            valid_keys: list[frozenset[int]] = []

            self._mine_keys_at_level_one(names, cache, model, valid_keys)

            level_sizes: dict[int, int] = {1: len(names)}
            for level in range(2, max_level + 1):
                level_sizes[level] = 0
                for subset in combinations(range(len(names)), level):
                    level_sizes[level] += 1
                    partition = self._partition_for(subset, cache)
                    if level <= config.max_key_size:
                        self._consider_key(
                            subset, partition, names, model, valid_keys
                        )
                    if level <= config.max_lhs_size + 1:
                        self._consider_afds(
                            subset, partition, names, cache, model, valid_lhs
                        )
            if OBS.enabled:
                self._record_metrics(
                    span, level_sizes, partitions=len(cache), model=model
                )
        return model

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _partition_for(
        subset: tuple[int, ...],
        cache: dict[tuple[int, ...], StrippedPartition],
    ) -> StrippedPartition:
        """π_subset via product of the (cached) prefix and last attribute."""
        cached = cache.get(subset)
        if cached is not None:
            return cached
        prefix, last = subset[:-1], subset[-1]
        partition = partition_product(
            TaneMiner._partition_for(prefix, cache), cache[(last,)]
        )
        cache[subset] = partition
        return partition

    def _mine_keys_at_level_one(
        self,
        names: tuple[str, ...],
        cache: dict[tuple[int, ...], StrippedPartition],
        model: DependencyModel,
        valid_keys: list[frozenset[int]],
    ) -> None:
        for index, name in enumerate(names):
            error = key_error(cache[(index,)])
            if error <= self.config.effective_key_threshold:
                model.add_key(
                    ApproximateKey(
                        attributes=(name,), error=error, minimal=True
                    )
                )
                valid_keys.append(frozenset((index,)))

    def _record_metrics(
        self,
        span: "Span",
        level_sizes: dict[int, int],
        partitions: int,
        model: DependencyModel,
    ) -> None:
        """Publish one mining run's lattice statistics."""
        registry = OBS.registry
        sizes = registry.gauge(
            "repro_afd_lattice_level_size",
            "Attribute-set lattice nodes visited at each level.",
            labels=("level",),
        )
        for level, size in level_sizes.items():
            sizes.labels(level=level).set(size)
        registry.counter(
            "repro_afd_partitions_computed_total",
            "Stripped partitions materialised (singles + products).",
        ).inc(partitions)
        pruned = registry.counter(
            "repro_afd_candidates_pruned_total",
            "Candidate dependencies rejected, by reason.",
            labels=("reason",),
        )
        for reason, count in self._pruned.items():
            pruned.labels(reason=reason).inc(count)
        artifacts = registry.counter(
            "repro_afd_artifacts_mined_total",
            "AFDs and approximate keys admitted to the model.",
            labels=("kind",),
        )
        artifacts.labels(kind="afd").inc(len(model.afds))
        artifacts.labels(kind="key").inc(len(model.keys))
        span.set_attribute("afds", len(model.afds))
        span.set_attribute("keys", len(model.keys))
        span.set_attribute("partitions", partitions)

    def _consider_key(
        self,
        subset: tuple[int, ...],
        partition: StrippedPartition,
        names: tuple[str, ...],
        model: DependencyModel,
        valid_keys: list[frozenset[int]],
    ) -> None:
        error = key_error(partition)
        if error > self.config.effective_key_threshold:
            return
        as_set = frozenset(subset)
        minimal = not any(known < as_set for known in valid_keys)
        valid_keys.append(as_set)
        if minimal or self.config.keep_non_minimal:
            model.add_key(
                ApproximateKey(
                    attributes=tuple(names[i] for i in subset),
                    error=error,
                    minimal=minimal,
                )
            )

    def _consider_afds(
        self,
        subset: tuple[int, ...],
        partition: StrippedPartition,
        names: tuple[str, ...],
        cache: dict[tuple[int, ...], StrippedPartition],
        model: DependencyModel,
        valid_lhs: dict[int, list[frozenset[int]]],
    ) -> None:
        for rhs in subset:
            if rhs in self._trivial_rhs:
                self._prune("trivial_consequent")
                continue
            lhs = tuple(i for i in subset if i != rhs)
            lhs_partition = self._partition_for(lhs, cache)
            if (
                self.config.filter_key_determinants
                and key_error(lhs_partition) <= self.config.error_threshold
            ):
                self._prune("key_determinant")
                continue
            error = dependency_error(lhs_partition, partition)
            if error > self.config.error_threshold:
                self._prune("error_threshold")
                continue
            lhs_set = frozenset(lhs)
            minimal = not any(known < lhs_set for known in valid_lhs[rhs])
            valid_lhs[rhs].append(lhs_set)
            if minimal or self.config.keep_non_minimal:
                model.add_afd(
                    AFD(
                        lhs=tuple(names[i] for i in lhs),
                        rhs=names[rhs],
                        error=error,
                        minimal=minimal,
                    )
                )


def mine_dependencies(
    table: Table, config: TaneConfig | None = None
) -> DependencyModel:
    """One-call convenience: mine a dependency model from ``table``."""
    return TaneMiner(config).mine(table)
