"""Oracles for TANE's partition machinery (``repro.afd``).

``dependency_error_per_row`` is the g3 pass that looked up every tuple
of every π_X class in π_{X∪A}; ``partition_product_dict_probe`` is the
stripped product that built a throwaway probe dict per call.  Both were
replaced by passes that read memoised row→class maps
(docs/PERFORMANCE.md §11).
"""

from __future__ import annotations

from repro.afd.partition import StrippedPartition


def dependency_error_per_row(
    lhs: StrippedPartition, combined: StrippedPartition
) -> float:
    """g3 error of ``X → A`` with one ``combined.class_of`` call per row."""
    if lhs.n_rows != combined.n_rows:
        raise ValueError(
            f"partition sizes differ: {lhs.n_rows} vs {combined.n_rows}"
        )
    if lhs.n_rows == 0:
        return 0.0

    removed = 0
    for members in lhs.classes:
        # Count how members distribute over combined's stripped classes;
        # tuples absent from every stripped class are singletons there.
        counts: dict[int, int] = {}
        singleton_best = 0
        for row_id in members:
            class_id = combined.class_of(row_id)
            if class_id is None:
                singleton_best = 1
            else:
                counts[class_id] = counts.get(class_id, 0) + 1
        largest = max(counts.values()) if counts else 0
        largest = max(largest, singleton_best)
        removed += len(members) - largest
    return removed / lhs.n_rows


def partition_product_dict_probe(
    left: StrippedPartition, right: StrippedPartition
) -> StrippedPartition:
    """Stripped product π_left · π_right with a fresh probe dict per call."""
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"partition sizes differ: {left.n_rows} vs {right.n_rows}"
        )
    # Iterate over the smaller side's classes for the probe table: the
    # product is symmetric, and probing with fewer classes is cheaper.
    if left.stripped_size > right.stripped_size:
        left, right = right, left

    probe: dict[int, int] = {}
    for class_id, members in enumerate(left.classes):
        for row_id in members:
            probe[row_id] = class_id

    new_classes: list[tuple[int, ...]] = []
    bucket: dict[int, list[int]] = {}
    for members in right.classes:
        for row_id in members:
            left_class = probe.get(row_id)
            if left_class is not None:
                bucket.setdefault(left_class, []).append(row_id)
        for group in bucket.values():
            if len(group) >= 2:
                new_classes.append(tuple(group))
        bucket.clear()
    return StrippedPartition(classes=tuple(new_classes), n_rows=left.n_rows)
