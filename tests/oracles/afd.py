"""Oracles for TANE's partition machinery (``repro.afd``).

All of them read partitions as tuple-of-tuples ``classes`` and build
row → class dicts, the representation ``StrippedPartition`` had before
it became a label array (docs/PERFORMANCE.md §6 and §11):

* ``dependency_error_per_row`` is the g3 pass that looked up every
  tuple of every π_X class in π_{X∪A};
* ``partition_product_dict_probe`` is the stripped product that built
  a throwaway probe dict per call;
* ``partition_single_dict_groups``, ``partition_product_class_map``,
  ``dependency_error_representative``, ``key_error_classes`` and
  ``null_error_classes`` are the pure-Python passes the label arrays
  replaced.  The product and g3 pass read the row → class map that
  ``StrippedPartition.class_map()`` memoised; here ``class_map``
  rebuilds it per call, since memoising it only saved time.

``bin_numeric_column`` is TANE's pure-Python equal-width binner, which
``repro.afd.tane.tane_columns`` replaced with the supertuple binners
(``build_binners`` and ``NumericBinner.bin_indices``).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.afd.partition import StrippedPartition


def bin_numeric_column(
    values: Sequence[object], n_bins: int
) -> list[object]:
    """Equal-width bin a numeric column; nulls, NaN and ±inf pass through.

    Returns bin labels (ints) for finite values, with the bin edges
    spanning the finite values only; a constant column maps to a single
    bin.  A non-finite cell keeps its own value as its label, so it
    groups as it would unbinned.
    """
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    inf = math.inf
    # -inf < v < inf is False exactly for NaN and ±inf.
    finite = [
        v for v in values if v is not None and -inf < v < inf  # type: ignore[operator]
    ]
    if not finite:
        return list(values)
    low = min(finite)  # type: ignore[type-var]
    high = max(finite)  # type: ignore[type-var]
    if low == high:
        return [
            0 if v is not None and -inf < v < inf else v  # type: ignore[operator]
            for v in values
        ]
    width = (high - low) / n_bins  # type: ignore[operator]
    binned: list[object] = []
    for value in values:
        if value is None:
            binned.append(None)
            continue
        try:
            index = int((value - low) / width)  # type: ignore[operator]
        except (ValueError, OverflowError):  # int() of NaN, of ±inf
            binned.append(value)
            continue
        binned.append(min(index, n_bins - 1))
    return binned


def class_map(partition: StrippedPartition) -> dict[int, int]:
    """Row id → stripped-class id map (singletons absent)."""
    return {
        row_id: class_id
        for class_id, members in enumerate(partition.classes)
        for row_id in members
    }


def partition_single_dict_groups(
    column: Sequence[Hashable], n_rows: int | None = None
) -> StrippedPartition:
    """π_{A} from one column, grouping row ids in a value → rows dict."""
    if n_rows is None:
        n_rows = len(column)
    groups: dict[Hashable, list[int]] = {}
    for row_id, value in enumerate(column):
        groups.setdefault(value, []).append(row_id)
    classes = tuple(
        tuple(members) for members in groups.values() if len(members) >= 2
    )
    return StrippedPartition(classes=classes, n_rows=n_rows)


def partition_product_class_map(
    left: StrippedPartition, right: StrippedPartition
) -> StrippedPartition:
    """Stripped product probing through the smaller input's class map."""
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"partition sizes differ: {left.n_rows} vs {right.n_rows}"
        )
    # Probe through the smaller side: the product is symmetric, and its
    # map is the cheaper one to build and to keep.
    if left.stripped_size > right.stripped_size:
        left, right = right, left

    probe = class_map(left).get
    new_classes: list[tuple[int, ...]] = []
    bucket: dict[int, list[int]] = {}
    for members in right.classes:
        for row_id in members:
            left_class = probe(row_id)
            if left_class is not None:
                bucket.setdefault(left_class, []).append(row_id)
        for group in bucket.values():
            if len(group) >= 2:
                new_classes.append(tuple(group))
        bucket.clear()
    return StrippedPartition(classes=tuple(new_classes), n_rows=left.n_rows)


def dependency_error_representative(
    lhs: StrippedPartition, combined: StrippedPartition
) -> float:
    """g3 error of ``X → A`` with one lhs lookup per combined class."""
    if lhs.n_rows != combined.n_rows:
        raise ValueError(
            f"partition sizes differ: {lhs.n_rows} vs {combined.n_rows}"
        )
    if lhs.n_rows == 0:
        return 0.0

    lhs_classes = lhs.classes
    # Any tuple of an lhs class survives on its own (a combined
    # singleton), so every class keeps at least one.
    largest = [1] * len(lhs_classes)
    lhs_class = class_map(lhs)
    for members in combined.classes:
        class_id = lhs_class.get(members[0])
        if class_id is None:
            raise ValueError(
                f"combined class of row {members[0]} is not inside an lhs "
                "class: combined does not refine lhs"
            )
        if len(members) > largest[class_id]:
            largest[class_id] = len(members)
    removed = sum(map(len, lhs_classes)) - sum(largest)
    return removed / lhs.n_rows


def key_error_classes(partition: StrippedPartition) -> float:
    """g3 error of ``X`` as a key, counted from π_X's classes."""
    if partition.n_rows == 0:
        return 0.0
    classes = partition.classes
    duplicates = sum(map(len, classes)) - len(classes)
    return duplicates / partition.n_rows


def null_error_classes(partition: StrippedPartition) -> float:
    """g3 error of the majority-value predictor ∅ → A, from π_A's classes."""
    if partition.n_rows == 0:
        return 0.0
    largest = max(
        (len(members) for members in partition.classes), default=1
    )
    return (partition.n_rows - largest) / partition.n_rows


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
