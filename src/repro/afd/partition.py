"""Stripped partitions — TANE's core data structure.

A partition :math:`\\pi_X` groups tuple ids by their values on the
attribute set ``X``.  TANE (Huhtala et al., ICDE 1998) works with
*stripped* partitions: equivalence classes of size one are dropped,
because singletons can never witness a dependency violation.  Two facts
make everything else work:

* :math:`X \\to A` holds exactly when :math:`\\pi_X = \\pi_{X \\cup A}`
  (refinement adds nothing), and
* :math:`\\pi_{X \\cup Y}` is the *product* :math:`\\pi_X \\cdot \\pi_Y`.

A partition is stored as one read-only integer array of length
``n_rows``, the row → class *labels*: ``-1`` for a row stripped as a
singleton, and dense class ids ``0..k-1`` for the rest.  Class ids
follow the canonical class order (see :func:`partition_single` and
:func:`partition_product`), and a class's members are its rows in
ascending order, so ``classes`` can always be rebuilt from the labels.
The product, g3 and key errors are whole-array numpy passes over the
labels (docs/PERFORMANCE.md §6).
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "StrippedPartition",
    "partition_single",
    "partition_product",
    "refinement_owner",
]

Labels = NDArray[np.intp]


def _frozen(labels: Labels) -> Labels:
    labels.setflags(write=False)
    return labels


class StrippedPartition:
    """A stripped partition over ``n_rows`` tuple ids.

    Built from explicit ``classes`` (each with at least two distinct
    row ids below ``n_rows``, no row in two classes; class ``i`` gets
    id ``i``), or by :func:`partition_single` and
    :func:`partition_product`.  Every tuple id not present in any class
    is implicitly a singleton class.
    """

    __slots__ = ("labels", "n_rows", "num_stripped_classes", "stripped_size")

    labels: Labels
    n_rows: int
    #: Number of non-singleton classes, k.
    num_stripped_classes: int
    #: ‖π‖: number of tuples that appear in a non-singleton class.
    stripped_size: int

    def __init__(self, classes: Sequence[Sequence[int]], n_rows: int) -> None:
        labels = np.full(n_rows, -1, dtype=np.intp)
        stripped_size = 0
        for class_id, members in enumerate(classes):
            if len(members) < 2:
                raise ValueError(f"class {class_id} has fewer than two rows")
            for row_id in members:
                if not 0 <= row_id < n_rows:
                    raise ValueError(f"row {row_id} is outside 0..{n_rows - 1}")
                if labels[row_id] >= 0:
                    raise ValueError(f"row {row_id} is in two classes")
                labels[row_id] = class_id
            stripped_size += len(members)
        self._set(_frozen(labels), len(classes), stripped_size)

    @classmethod
    def from_labels(
        cls, labels: Labels, num_stripped_classes: int, stripped_size: int
    ) -> "StrippedPartition":
        """Wrap a label array (made read-only here) without copying it."""
        partition = cls.__new__(cls)
        partition._set(_frozen(labels), num_stripped_classes, stripped_size)
        return partition

    def _set(
        self, labels: Labels, num_stripped_classes: int, stripped_size: int
    ) -> None:
        self.labels = labels
        self.n_rows = len(labels)
        self.num_stripped_classes = num_stripped_classes
        self.stripped_size = stripped_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrippedPartition):
            return NotImplemented
        return self.n_rows == other.n_rows and bool(
            np.array_equal(self.labels, other.labels)
        )

    def __repr__(self) -> str:
        return f"StrippedPartition(classes={self.classes!r}, n_rows={self.n_rows})"

    # -- derived views ----------------------------------------------------

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Non-singleton classes in class-id order, members ascending.

        Rebuilt from the labels on every call; the mining path never
        reads it.
        """
        members: list[list[int]] = [[] for _ in range(self.num_stripped_classes)]
        for row_id, label in enumerate(self.labels.tolist()):
            if label >= 0:
                members[label].append(row_id)
        return tuple(map(tuple, members))

    @property
    def num_classes(self) -> int:
        """Total classes including implicit singletons: |π| unstripped."""
        singletons = self.n_rows - self.stripped_size
        return singletons + self.num_stripped_classes

    @property
    def rank(self) -> int:
        """TANE's error-free check value: ‖π‖ − |stripped classes|.

        π_X == π_{X∪A} (i.e. X→A exactly) iff both partitions have the
        same rank, because refinement can only split classes.
        """
        return self.stripped_size - self.num_stripped_classes

    def class_of(self, row_id: int) -> int | None:
        """Stripped-class id containing ``row_id``, or None (singleton)."""
        if not 0 <= row_id < self.n_rows:
            return None
        label = int(self.labels[row_id])
        return None if label < 0 else label

    def refines(self, other: "StrippedPartition") -> bool:
        """True when every class of self lies inside a class of other.

        Used only for assertions and property tests; the mining path
        relies on ranks instead.
        """
        return refinement_owner(self, other) is not None


def refinement_owner(
    fine: StrippedPartition, coarse: StrippedPartition
) -> Labels | None:
    """``coarse``'s class id for each class of ``fine``.

    None when some class of ``fine`` is not inside one class of
    ``coarse``, that is, when ``fine`` does not refine ``coarse``;
    ``ValueError`` when the two range over different row counts.
    """
    if fine.n_rows != coarse.n_rows:
        raise ValueError(
            f"partition sizes differ: {fine.n_rows} vs {coarse.n_rows}"
        )
    in_class = fine.labels >= 0
    fine_labels = fine.labels[in_class]
    coarse_labels = coarse.labels[in_class]
    owner = np.empty(fine.num_stripped_classes, dtype=np.intp)
    # Any member's coarse class will do; the check below makes every
    # member agree with the one written.
    owner[fine_labels] = coarse_labels
    if (coarse_labels < 0).any() or (owner[fine_labels] != coarse_labels).any():
        return None
    return owner


def partition_single(
    column: Sequence[Hashable], n_rows: int | None = None
) -> StrippedPartition:
    """Build π_{A} from one column of values.

    Null values are treated as a regular (shared) value: two nulls are
    considered equal, which matches how TANE handles missing data and
    keeps partitions total.  Values are coded through a dict, so cells
    group exactly when they are equal dict keys (``10`` with ``10.0``;
    a NaN only with itself), and classes are numbered in the order of
    their values' first rows.  ``n_rows``, when given, must equal
    ``len(column)``.
    """
    if n_rows is None:
        n_rows = len(column)
    if len(column) != n_rows:
        raise ValueError(f"column has {len(column)} rows, expected {n_rows}")
    # First-occurrence order, so codes (and class ids) follow first rows.
    code_of = {value: code for code, value in enumerate(dict.fromkeys(column))}
    codes = np.fromiter(map(code_of.__getitem__, column), dtype=np.intp, count=n_rows)
    counts = np.bincount(codes, minlength=len(code_of))
    kept = counts >= 2
    num_classes = int(np.count_nonzero(kept))
    class_of_code = np.full(len(code_of), -1, dtype=np.intp)
    class_of_code[kept] = np.arange(num_classes, dtype=np.intp)
    return StrippedPartition.from_labels(
        class_of_code[codes], num_classes, int(counts[kept].sum())
    )


def partition_product(
    left: StrippedPartition, right: StrippedPartition
) -> StrippedPartition:
    """Compute the stripped product π_left · π_right.

    The rows in a class of both inputs are grouped by the pair key
    ``outer_label * k_inner + inner_label`` with one stable argsort;
    groups of two or more rows become the product's classes.  The input
    with the larger ‖π‖ is the outer one, and the product's classes are
    numbered by (outer class, first row): the order in which TANE's
    two-array algorithm, splitting each outer class by the other input,
    emits them.
    """
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"partition sizes differ: {left.n_rows} vs {right.n_rows}"
        )
    if left.stripped_size > right.stripped_size:
        left, right = right, left
    inner, outer = left.labels, right.labels
    width = left.num_stripped_classes

    rows = np.flatnonzero((inner >= 0) & (outer >= 0))
    # Keys in the narrowest unsigned type that holds them: one sort of
    # 16-bit keys is a radix sort.  Stability keeps each group's rows
    # ascending, so a group's first element is its first row.
    keys = (outer[rows] * width + inner[rows]).astype(
        np.min_scalar_type(right.num_stripped_classes * width)
    )
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_rows = rows[order]
    group_starts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=group_starts[1:])
    starts = np.flatnonzero(group_starts)
    sizes = np.diff(starts, append=len(sorted_keys))
    kept = sizes >= 2
    first_rows = sorted_rows[starts[kept]]
    class_order = np.lexsort((first_rows, outer[first_rows]))
    class_of_group = np.full(len(starts), -1, dtype=np.intp)
    class_of_group[np.flatnonzero(kept)[class_order]] = np.arange(
        len(first_rows), dtype=np.intp
    )
    labels = np.full(left.n_rows, -1, dtype=np.intp)
    labels[sorted_rows] = np.repeat(class_of_group, sizes)
    return StrippedPartition.from_labels(
        labels, len(first_rows), int(sizes[kept].sum())
    )
