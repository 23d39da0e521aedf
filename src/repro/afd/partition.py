"""Stripped partitions — TANE's core data structure.

A partition :math:`\\pi_X` groups tuple ids by their values on the
attribute set ``X``.  TANE (Huhtala et al., ICDE 1998) works with
*stripped* partitions: equivalence classes of size one are dropped,
because singletons can never witness a dependency violation.  Two facts
make everything else work:

* :math:`X \\to A` holds exactly when :math:`\\pi_X = \\pi_{X \\cup A}`
  (refinement adds nothing), and
* :math:`\\pi_{X \\cup Y}` is the *product* :math:`\\pi_X \\cdot \\pi_Y`,
  computable in O(n) with two scratch arrays.

The product implementation below is the standard TANE one (their
Algorithm "stripped product"), with the probe table ``T`` being the
smaller input's memoised row→class map: TANE reuses each lattice
partition as a product input many times, so the table is built once
per partition rather than once per product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

__all__ = ["StrippedPartition", "partition_single", "partition_product"]


@dataclass(frozen=True)
class StrippedPartition:
    """A stripped partition over ``n_rows`` tuple ids.

    ``classes`` holds only equivalence classes with at least two
    members; every tuple id not present in any class is implicitly a
    singleton class.
    """

    classes: tuple[tuple[int, ...], ...]
    n_rows: int
    # row id -> stripped-class id, built lazily on the first class_map()
    # call and kept.  Only probe-side partitions ever build it: the
    # smaller input of a product and the determinant of a g3 error.
    # Products and the combined partitions g3 reads never do, which is
    # what keeps the lattice's memory down.
    _class_of: dict[int, int] | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    # -- size measures ----------------------------------------------------

    @property
    def stripped_size(self) -> int:
        """‖π‖: number of tuples that appear in a non-singleton class."""
        return sum(map(len, self.classes))

    @property
    def num_stripped_classes(self) -> int:
        return len(self.classes)

    @property
    def num_classes(self) -> int:
        """Total classes including implicit singletons: |π| unstripped."""
        singletons = self.n_rows - self.stripped_size
        return singletons + len(self.classes)

    @property
    def rank(self) -> int:
        """TANE's error-free check value: ‖π‖ − |stripped classes|.

        π_X == π_{X∪A} (i.e. X→A exactly) iff both partitions have the
        same rank, because refinement can only split classes.
        """
        return self.stripped_size - len(self.classes)

    def class_map(self) -> dict[int, int]:
        """Memoised row id → stripped-class id map (singletons absent).

        Callers must not mutate it.
        """
        class_of = self._class_of
        if class_of is None:
            class_of = {
                row_id: class_id
                for class_id, members in enumerate(self.classes)
                for row_id in members
            }
            object.__setattr__(self, "_class_of", class_of)
        return class_of

    def class_of(self, row_id: int) -> int | None:
        """Stripped-class id containing ``row_id``, or None (singleton)."""
        return self.class_map().get(row_id)

    def refines(self, other: "StrippedPartition") -> bool:
        """True when every class of self lies inside a class of other.

        Used only for assertions and property tests; the mining path
        relies on ranks instead.
        """
        for members in self.classes:
            first = members[0]
            target = other.class_of(first)
            for row_id in members[1:]:
                if other.class_of(row_id) != target:
                    return False
            if target is None and len(members) > 1:
                return False
        return True


def partition_single(
    column: Sequence[Hashable], n_rows: int | None = None
) -> StrippedPartition:
    """Build π_{A} from one column of values.

    Null values are treated as a regular (shared) value: two nulls are
    considered equal, which matches how TANE handles missing data and
    keeps partitions total.
    """
    if n_rows is None:
        n_rows = len(column)
    groups: dict[Hashable, list[int]] = {}
    for row_id, value in enumerate(column):
        groups.setdefault(value, []).append(row_id)
    classes = tuple(
        tuple(members) for members in groups.values() if len(members) >= 2
    )
    return StrippedPartition(classes=classes, n_rows=n_rows)


def partition_product(
    left: StrippedPartition, right: StrippedPartition
) -> StrippedPartition:
    """Compute the stripped product π_left · π_right in O(n).

    Implements TANE's two-array algorithm: the smaller input's
    row→class map is the probe table, and each class of the other
    input is split by it.  The map is memoised on that input (see
    :meth:`StrippedPartition.class_map`), never on the product.
    """
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"partition sizes differ: {left.n_rows} vs {right.n_rows}"
        )
    # Probe through the smaller side: the product is symmetric, and its
    # map is the cheaper one to build and to keep.
    if left.stripped_size > right.stripped_size:
        left, right = right, left

    probe = left.class_map().get
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
