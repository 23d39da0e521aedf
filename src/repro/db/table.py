"""In-memory table: row storage plus eager index maintenance.

A :class:`Table` stores rows as positional tuples in an append-only
list, resolves attribute names through its :class:`RelationSchema`,
and by default maintains a :class:`HashIndex` per categorical
attribute and a :class:`SortedIndex` per numeric attribute — the
combination the AIMQ probing and relaxation workloads need.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.db.errors import UnknownAttributeError
from repro.db.index import HashIndex, SortedIndex
from repro.db.schema import RelationSchema

__all__ = ["Table"]

Row = tuple


class Table:
    """Mutable (append-only) in-memory relation instance.

    Parameters
    ----------
    schema:
        The typed relation schema.
    auto_index:
        When True (default), maintain a hash index per categorical
        attribute and a sorted index per numeric attribute.
    """

    def __init__(self, schema: RelationSchema, auto_index: bool = True) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self._writes = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        if auto_index:
            for attribute in schema:
                if attribute.is_categorical:
                    self.create_hash_index(attribute.name)
                else:
                    self.create_sorted_index(attribute.name)

    # -- index management -----------------------------------------------------

    def create_hash_index(self, attribute: str) -> HashIndex:
        """Create (or return the existing) hash index on ``attribute``."""
        if attribute not in self._hash_indexes:
            index = HashIndex(attribute)
            index.add_many(self.column(attribute), range(len(self)))
            self._hash_indexes[attribute] = index
            self._writes += 1
        return self._hash_indexes[attribute]

    def create_sorted_index(self, attribute: str) -> SortedIndex:
        """Create (or return the existing) sorted index on ``attribute``."""
        if attribute not in self._sorted_indexes:
            index = SortedIndex(attribute)
            index.add_many(self.column(attribute), range(len(self)))
            self._sorted_indexes[attribute] = index
            self._writes += 1
        return self._sorted_indexes[attribute]

    def hash_index(self, attribute: str) -> HashIndex | None:
        return self._hash_indexes.get(attribute)

    def sorted_index(self, attribute: str) -> SortedIndex | None:
        return self._sorted_indexes.get(attribute)

    # -- writes ---------------------------------------------------------------

    def insert(self, row: Sequence[object]) -> int:
        """Validate and append one row; return its row id."""
        validated = self.schema.validate_row(row)
        row_id = len(self._rows)
        self._rows.append(validated)
        for attribute, index in self._hash_indexes.items():
            index.add(validated[self.schema.position(attribute)], row_id)
        for attribute, sorted_index in self._sorted_indexes.items():
            sorted_index.add(validated[self.schema.position(attribute)], row_id)
        self._writes += 1
        return row_id

    def insert_mapping(self, mapping: Mapping[str, object]) -> int:
        """Append one row given as an ``{attribute: value}`` mapping."""
        return self.insert(self.schema.row_from_mapping(dict(mapping)))

    def extend(self, rows: Iterable[Sequence[object]]) -> int:
        """Bulk append; returns the number of rows inserted.

        All or nothing: every row is validated before any is stored, so
        a bad row leaves the table and its indexes as they were.  Each
        index then takes its whole column at once, under one shared list
        of new row ids, in the order a loop of :meth:`insert` calls
        would have added them.
        """
        validated = self.schema.validate_rows(rows)
        start = len(self._rows)
        self._rows.extend(validated)
        row_ids = list(range(start, start + len(validated)))
        for attribute, index in self._hash_indexes.items():
            position = self.schema.position(attribute)
            index.add_many(map(itemgetter(position), validated), row_ids)
        for attribute, sorted_index in self._sorted_indexes.items():
            position = self.schema.position(attribute)
            sorted_index.add_many(map(itemgetter(position), validated), row_ids)
        self._writes += 1
        return len(validated)

    # -- reads ----------------------------------------------------------------

    @property
    def writes(self) -> int:
        """Writes so far: inserts, bulk extends and index creations.

        Anything derived from the rows or the index set (an executor's
        access paths, say) is stale once this number moves.
        """
        return self._writes

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def row(self, row_id: int) -> Row:
        return self._rows[row_id]

    def rows(self, row_ids: Iterable[int] | None = None) -> list[Row]:
        if row_ids is None:
            return list(self)
        return list(map(self._rows.__getitem__, row_ids))

    def column(self, attribute: str) -> list[object]:
        """Materialise one column in row order."""
        position = self.schema.position(attribute)
        return [row[position] for row in self]

    def columns(self, attributes: Sequence[str]) -> list[tuple[object, ...]]:
        """Materialise several columns as a list of value tuples."""
        positions = self.schema.positions(attributes)
        return [tuple(row[p] for p in positions) for row in self]

    def distinct_values(self, attribute: str) -> list[object]:
        """Distinct non-null values of ``attribute``.

        Served from the hash index when one exists, otherwise by a scan.
        """
        index = self._hash_indexes.get(attribute)
        if index is not None:
            return index.distinct_values()
        position = self.schema.position(attribute)
        seen: dict[object, None] = {}
        for row in self:
            value = row[position]
            if value is not None:
                seen.setdefault(value)
        return list(seen)

    def value_counts(self, attribute: str) -> dict[object, int]:
        """Histogram of non-null values of ``attribute``."""
        index = self._hash_indexes.get(attribute)
        if index is not None:
            return index.value_counts()
        position = self.schema.position(attribute)
        counts: dict[object, int] = {}
        for row in self:
            value = row[position]
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
        return counts

    def numeric_extent(self, attribute: str) -> tuple[float, float] | None:
        """(min, max) of a numeric attribute's finite cells, or None.

        NaN and ±inf cells are skipped like nulls: NaN is unordered, and
        an infinite end would stretch every range built on the extent
        over the finite values, so neither bounds anything.
        """
        if self.schema.attribute(attribute).is_categorical:
            raise UnknownAttributeError(attribute, self.schema.name)
        index = self._sorted_indexes.get(attribute)
        if index is not None:
            return index.finite_extent()  # type: ignore[return-value]
        # ``-inf < v < inf`` is False exactly for NaN and ±inf.
        values = [
            v
            for v in self.column(attribute)
            if v is not None and -math.inf < v < math.inf  # type: ignore[operator]
        ]
        if not values:
            return None
        return (min(values), max(values))  # type: ignore[arg-type]

    # -- derivation -----------------------------------------------------------

    def sample(self, row_ids: Iterable[int]) -> "Table":
        """New table holding copies of the given rows (same schema)."""
        derived = Table(self.schema)
        derived.extend(map(self.row, row_ids))
        return derived

    def filter(self, keep: Callable[[Row], bool]) -> "Table":
        """New table with rows passing ``keep`` (same schema)."""
        derived = Table(self.schema)
        derived.extend(row for row in self if keep(row))
        return derived

    def to_mappings(self) -> list[dict[str, object]]:
        """All rows rendered as dicts (test/debug convenience)."""
        return [self.schema.row_to_mapping(row) for row in self]
