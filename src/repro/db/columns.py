"""Typed columnar storage: the data plane behind :class:`ColumnarTable`.

Rows are decomposed into per-attribute columns at insert time:

* **categorical** attributes are dictionary-encoded — each distinct
  string gets a small integer code (in order of first appearance, so
  encodings are deterministic) and the column stores one code per row,
  with ``-1`` marking null;
* **numeric** attributes keep their raw Python values (``int`` /
  ``float`` / ``None``) plus a lazily built ``float64`` array and a
  validity mask for vectorized evaluation.

Rows are grouped into fixed-size *blocks* (:data:`DEFAULT_BLOCK_ROWS`
rows each).  Every ``(column, block)`` pair has a :class:`BlockStats`
zone map — min/max for numerics, the distinct code set (when small) for
categoricals, plus null presence — built lazily after bulk load and
reused until the column grows.  The vectorized executor consults zone
maps to prune whole blocks before touching a single value.

Exactness contract
------------------

The vectorized paths must be *bit-identical* to per-row Python
evaluation.  Two float64 hazards are tracked explicitly:

* an ``int`` cell beyond ``±2**53`` has no exact float64 image; a
  column containing one reports ``exact=False`` and the executor falls
  back to the row path for the whole query;
* a NaN cell never satisfies a range or equality predicate but *does*
  satisfy ``Ne``; blocks containing NaN report unbounded extents so
  zone maps never prune on garbage min/max.

Everything here is private to ``repro.db`` (reprolint REP004): outside
code sees only ``Table``-shaped reads and the facade's probe interface.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

from repro.db.schema import RelationSchema

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "MAX_EXACT_INT",
    "ZONE_MAP_DISTINCT_LIMIT",
    "BlockStats",
    "CategoricalColumn",
    "NumericColumn",
    "ColumnStore",
]

#: Rows per block; zone maps and vectorized masks work block-at-a-time.
DEFAULT_BLOCK_ROWS = 4096

#: A categorical block's distinct-code set is kept only while it stays
#: at or below this size; beyond it the zone map stores None (no
#: pruning for that block, membership tests would cost what they save).
ZONE_MAP_DISTINCT_LIMIT = 64

#: Largest magnitude an int may have and still be exactly representable
#: in float64 (2**53); columns holding larger ints disable vectorization.
MAX_EXACT_INT = 2**53

class BlockStats:
    """Zone-map entry for one ``(column, block)`` pair.

    For numeric columns ``low``/``high`` bound the block's non-null,
    non-NaN values (both None when no such value exists *or* when the
    block holds a NaN — an unbounded block admits every range).  For
    categorical columns ``codes`` is the distinct dictionary-code set,
    or None when it overflowed :data:`ZONE_MAP_DISTINCT_LIMIT`.
    ``non_null`` counts non-null cells (NaN included: ``Ne`` matches
    them); ``has_null`` records whether any cell is null.
    """

    __slots__ = ("low", "high", "has_null", "non_null", "codes", "unbounded")

    def __init__(
        self,
        low: int | float | None,
        high: int | float | None,
        has_null: bool,
        non_null: int,
        codes: frozenset[int] | None,
        unbounded: bool,
    ) -> None:
        self.low = low
        self.high = high
        self.has_null = has_null
        self.non_null = non_null
        self.codes = codes
        self.unbounded = unbounded


class CategoricalColumn:
    """Dictionary-encoded string column (``-1`` codes null)."""

    __slots__ = ("codes", "dictionary", "_code_of", "_array", "_array_rows")

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.dictionary: list[str] = []
        self._code_of: dict[str, int] = {}
        self._array: Any = None
        self._array_rows = 0

    def append(self, value: str | None) -> None:
        if value is None:
            self.codes.append(-1)
            return
        code = self._code_of.get(value)
        if code is None:
            code = len(self.dictionary)
            self._code_of[value] = code
            self.dictionary.append(value)
        self.codes.append(code)

    def value(self, row_id: int) -> str | None:
        code = self.codes[row_id]
        return None if code < 0 else self.dictionary[code]

    def code_for(self, value: object) -> int | None:
        """Dictionary code of ``value``; None when absent or not a str."""
        if isinstance(value, str):
            return self._code_of.get(value)
        return None

    def code_array(self) -> Any:
        """Cached int64 numpy array of codes."""
        if self._array is None or self._array_rows != len(self.codes):
            self._array = np.asarray(self.codes, dtype=np.int64)
            self._array_rows = len(self.codes)
        return self._array


class NumericColumn:
    """Raw numeric column with an optional float64 shadow array."""

    __slots__ = ("values", "_exact", "_array", "_valid", "_array_rows")

    def __init__(self) -> None:
        self.values: list[int | float | None] = []
        self._exact = True
        self._array: Any = None
        self._valid: Any = None
        self._array_rows = 0

    def append(self, value: int | float | None) -> None:
        if isinstance(value, int) and (
            value > MAX_EXACT_INT or value < -MAX_EXACT_INT
        ):
            self._exact = False
        self.values.append(value)

    @property
    def exact(self) -> bool:
        """True while every int cell is exactly representable in float64."""
        return self._exact

    def value(self, row_id: int) -> int | float | None:
        return self.values[row_id]

    def arrays(self) -> tuple[Any, Any]:
        """Cached ``(float64 values, bool validity)`` pair.

        Null cells hold NaN in the value array and False in the
        validity mask; genuine NaN cells stay valid (``Ne`` matches
        them).
        """
        n = len(self.values)
        if self._array is None or self._array_rows != n:
            vals = np.empty(n, dtype=np.float64)
            valid = np.ones(n, dtype=bool)
            for index, value in enumerate(self.values):
                if value is None:
                    vals[index] = np.nan
                    valid[index] = False
                else:
                    vals[index] = value
            self._array = vals
            self._valid = valid
            self._array_rows = n
        return (self._array, self._valid)


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and math.isnan(value)


class ColumnStore:
    """Per-attribute columns plus block-level zone maps for one relation."""

    def __init__(
        self,
        schema: RelationSchema,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        zone_maps: bool = True,
    ) -> None:
        if block_rows < 1:
            raise ValueError("block_rows must be at least 1")
        self.schema = schema
        self.block_rows = block_rows
        self.zone_maps_enabled = zone_maps
        self._columns: list[CategoricalColumn | NumericColumn] = [
            CategoricalColumn() if attribute.is_categorical else NumericColumn()
            for attribute in schema
        ]
        self._n_rows = 0
        self._zone_maps: list[list[BlockStats]] = [[] for _ in schema]
        self._zone_rows: list[int] = [0 for _ in schema]

    # -- writes ----------------------------------------------------------------

    def append(self, row: tuple[object, ...]) -> int:
        """Append one schema-validated row; return its row id."""
        for column, value in zip(self._columns, row):
            column.append(value)  # type: ignore[arg-type]
        row_id = self._n_rows
        self._n_rows += 1
        return row_id

    # -- row-shaped reads ------------------------------------------------------

    def __len__(self) -> int:
        return self._n_rows

    def row(self, row_id: int) -> tuple[object, ...]:
        return tuple(column.value(row_id) for column in self._columns)

    def iter_rows(self) -> Iterator[tuple[object, ...]]:
        columns = self._columns
        for row_id in range(self._n_rows):
            yield tuple(column.value(row_id) for column in columns)

    # -- column-shaped reads ---------------------------------------------------

    def column_at(self, position: int) -> CategoricalColumn | NumericColumn:
        return self._columns[position]

    def column_values(self, attribute: str) -> list[object]:
        """Materialise one column in row order (decoded)."""
        column = self._columns[self.schema.position(attribute)]
        if isinstance(column, CategoricalColumn):
            dictionary = column.dictionary
            return [
                None if code < 0 else dictionary[code] for code in column.codes
            ]
        return list(column.values)

    def distinct_values(self, attribute: str) -> list[str]:
        """Distinct non-null values of a categorical attribute.

        The dictionary is built in order of first appearance, so this
        matches the scan-order contract of ``Table.distinct_values``.
        """
        column = self._columns[self.schema.position(attribute)]
        if not isinstance(column, CategoricalColumn):
            raise TypeError(f"attribute {attribute!r} is not categorical")
        return list(column.dictionary)

    def value_counts(self, attribute: str) -> dict[str, int]:
        """Histogram of non-null values of a categorical attribute."""
        column = self._columns[self.schema.position(attribute)]
        if not isinstance(column, CategoricalColumn):
            raise TypeError(f"attribute {attribute!r} is not categorical")
        per_code = [0 for _ in column.dictionary]
        for code in column.codes:
            if code >= 0:
                per_code[code] += 1
        return {
            value: per_code[code]
            for code, value in enumerate(column.dictionary)
            if per_code[code] > 0
        }

    # -- blocks and zone maps --------------------------------------------------

    def n_blocks(self) -> int:
        return (self._n_rows + self.block_rows - 1) // self.block_rows

    def block_bounds(self, block: int) -> tuple[int, int]:
        """Half-open row-id range ``[start, stop)`` of ``block``."""
        start = block * self.block_rows
        return (start, min(start + self.block_rows, self._n_rows))

    def zone_map(self, position: int, block: int) -> BlockStats:
        """Zone-map entry for ``(column, block)``; built lazily, cached.

        Appending rows invalidates only the trailing (possibly partial)
        block, so bulk-load-then-read workloads pay one build pass.
        """
        if self._zone_rows[position] != self._n_rows:
            stats = self._zone_maps[position]
            first_stale = self._zone_rows[position] // self.block_rows
            del stats[first_stale:]
            for stale in range(first_stale, self.n_blocks()):
                stats.append(self._compute_stats(position, stale))
            self._zone_rows[position] = self._n_rows
        return self._zone_maps[position][block]

    def _compute_stats(self, position: int, block: int) -> BlockStats:
        start, stop = self.block_bounds(block)
        column = self._columns[position]
        has_null = False
        non_null = 0
        if isinstance(column, CategoricalColumn):
            seen: dict[int, None] = {}
            overflow = False
            for code in column.codes[start:stop]:
                if code < 0:
                    has_null = True
                    continue
                non_null += 1
                if not overflow:
                    seen.setdefault(code)
                    if len(seen) > ZONE_MAP_DISTINCT_LIMIT:
                        overflow = True
            codes = None if overflow else frozenset(seen)
            return BlockStats(
                low=None,
                high=None,
                has_null=has_null,
                non_null=non_null,
                codes=codes,
                unbounded=False,
            )
        low: int | float | None = None
        high: int | float | None = None
        unbounded = False
        for value in column.values[start:stop]:
            if value is None:
                has_null = True
                continue
            non_null += 1
            if _is_nan(value):
                # NaN poisons min/max; mark the block unbounded so no
                # range or equality predicate ever prunes it wrongly.
                unbounded = True
                continue
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        if unbounded:
            low = None
            high = None
        return BlockStats(
            low=low,
            high=high,
            has_null=has_null,
            non_null=non_null,
            codes=None,
            unbounded=unbounded,
        )
