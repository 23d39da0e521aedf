"""Oracles for the bulk load path of ``repro.db.table``.

These are the per-row loops ``Table.extend``, ``Table.sample`` and
``Table.filter`` ran before every bulk load went through one validated
batch and one ``add_many`` per index (docs/PERFORMANCE.md §12): each
row is validated and inserted on its own, indexes growing one
``add`` at a time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.db.table import Row, Table


def extend_per_row(table: Table, rows: Iterable[Sequence[object]]) -> int:
    """Bulk append; returns the number of rows inserted."""
    count = 0
    for row in rows:
        table.insert(row)
        count += 1
    return count


def sample_per_row(table: Table, row_ids: Iterable[int]) -> Table:
    """New table holding copies of the given rows (same schema)."""
    derived = Table(table.schema)
    for row_id in row_ids:
        derived.insert(table.row(row_id))
    return derived


def filter_per_row(table: Table, keep: Callable[[Row], bool]) -> Table:
    """New table with rows passing ``keep`` (same schema)."""
    derived = Table(table.schema)
    for row in table:
        if keep(row):
            derived.insert(row)
    return derived
