"""CSV round-trip for tables.

Lets experiments persist generated datasets and reload them later so
benchmarks do not need to re-synthesise data on every run.  The format
is a plain CSV with a header row; typing is recovered from the schema
(a numeric cell is parsed as an int when it is one and as a float
otherwise, so ``inf``, ``-inf`` and ``nan`` round-trip; empty cells
become null).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from repro.db.errors import SchemaError
from repro.db.schema import RelationSchema
from repro.db.table import Table

__all__ = ["write_csv", "read_csv"]


def write_csv(table: Table, path: str | Path) -> int:
    """Write ``table`` to ``path``; return the number of data rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.attribute_names)
        count = 0
        for row in table:
            writer.writerow(["" if v is None else v for v in row])
            count += 1
    return count


def _parse_numeric(text: str) -> object:
    """An int when ``text`` is one, else a float; raises ValueError."""
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_categorical(text: str) -> object:
    return None if text == "" else text


def read_csv(schema: RelationSchema, path: str | Path) -> Table:
    """Load a table previously written by :func:`write_csv`.

    The header must list exactly the schema's attributes, though column
    order in the file may differ from schema order.  Every malformed
    row or cell raises :class:`SchemaError` naming ``path:line``, and
    a cell error names its column too.
    """
    path = Path(path)
    table = Table(schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(
                f"{path} is empty; expected a header row"
            ) from None
        if sorted(header) != sorted(schema.attribute_names):
            raise SchemaError(
                f"{path} header {header!r} does not match schema "
                f"{schema.attribute_names!r}"
            )
        parsers = []
        for name in header:
            if schema.attribute(name).is_numeric:
                parsers.append(_parse_numeric)
            else:
                parsers.append(_parse_categorical)
        reorder = [header.index(name) for name in schema.attribute_names]
        for line_number, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise SchemaError(
                    f"{path}:{line_number}: expected {len(header)} cells, "
                    f"got {len(cells)}"
                )
            parsed = []
            for name, parse, cell in zip(header, parsers, cells):
                try:
                    parsed.append(parse(cell))
                except ValueError:
                    raise SchemaError(
                        f"{path}:{line_number}: cannot parse numeric cell "
                        f"{cell!r} in column {name!r}"
                    ) from None
            table.insert([parsed[i] for i in reorder])
    return table


def write_rows_csv(
    schema: RelationSchema, rows: Iterable[tuple], path: str | Path
) -> int:
    """Write raw rows (already schema-ordered) without building a Table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema.attribute_names)
        count = 0
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
            count += 1
    return count
