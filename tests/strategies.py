"""Shared hypothesis strategies for the offline-mining suites.

``skewed_tables`` draws relations shaped like a probed sample: three
categorical columns whose cardinalities differ by an order of magnitude
(so partition sizes differ and a product's smaller-side swap fires),
value frequencies skewed toward a few heavy values, None cells in every
column, and one numeric column mixing ints and equal-valued floats.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.db.schema import RelationSchema
from repro.db.table import Table

SKEWED_SCHEMA = RelationSchema.build(
    "Skewed",
    categorical=("A", "B", "C"),
    numeric=("N",),
    order=("A", "N", "B", "C"),
)

# Cardinality ranges for A, B and C: a near-constant, a mid-sized and a
# near-unique column.
_CARDINALITIES = ((1, 3), (2, 12), (10, 80))
# 10 and 10.0 are equal keys, so the label memo must treat them alike.
_NUMERIC_CELLS = (None, -3, 0, 1, 2.5, 7, 10, 10.0, 12, 33, 99.5)


@st.composite
def skewed_tables(draw, min_rows: int = 0, max_rows: int = 200) -> Table:
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    columns: list[list[object]] = []
    for prefix, (low, high) in zip("abc", _CARDINALITIES):
        cardinality = draw(st.integers(min_value=low, max_value=high))
        draws = draw(
            st.lists(
                st.integers(min_value=-1, max_value=cardinality - 1),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        # -1 is a null; squaring skews the rest toward the low values.
        columns.append(
            [
                None if index < 0 else f"{prefix}{index * index // cardinality}"
                for index in draws
            ]
        )
    numeric = draw(
        st.lists(
            st.sampled_from(_NUMERIC_CELLS), min_size=n_rows, max_size=n_rows
        )
    )
    table = Table(SKEWED_SCHEMA)
    table.extend(zip(columns[0], numeric, columns[1], columns[2]))
    return table
