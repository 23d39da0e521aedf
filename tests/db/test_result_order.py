"""Canonical result order (hypothesis).

The facade returns every query's rows in ascending row-id order,
whichever access path the executor planned, so two results for the
same query compare position by position.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.predicates import Eq, Ge
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase

_SCHEMA = RelationSchema.build(
    "prop",
    categorical=("C0", "C1"),
    numeric=("N0", "N1"),
    order=("C0", "C1", "N0", "N1"),
)
_CATEGORIES = ["x", "y", "z", "w"]


def _build_webdb(rows: list[tuple[str, str, int, int]]) -> AutonomousWebDatabase:
    table = Table(_SCHEMA)
    for row in rows:
        table.insert(row)
    return AutonomousWebDatabase(table)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(_CATEGORIES),
        st.sampled_from(_CATEGORIES),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=40,
)


@given(rows=rows_strategy)
@settings(max_examples=50, deadline=None)
def test_executor_returns_canonical_ascending_row_id_order(rows):
    webdb = _build_webdb(rows)
    rng = random.Random(13)
    for _ in range(5):
        query = SelectionQuery(
            (
                Eq("C0", rng.choice(_CATEGORIES)),
                Ge("N0", rng.randrange(10)),
            )
        )
        result = webdb.query(query)
        assert list(result.row_ids) == sorted(result.row_ids)
