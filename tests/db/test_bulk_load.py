"""The bulk load contract: batch validation and all-or-nothing extend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import TypeMismatchError
from repro.db.predicates import Eq
from repro.db.schema import RelationSchema
from repro.db.table import Table

SCHEMA = RelationSchema.build(
    "R", categorical=("A", "B"), numeric=("N",), order=("A", "N", "B")
)

GOOD = ("x", 1, "y")


class Label(str):
    pass


class Count(int):
    pass


def _outcome(run):
    """``run()``'s result, or its exception's type and message."""
    try:
        return run()
    except TypeMismatchError as exc:
        return (type(exc), str(exc))


def _row_by_row(rows):
    return [SCHEMA.validate_row(row) for row in rows]


class TestValidateRows:
    def test_returns_tuples_in_order(self):
        rows = [["a", 1, "b"], ("c", 2.5, None), (None, None, "d")]
        assert SCHEMA.validate_rows(rows) == _row_by_row(rows)
        assert all(type(row) is tuple for row in SCHEMA.validate_rows(rows))

    def test_empty_batch(self):
        assert SCHEMA.validate_rows([]) == []

    def test_accepts_subclass_values_like_validate_row(self):
        rows = [GOOD, (Label("x"), Count(3), "y"), ("z", 2.0, Label("w"))]
        validated = SCHEMA.validate_rows(rows)
        assert validated == _row_by_row(rows)
        assert type(validated[1][0]) is Label
        assert type(validated[1][1]) is Count

    def test_accepts_numpy_float64_like_validate_row(self):
        rows = [GOOD, ("x", np.float64(2.5), "y")]
        validated = SCHEMA.validate_rows(rows)
        assert validated == _row_by_row(rows)
        assert type(validated[1][1]) is np.float64

    @pytest.mark.parametrize(
        "bad",
        [
            ("x", 1),  # too few values
            ("x", 1, "y", "z"),  # too many
            ("x", True, "y"),  # a bool is never numeric
            (1, 1, "y"),  # an int in a categorical column
            ("x", 1, 2.5),  # a float in a categorical column
            ("x", "1", "y"),  # a str in a numeric column
        ],
    )
    def test_raises_validate_rows_first_error(self, bad):
        rows = [GOOD, GOOD, bad, (2, False, 3)]
        fast = _outcome(lambda: SCHEMA.validate_rows(rows))
        assert fast == _outcome(lambda: _row_by_row(rows))
        assert fast[0] is TypeMismatchError


_CELLS = st.sampled_from(
    (None, "a", Label("b"), 0, 7, Count(4), 2.5, 10.0, True, False, b"x")
)
_ROWS = st.lists(
    st.one_of(
        st.tuples(_CELLS, _CELLS, _CELLS),
        st.lists(_CELLS, min_size=0, max_size=5),
    ),
    max_size=8,
)


@given(_ROWS)
@settings(max_examples=300, deadline=None)
def test_validate_rows_matches_validate_row(rows):
    fast = _outcome(lambda: SCHEMA.validate_rows(rows))
    slow = _outcome(lambda: _row_by_row(rows))
    assert repr(fast) == repr(slow)


ENGINES = (Table,)


@pytest.mark.parametrize("engine", ENGINES)
class TestExtend:
    def test_bad_row_stores_nothing(self, engine):
        table = engine(SCHEMA)
        table.create_hash_index("N")
        with pytest.raises(TypeMismatchError):
            table.extend([GOOD, ("z", 2, "w"), ("x", True, "y")])
        assert len(table) == 0
        assert table.rows() == []
        assert table.hash_index("A").distinct_values() == []
        assert table.hash_index("N").distinct_values() == []
        assert list(table.sorted_index("N").range()) == []

    def test_bad_row_leaves_earlier_rows_as_they_were(self, engine):
        table = engine(SCHEMA)
        table.extend([GOOD])
        with pytest.raises(TypeMismatchError):
            table.extend([("z", 2, "w"), ("x", 1)])
        assert table.rows() == [GOOD]
        assert table.value_counts("A") == {"x": 1}
        assert list(table.sorted_index("N").range()) == [0]

    def test_row_ids_continue_after_existing_rows(self, engine):
        table = engine(SCHEMA)
        assert table.insert(GOOD) == 0
        assert table.extend([("z", 2, "w"), ("x", None, "y")]) == 2
        assert table.insert(GOOD) == 3
        assert table.hash_index("A").lookup("x") == [0, 2, 3]
        assert list(table.sorted_index("N").range()) == [0, 3, 1]

    def test_memoised_posting_set_is_not_served_stale(self, engine):
        table = engine(SCHEMA)
        table.extend([GOOD, ("z", 2, "w")])
        index = table.hash_index("A")
        assert index.candidate_set(Eq("A", "x")) == {0}
        table.extend([("x", 3, "v"), ("q", 4, "v")])
        assert index.candidate_set(Eq("A", "x")) == {0, 2}
        assert index.candidate_set(Eq("A", "q")) == {3}
