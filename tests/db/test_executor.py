"""Unit tests for the boolean query executor and its planning."""

import pytest

from repro.db.executor import Executor
from repro.db.predicates import Between, Eq, Ge, IsIn, Lt, Ne
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table


class TestExecution:
    def test_equality_via_hash_index(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Eq("Make", "Toyota"),)))
        assert len(result) == 3
        assert executor.stats.index_lookups == 1
        assert executor.stats.full_scans == 0

    def test_conjunction_verifies_residual(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(
            SelectionQuery((Eq("Make", "Toyota"), Lt("Price", 9000)))
        )
        assert [row[1] for row in result] == ["Corolla"]

    def test_range_via_sorted_index(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(
            SelectionQuery((Between("Price", 7000, 8000),))
        )
        assert {row[1] for row in result} == {"Corolla", "Civic", "Focus"}
        assert executor.stats.index_lookups == 1

    def test_unindexable_predicate_full_scans(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Ne("Make", "Toyota"),)))
        assert len(result) == 5
        assert executor.stats.full_scans == 1

    def test_match_all_returns_everything(self, toy_table):
        executor = Executor(toy_table)
        assert len(executor.execute(SelectionQuery.match_all())) == len(toy_table)

    def test_planner_picks_smallest_candidate_set(self, toy_table):
        executor = Executor(toy_table)
        # Make=Ford has 2 candidates, Price>=0 has 8; driver must be Make.
        executor.execute(SelectionQuery((Ge("Price", 0), Eq("Make", "Ford"))))
        assert executor.stats.rows_examined == 2

    def test_isin_served_by_hash_index(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(
            SelectionQuery((IsIn("Make", ["Ford", "Honda"]),))
        )
        assert len(result) == 5

    def test_empty_result(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Eq("Make", "BMW"),)))
        assert len(result) == 0 and not result

    def test_result_rows_align_with_ids(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Eq("Make", "Honda"),)))
        for row_id, row in zip(result.row_ids, result.rows):
            assert toy_table.row(row_id) == row


class TestLimits:
    def test_limit_truncates(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Eq("Make", "Toyota"),)), limit=2)
        assert len(result) == 2
        assert result.truncated

    def test_limit_equal_to_result_not_truncated(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Eq("Make", "Ford"),)), limit=2)
        assert len(result) == 2
        assert not result.truncated

    def test_limit_on_full_scan(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery((Ne("Make", "Nothing"),)), limit=3)
        assert len(result) == 3
        assert result.truncated

    def test_offset_pages_through_results(self, toy_table):
        executor = Executor(toy_table)
        query = SelectionQuery((Eq("Make", "Toyota"),))
        first = executor.execute(query, limit=2, offset=0)
        second = executor.execute(query, limit=2, offset=2)
        assert len(first) == 2 and first.truncated
        assert len(second) == 1 and not second.truncated
        assert not set(first.row_ids) & set(second.row_ids)
        combined = sorted(first.row_ids + second.row_ids)
        assert combined == sorted(executor.execute(query).row_ids)

    def test_offset_beyond_matches_is_empty(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(
            SelectionQuery((Eq("Make", "Ford"),)), limit=5, offset=10
        )
        assert len(result) == 0 and not result.truncated

    def test_negative_offset_rejected(self, toy_table):
        executor = Executor(toy_table)
        with pytest.raises(ValueError):
            executor.execute(SelectionQuery.match_all(), offset=-1)

    def test_offset_without_limit(self, toy_table):
        executor = Executor(toy_table)
        result = executor.execute(SelectionQuery.match_all(), offset=5)
        assert len(result) == len(toy_table) - 5


class TestStats:
    def test_counters_accumulate(self, toy_table):
        executor = Executor(toy_table)
        executor.execute(SelectionQuery((Eq("Make", "Toyota"),)))
        executor.execute(SelectionQuery((Eq("Make", "Honda"),)))
        assert executor.stats.queries_executed == 2
        assert executor.stats.rows_returned == 6

    def test_count_helper(self, toy_table):
        executor = Executor(toy_table)
        assert executor.count(SelectionQuery((Eq("Make", "Ford"),))) == 2

    def test_stats_merge(self, toy_table):
        a = Executor(toy_table)
        b = Executor(toy_table)
        a.execute(SelectionQuery.match_all())
        b.execute(SelectionQuery.match_all())
        a.stats.merge(b.stats)
        assert a.stats.queries_executed == 2


class TestCountOnlyPath:
    """The count path must never materialise or account for rows."""

    def test_count_does_not_touch_rows_returned(self, toy_table):
        executor = Executor(toy_table)
        executor.count(SelectionQuery((Eq("Make", "Toyota"),)))
        assert executor.stats.queries_executed == 1
        assert executor.stats.rows_returned == 0
        assert executor.stats.rows_examined > 0

    def test_count_uses_index_when_available(self, toy_table):
        toy_table.create_hash_index("Make")
        executor = Executor(toy_table)
        assert executor.count(SelectionQuery((Eq("Make", "Honda"),))) == 3
        assert executor.stats.index_lookups == 1
        assert executor.stats.full_scans == 0
        # Only the candidate rows were examined, not the whole table.
        assert executor.stats.rows_examined == 3

    def test_count_agrees_with_execute(self, toy_table):
        executor = Executor(toy_table)
        for query in (
            SelectionQuery.match_all(),
            SelectionQuery((Eq("Make", "Toyota"),)),
            SelectionQuery((Eq("Make", "BMW"),)),
        ):
            expected = len(executor.execute(query))
            assert executor.count(query) == expected


_GRID_SCHEMA = RelationSchema.build(
    "grid", categorical=("A", "B"), numeric=("N",), order=("A", "B", "N")
)
_GRID_ROWS = [
    ("a", "x", 1),
    ("a", "x", 2),
    ("a", "y", 3),
    ("a", "y", 4),
    ("b", "x", 5),
    ("b", "x", 6),
    ("b", "y", 7),
]


@pytest.fixture(params=[Table], ids=["row"])
def grid_executor(request) -> Executor:
    table = request.param(_GRID_SCHEMA)
    table.extend(_GRID_ROWS)
    return Executor(table)


class TestPostingIntersection:
    """Index-served conjuncts are intersected, never verified row by row."""

    def test_disjoint_postings_examine_nothing(self, grid_executor):
        # Both postings hold rows, but none in common: the old
        # driver-and-verify plan examined the driver's 3 rows.
        query = SelectionQuery((Eq("A", "b"), Eq("B", "y"), Eq("N", 1)))
        assert len(grid_executor.execute(query)) == 0
        assert grid_executor.stats.rows_examined == 0
        assert grid_executor.stats.postings_intersected == 2

    def test_only_survivors_are_examined(self, grid_executor):
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x")))
        assert grid_executor.execute(query).row_ids == (0, 1)
        assert grid_executor.stats.rows_examined == 2
        assert grid_executor.stats.postings_intersected == 1

    def test_larger_range_stays_residual(self, grid_executor):
        # Survivors {0, 1} are fewer than Between's 4 candidates, so the
        # range is verified on the survivors instead of materialised.
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x"), Between("N", 2, 5)))
        assert grid_executor.execute(query).row_ids == (1,)
        assert grid_executor.stats.rows_examined == 2
        assert grid_executor.stats.postings_intersected == 1

    def test_range_no_larger_than_survivors_is_intersected(self, grid_executor):
        query = SelectionQuery((Eq("A", "b"), Between("N", 5, 7)))
        assert grid_executor.execute(query).row_ids == (4, 5, 6)
        assert grid_executor.stats.postings_intersected == 1

    def test_smallest_range_drives(self, grid_executor):
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x"), Between("N", 1, 1)))
        assert grid_executor.execute(query).row_ids == (0,)
        assert grid_executor.stats.rows_examined == 1
        assert grid_executor.stats.postings_intersected == 2

    def test_isin_postings_are_unioned_then_intersected(self, grid_executor):
        query = SelectionQuery((IsIn("A", ["a", "b"]), Eq("B", "y")))
        assert grid_executor.execute(query).row_ids == (2, 3, 6)
        assert grid_executor.stats.rows_examined == 3

    def test_unindexable_conjunct_is_verified_on_survivors(self, grid_executor):
        query = SelectionQuery((Eq("A", "a"), Eq("B", "y"), Ne("N", 3)))
        assert grid_executor.execute(query).row_ids == (3,)
        assert grid_executor.stats.rows_examined == 2

    def test_paging_over_intersection_keeps_row_id_order(self, grid_executor):
        query = SelectionQuery((Eq("B", "x"), IsIn("A", ["a", "b"])))
        first = grid_executor.execute(query, limit=2)
        second = grid_executor.execute(query, limit=2, offset=2)
        assert first.row_ids == (0, 1) and first.truncated
        assert second.row_ids == (4, 5) and not second.truncated

    def test_count_without_residual_does_no_row_work(self, grid_executor):
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x")))
        assert grid_executor.count(query) == 2
        assert grid_executor.stats.rows_examined == 2
        assert grid_executor.stats.rows_returned == 0

    def test_count_with_residual(self, grid_executor):
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x"), Between("N", 2, 5)))
        assert grid_executor.count(query) == 1

    def test_single_index_predicate_is_not_an_intersection(self, grid_executor):
        grid_executor.execute(SelectionQuery((Eq("A", "a"),)))
        assert grid_executor.stats.postings_intersected == 0

    def test_rows_inserted_after_a_probe_are_found(self):
        table = Table(_GRID_SCHEMA)
        table.extend(_GRID_ROWS)
        executor = Executor(table)
        query = SelectionQuery((Eq("A", "a"), Eq("B", "x")))
        assert executor.execute(query).row_ids == (0, 1)
        table.insert(("a", "x", 8))
        assert executor.execute(query).row_ids == (0, 1, 7)
