"""Index plans and full scans agree (hypothesis).

Every index is exact for the predicates it serves, so an indexed
table must answer like an unindexed one — same rows, same canonical
ascending-row-id order, same truncation flags, same ProbeLog numbers.
These properties drive that contract across every operator the facade
supports (``=, !=, <, <=, >, >=, between, in``), on randomly generated
tables and paging windows (limits of 0 and -1 included), with null and
NaN cells and NaN comparison values and bounds: no index may serve a
predicate the row check would decide differently.

A long-lived executor plans from its memo of access paths; it must
answer every query of a stream — tables growing and gaining indexes in
between — with the rows and ``ExecutionStats`` of a fresh executor and
of the oracle that planned every probe afresh
(``tests/oracles/executor.py``).
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import UnknownAttributeError
from repro.db.executor import _MEMO_BOUND, Executor
from repro.db.predicates import Between, Eq, Ge, Gt, IsIn, Le, Lt, Ne, Predicate
from repro.db.query import SelectionQuery
from repro.db.schema import RelationSchema
from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from tests.oracles.executor import PlanEachProbeExecutor

_SCHEMA = RelationSchema.build(
    "prop",
    categorical=("C0", "C1"),
    numeric=("N0", "N1"),
    order=("C0", "C1", "N0", "N1"),
)
_CATEGORIES = ["x", "y", "z", "w"]
# 2**53 + 1 is not float64-representable, so it must sort and compare
# exactly among floats.  NaN equals and orders against nothing: a row
# check never matches it, so neither may an index.
_HUGE = 2**53 + 1
_NAN = float("nan")
_NUMERIC_CELLS = [0, 1, 2, 3, 4, 5, 2.5, 0.5, _HUGE, _NAN, None]
_NUMERIC_BOUNDS = [0, 1, 2, 3, 4, 5, 2.5, 3.0, _HUGE, _NAN]

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(_CATEGORIES + [None]),
        st.sampled_from(_CATEGORIES + [None]),
        st.sampled_from(_NUMERIC_CELLS),
        st.sampled_from(_NUMERIC_CELLS),
    ),
    min_size=1,
    max_size=48,
)


@st.composite
def predicate_strategy(draw) -> Predicate:
    kind = draw(
        st.sampled_from(("eq", "ne", "lt", "le", "gt", "ge", "between", "in"))
    )
    categorical = draw(st.booleans())
    if categorical:
        attribute = draw(st.sampled_from(("C0", "C1")))
        if kind == "eq":
            return Eq(attribute, draw(st.sampled_from(_CATEGORIES + [None])))
        if kind == "ne":
            return Ne(attribute, draw(st.sampled_from(_CATEGORIES + [None])))
        if kind == "in":
            values = draw(
                st.lists(
                    st.sampled_from(_CATEGORIES + [None]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            return IsIn(attribute, values)
        bound = draw(st.sampled_from(_CATEGORIES))
        if kind == "lt":
            return Lt(attribute, bound)
        if kind == "le":
            return Le(attribute, bound)
        if kind == "gt":
            return Gt(attribute, bound)
        if kind == "ge":
            return Ge(attribute, bound)
        high = draw(st.sampled_from([c for c in _CATEGORIES if c >= bound]))
        return Between(attribute, bound, high)
    attribute = draw(st.sampled_from(("N0", "N1")))
    if kind == "eq":
        return Eq(attribute, draw(st.sampled_from(_NUMERIC_BOUNDS + [None])))
    if kind == "ne":
        return Ne(attribute, draw(st.sampled_from(_NUMERIC_BOUNDS + [None])))
    if kind == "in":
        values = draw(
            st.lists(
                st.sampled_from(_NUMERIC_BOUNDS + [None]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        return IsIn(attribute, values)
    bound = draw(st.sampled_from(_NUMERIC_BOUNDS))
    if kind == "lt":
        return Lt(attribute, bound)
    if kind == "le":
        return Le(attribute, bound)
    if kind == "gt":
        return Gt(attribute, bound)
    if kind == "ge":
        return Ge(attribute, bound)
    # ``not b < bound`` rather than ``b >= bound``: either end may be NaN.
    high = draw(st.sampled_from([b for b in _NUMERIC_BOUNDS if not b < bound]))
    return Between(attribute, bound, high)


query_strategy = st.builds(
    SelectionQuery,
    st.lists(predicate_strategy(), min_size=0, max_size=3).map(tuple),
)
# Limits of 0 and -1 window nothing but may still flag truncation.
window_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-1, max_value=5)),
    st.integers(min_value=0, max_value=3),
)


def _row_table(rows, auto_index: bool) -> Table:
    table = Table(_SCHEMA, auto_index=auto_index)
    for row in rows:
        table.insert(row)
    return table


@given(rows=rows_strategy, query=query_strategy, window=window_strategy)
@settings(max_examples=150, deadline=None)
def test_index_plans_and_scans_return_identical_pages_and_counts(
    rows, query, window
):
    limit, offset = window
    scan = AutonomousWebDatabase(_row_table(rows, auto_index=False))
    indexed = AutonomousWebDatabase(_row_table(rows, auto_index=True))
    expected = scan.query(query, limit=limit, offset=offset)
    expected_count = scan.count(query)
    result = indexed.query(query, limit=limit, offset=offset)
    assert result.row_ids == expected.row_ids
    assert result.rows == expected.rows
    assert result.truncated == expected.truncated
    assert indexed.count(query) == expected_count
    assert list(expected.row_ids) == sorted(expected.row_ids)


wide_query_strategy = st.builds(
    SelectionQuery,
    st.lists(predicate_strategy(), min_size=2, max_size=5).map(tuple),
)


def _fully_indexed(table: Table) -> Table:
    """Hash-index the numeric columns too, so Eq/IN there intersect."""
    table.create_hash_index("N0")
    table.create_hash_index("N1")
    return table


@given(rows=rows_strategy, query=wide_query_strategy, window=window_strategy)
@settings(max_examples=150, deadline=None)
def test_posting_intersection_matches_an_unindexed_scan(rows, query, window):
    limit, offset = window
    oracle = AutonomousWebDatabase(_row_table(rows, auto_index=False))
    expected = oracle.query(query, limit=limit, offset=offset)
    expected_count = oracle.count(query)
    sizer = AutonomousWebDatabase(_row_table(rows, auto_index=False))
    for table in (
        _row_table(rows, auto_index=True),
        _fully_indexed(_row_table(rows, auto_index=True)),
    ):
        engine = AutonomousWebDatabase(table)
        result = engine.query(query, limit=limit, offset=offset)
        assert result.row_ids == expected.row_ids
        assert result.rows == expected.rows
        assert result.truncated == expected.truncated
        assert engine.count(query) == expected_count
        assert engine.log == oracle.log
        hashed = tuple(p for p in query.predicates if _hash_serves(table, p))
        served = [
            sizer.count(SelectionQuery((p,)))
            for p in query.predicates
            if p in hashed or _sorted_serves(table, p)
        ]
        if served:
            # A count examines only the rows left after intersection: at
            # least every match, at most the smallest served posting, and
            # never a row some hash-served conjunct rejects.
            upper = min(served)
            if hashed:
                upper = min(upper, sizer.count(SelectionQuery(hashed)))
            counter = AutonomousWebDatabase(table)
            counter.count(query)
            examined = counter.execution_stats.rows_examined
            assert expected_count <= examined <= upper


def _hash_serves(table: Table, predicate: Predicate) -> bool:
    index = table.hash_index(predicate.attribute)
    return (
        isinstance(predicate, (Eq, IsIn))
        and index is not None
        and index.serves(predicate)
    )


def _sorted_serves(table: Table, predicate: Predicate) -> bool:
    index = table.sorted_index(predicate.attribute)
    return index is not None and index.serves(predicate)


# A stream op: a query or count over pool predicates (each drawn either
# as the pool's own object or as an equal copy), a bulk extend, or a
# new hash index on a numeric column.
_picks = st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=4)
stream_op_strategy = st.one_of(
    st.tuples(st.just("query"), _picks, window_strategy),
    st.tuples(st.just("count"), _picks),
    st.tuples(st.just("extend"), rows_strategy),
    st.tuples(st.just("index"), st.sampled_from(("N0", "N1"))),
)


def _answer(executor, op, query):
    if op[0] == "count":
        return executor.count(query)
    limit, offset = op[2]
    result = executor.execute(query, limit=limit, offset=offset)
    return result.row_ids, result.rows, result.truncated


@given(
    rows=rows_strategy,
    pool=st.lists(predicate_strategy(), min_size=4, max_size=4),
    stream=st.lists(stream_op_strategy, min_size=1, max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_a_long_lived_executor_answers_like_a_fresh_one(rows, pool, stream):
    table = _row_table(rows, auto_index=True)
    executor = Executor(table)
    asked: list[tuple] = []
    for op in stream:
        if op[0] == "extend":
            table.extend(op[1])
        elif op[0] == "index":
            table.create_hash_index(op[1])
        else:
            query = SelectionQuery.conjunction(
                copy.copy(pool[i]) if equal_copy else pool[i] for i, equal_copy in op[1]
            )
            asked.append((op, query))
        # After a write, every query asked so far is asked again.
        for op_asked, query in asked if op[0] in ("extend", "index") else asked[-1:]:
            before = executor.stats.snapshot()
            answer = _answer(executor, op_asked, query)
            for reference in (Executor(table), PlanEachProbeExecutor(table)):
                assert answer == _answer(reference, op_asked, query)
                assert executor.stats.delta(before) == reference.stats


class TestAccessPathMemo:
    def test_unknown_attribute_raises_before_any_counter_moves(self, toy_table):
        executor = Executor(toy_table)
        make = Eq("Make", "Ford")
        executor.execute(SelectionQuery((make, Lt("Price", 9000))))
        before = executor.stats.snapshot()
        query = SelectionQuery((make, Eq("Colour", "red"), Lt("Price", 9000)))
        with pytest.raises(UnknownAttributeError):
            executor.execute(query)
        with pytest.raises(UnknownAttributeError):
            executor.count(query)
        assert executor.stats == before

    def test_an_unhashable_value_is_planned_like_the_oracle(self, toy_table):
        # A list value cannot key the memo, and no index serves it.
        query = SelectionQuery((Ne("Make", ["Ford"]), Ge("Year", 2001)))
        executor = Executor(toy_table)
        oracle = PlanEachProbeExecutor(toy_table)
        for _ in range(2):
            result = executor.execute(query, limit=2)
            expected = oracle.execute(query, limit=2)
            assert result.row_ids == expected.row_ids
            assert result.truncated == expected.truncated
            assert executor.count(query) == oracle.count(query)
        assert executor.stats == oracle.stats
        assert all(key.attribute != "Make" for key in executor._access_paths)

    def test_memo_never_exceeds_its_bound(self, toy_table):
        executor = Executor(toy_table)
        oracle = PlanEachProbeExecutor(toy_table)
        for price in range(0, 20 * (_MEMO_BOUND + 10), 20):
            query = SelectionQuery((Eq("Make", "Ford"), Le("Price", price)))
            assert executor.count(query) == oracle.count(query)
            assert len(executor._access_paths) <= _MEMO_BOUND
        assert executor.stats == oracle.stats
