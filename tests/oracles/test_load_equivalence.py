"""The bulk load path is bit-identical to the per-row loops it replaced.

``Table.extend``/``sample``/``filter`` and index backfills must leave
the same rows, the same hash buckets in the same order, the same sorted keys and row ids, and the
same derived reads as inserting row by row; the collector must return
the same rows, report, ProbeLog and RNG state as the collector that
built the full extraction as a table.  Values are compared by ``repr``
so an int key can never stand in for an equal float one.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.table import Table
from repro.db.webdb import AutonomousWebDatabase
from repro.sampling.collector import collect_sample, probe_all
from tests.oracles.collector import collect_sample_full_table, probe_all_full_table
from tests.oracles.table import extend_per_row, filter_per_row, sample_per_row
from tests.strategies import SKEWED_SCHEMA, skewed_tables

def _snapshot(table: Table) -> str:
    """Every read the load path can affect, rendered exactly."""
    hash_indexes = {
        name: [(value, index.lookup(value)) for value in index.distinct_values()]
        for name in table.schema.attribute_names
        if (index := table.hash_index(name)) is not None
    }
    sorted_indexes = {}
    for name in table.schema.attribute_names:
        sorted_index = table.sorted_index(name)
        if sorted_index is not None:
            len(sorted_index)  # settles pending entries into the sorted run
            sorted_indexes[name] = (sorted_index._keys, sorted_index._row_ids)
    reads = {
        name: (table.distinct_values(name), table.value_counts(name))
        for name in table.schema.attribute_names
    }
    extents = {
        name: table.numeric_extent(name) for name in table.schema.numeric_names
    }
    return repr((table.rows(), hash_indexes, sorted_indexes, reads, extents))


def _with_numeric_hash_index(table: Table) -> Table:
    # A hash index on N puts the 10 / 10.0 tie into one bucket.
    table.create_hash_index("N")
    return table


@given(
    skewed_tables(),
    st.integers(min_value=0, max_value=200),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_extend_matches_per_row_inserts(source, split, as_lists):
    rows = source.rows()
    if as_lists:
        rows = [list(row) for row in rows]
    split = min(split, len(rows))
    bulk = _with_numeric_hash_index(Table(SKEWED_SCHEMA))
    assert bulk.extend(rows[:split]) == split
    assert bulk.extend(iter(rows[split:])) == len(rows) - split
    oracle = _with_numeric_hash_index(Table(SKEWED_SCHEMA))
    assert extend_per_row(oracle, rows) == len(rows)
    assert _snapshot(bulk) == _snapshot(oracle)


@given(skewed_tables())
@settings(max_examples=40, deadline=None)
def test_index_backfill_matches_per_row_inserts(source):
    backfilled = Table(SKEWED_SCHEMA, auto_index=False)
    backfilled.extend(source.rows())
    for name in ("A", "B", "C", "N"):
        backfilled.create_hash_index(name)
    backfilled.create_sorted_index("N")
    oracle = _with_numeric_hash_index(Table(SKEWED_SCHEMA))
    extend_per_row(oracle, source.rows())
    assert _snapshot(backfilled) == _snapshot(oracle)


@given(skewed_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_sample_and_filter_match_per_row_loops(source, data):
    table = Table(SKEWED_SCHEMA)
    table.extend(source.rows())
    row_ids = (
        data.draw(
            st.lists(st.integers(min_value=0, max_value=len(table) - 1))
        )
        if len(table)
        else []
    )
    assert _snapshot(table.sample(row_ids)) == _snapshot(
        sample_per_row(table, row_ids)
    )
    threshold = data.draw(st.sampled_from((-3, 2.5, 10, 10.0, 50)))

    def keep(row):
        return row[1] is not None and row[1] >= threshold

    assert _snapshot(table.filter(keep)) == _snapshot(filter_per_row(table, keep))


_SPANNING = st.sampled_from((None, "A", "B", "C"))
_CAPS = st.sampled_from((None, 1, 2, 3, 7, 40))


@given(
    skewed_tables(),
    _SPANNING,
    _CAPS,
    st.booleans(),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_probe_all_matches_full_table_oracle(
    source, spanning, cap, paginate, max_pages
):
    def run(collector):
        webdb = AutonomousWebDatabase(source, result_cap=cap)
        table, report = collector(
            webdb,
            spanning_attribute=spanning,
            paginate=paginate,
            max_pages_per_probe=max_pages,
        )
        return _snapshot(table), report, webdb.log

    assert run(probe_all) == run(probe_all_full_table)


@given(
    skewed_tables(),
    _SPANNING,
    _CAPS,
    st.integers(min_value=1, max_value=250),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_collect_sample_matches_full_table_oracle(source, spanning, cap, size, seed):
    def run(collector):
        webdb = AutonomousWebDatabase(source, result_cap=cap)
        rng = random.Random(seed)
        table, report = collector(webdb, size, rng, spanning_attribute=spanning)
        return _snapshot(table), report, webdb.log, rng.getstate()

    assert run(collect_sample) == run(collect_sample_full_table)
