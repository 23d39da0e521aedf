"""Property-based cross-validation of the TANE miner.

The miner's partition-product machinery is checked against brute-force
recomputation on small random tables: every reported AFD/key error must
equal the error computed directly from value tuples, minimality flags
must be consistent with the reported set, and nothing below the
threshold may be missed.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd.tane import TaneConfig, TaneMiner
from repro.db.table import Table
from tests.strategies import skewed_tables


def small_tables():
    """Up to 200 rows: nulls, a numeric column, skewed cardinalities."""
    return skewed_tables(min_rows=1)


def brute_force_fd_error(table: Table, lhs: tuple[str, ...], rhs: str) -> float:
    """g3 by definition: remove minority rhs values within each lhs group."""
    groups: dict[tuple, dict[object, int]] = {}
    lhs_positions = table.schema.positions(lhs)
    rhs_position = table.schema.position(rhs)
    for row in table:
        key = tuple(row[p] for p in lhs_positions)
        groups.setdefault(key, {})
        value = row[rhs_position]
        groups[key][value] = groups[key].get(value, 0) + 1
    removed = sum(
        sum(counts.values()) - max(counts.values()) for counts in groups.values()
    )
    return removed / len(table)


def brute_force_key_error(table: Table, attrs: tuple[str, ...]) -> float:
    positions = table.schema.positions(attrs)
    seen: dict[tuple, int] = {}
    for row in table:
        key = tuple(row[p] for p in positions)
        seen[key] = seen.get(key, 0) + 1
    duplicates = sum(count - 1 for count in seen.values())
    return duplicates / len(table)


def unfiltered_config(threshold: float) -> TaneConfig:
    return TaneConfig(
        error_threshold=threshold,
        max_lhs_size=2,
        max_key_size=3,
        filter_trivial_consequents=False,
        filter_key_determinants=False,
    )


@given(small_tables(), st.sampled_from([0.0, 0.1, 0.25, 0.5]))
@settings(max_examples=60, deadline=None)
def test_reported_afd_errors_match_bruteforce(table, threshold):
    model = TaneMiner(unfiltered_config(threshold)).mine(table)
    for afd in model.afds:
        expected = brute_force_fd_error(table, afd.lhs, afd.rhs)
        assert abs(afd.error - expected) < 1e-9, afd.describe()
        assert afd.error <= threshold + 1e-9


@given(small_tables(), st.sampled_from([0.0, 0.1, 0.25, 0.5]))
@settings(max_examples=60, deadline=None)
def test_reported_key_errors_match_bruteforce(table, threshold):
    model = TaneMiner(unfiltered_config(threshold)).mine(table)
    for key in model.keys:
        expected = brute_force_key_error(table, key.attributes)
        assert abs(key.error - expected) < 1e-9, key.describe()
        assert key.error <= threshold + 1e-9


@given(small_tables(), st.sampled_from([0.1, 0.25]))
@settings(max_examples=40, deadline=None)
def test_no_qualifying_afd_missed(table, threshold):
    """Completeness: every below-threshold dependency must be reported."""
    model = TaneMiner(unfiltered_config(threshold)).mine(table)
    reported = {(afd.lhs, afd.rhs) for afd in model.afds}
    names = table.schema.attribute_names
    for size in (1, 2):
        for lhs in combinations(names, size):
            for rhs in names:
                if rhs in lhs:
                    continue
                error = brute_force_fd_error(table, lhs, rhs)
                if error <= threshold:
                    assert (tuple(lhs), rhs) in reported, (lhs, rhs, error)


@given(small_tables(), st.sampled_from([0.1, 0.25]))
@settings(max_examples=40, deadline=None)
def test_no_qualifying_key_missed(table, threshold):
    model = TaneMiner(unfiltered_config(threshold)).mine(table)
    reported = {key.attributes for key in model.keys}
    names = table.schema.attribute_names
    for size in (1, 2, 3):
        for attrs in combinations(names, size):
            if brute_force_key_error(table, attrs) <= threshold:
                assert tuple(attrs) in reported, attrs


@given(small_tables(), st.sampled_from([0.1, 0.25]))
@settings(max_examples=40, deadline=None)
def test_minimality_flags_consistent(table, threshold):
    """An AFD is flagged minimal iff no reported proper-subset
    determinant has the same consequent."""
    model = TaneMiner(unfiltered_config(threshold)).mine(table)
    by_rhs: dict[str, list[frozenset]] = {}
    for afd in model.afds:
        by_rhs.setdefault(afd.rhs, []).append(frozenset(afd.lhs))
    for afd in model.afds:
        lhs = frozenset(afd.lhs)
        has_smaller = any(
            other < lhs for other in by_rhs.get(afd.rhs, []) if other != lhs
        )
        assert afd.minimal == (not has_smaller), afd.describe()
