"""Property-based tests (hypothesis) on the core data structures.

Invariants checked:

* stripped partitions: product refines factors, rank monotonicity,
  measure consistency;
* g3: bounds, monotonicity under determinant growth, exactness
  equivalences;
* bags: Jaccard is a proper similarity (bounds, symmetry, identity),
  intersection/union size algebra;
* metrics: bounds and degenerate cases;
* similarity: numeric similarity bounds and symmetry-in-distance;
* relaxation: generated subsets are exactly the expected combinations.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd.g3 import dependency_error, key_error
from repro.afd.partition import partition_product, partition_single
from repro.core.similarity import numeric_similarity
from repro.evalx.metrics import paper_mrr, rank_agreement
from repro.simmining.bag import Bag, jaccard_sets

# -- strategies -------------------------------------------------------------

small_alphabet = st.sampled_from("abcd")
columns = st.lists(small_alphabet, min_size=0, max_size=40)


def paired_columns(min_size=0, max_size=40):
    """Two columns over the same row ids."""
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(small_alphabet, min_size=n, max_size=n),
            st.lists(small_alphabet, min_size=n, max_size=n),
        )
    )


bags = st.lists(small_alphabet, min_size=0, max_size=30).map(Bag)


# -- partitions ---------------------------------------------------------------


@given(columns)
def test_partition_classes_disjoint_and_stripped(column):
    partition = partition_single(column)
    seen: set[int] = set()
    for members in partition.classes:
        assert len(members) >= 2
        for row_id in members:
            assert row_id not in seen
            seen.add(row_id)
    assert partition.stripped_size == len(seen)


@given(columns)
def test_partition_num_classes_bounds(column):
    partition = partition_single(column)
    if column:
        assert 1 <= partition.num_classes <= len(column)
    else:
        assert partition.num_classes == 0


@given(paired_columns())
def test_product_refines_factors(data):
    left_col, right_col = data
    left = partition_single(left_col)
    right = partition_single(right_col)
    product = partition_product(left, right)
    assert product.refines(left)
    assert product.refines(right)


@given(paired_columns())
def test_product_rank_does_not_exceed_factors(data):
    left_col, right_col = data
    left = partition_single(left_col)
    right = partition_single(right_col)
    product = partition_product(left, right)
    assert product.rank <= left.rank
    assert product.rank <= right.rank


@given(columns)
def test_product_with_self_is_identity(column):
    partition = partition_single(column)
    product = partition_product(partition, partition)
    assert {frozenset(c) for c in product.classes} == {
        frozenset(c) for c in partition.classes
    }


# -- g3 -------------------------------------------------------------------


@given(paired_columns(min_size=1))
def test_g3_dependency_error_bounds(data):
    lhs_col, rhs_col = data
    lhs = partition_single(lhs_col)
    combined = partition_product(lhs, partition_single(rhs_col))
    error = dependency_error(lhs, combined)
    assert 0.0 <= error < 1.0


@given(paired_columns(min_size=1))
def test_g3_exact_iff_equal_rank(data):
    """X → A holds exactly iff π_X and π_{X∪A} have equal rank."""
    lhs_col, rhs_col = data
    lhs = partition_single(lhs_col)
    combined = partition_product(lhs, partition_single(rhs_col))
    error = dependency_error(lhs, combined)
    assert (error == 0.0) == (lhs.rank == combined.rank)


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(small_alphabet, min_size=n, max_size=n),
        st.lists(small_alphabet, min_size=n, max_size=n),
        st.lists(small_alphabet, min_size=n, max_size=n),
    )
))
def test_g3_monotone_in_determinant(data):
    """Adding attributes to the determinant never increases the error."""
    a_col, b_col, target_col = data
    a = partition_single(a_col)
    target = partition_single(target_col)
    ab = partition_product(a, partition_single(b_col))
    error_a = dependency_error(a, partition_product(a, target))
    error_ab = dependency_error(ab, partition_product(ab, target))
    assert error_ab <= error_a + 1e-12


@given(columns.filter(bool))
def test_g3_key_error_bounds(column):
    error = key_error(partition_single(column))
    assert 0.0 <= error < 1.0


@given(paired_columns(min_size=1))
def test_g3_key_error_monotone_under_refinement(data):
    left_col, right_col = data
    left = partition_single(left_col)
    product = partition_product(left, partition_single(right_col))
    assert key_error(product) <= key_error(left) + 1e-12


# -- bags ------------------------------------------------------------------


@given(bags, bags)
def test_bag_jaccard_bounds_and_symmetry(a, b):
    similarity = a.jaccard(b)
    assert 0.0 <= similarity <= 1.0
    assert similarity == b.jaccard(a)


@given(bags)
def test_bag_jaccard_identity(a):
    assert a.jaccard(a) == 1.0


@given(bags, bags)
def test_bag_intersection_union_algebra(a, b):
    intersection = a.intersection_size(b)
    union = a.union_size(b)
    assert intersection + union == len(a) + len(b)
    assert intersection <= min(len(a), len(b))
    assert union >= max(len(a), len(b))


@given(bags, bags)
def test_bag_jaccard_le_set_jaccard_when_multiplicity_unequal(a, b):
    """Collapsing to sets can only merge mass, never split it: the set
    Jaccard of the supports is >= 0 whenever bag Jaccard is > 0."""
    if a.jaccard(b) > 0:
        assert jaccard_sets(a.as_set(), b.as_set()) > 0


# -- metrics ----------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10))
def test_paper_mrr_bounds(user_ranks):
    assert 0.0 < paper_mrr(user_ranks) <= 1.0


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50))
def test_rank_agreement_bounds(user_rank, system_rank):
    agreement = rank_agreement(user_rank, system_rank)
    assert 0.0 < agreement <= 1.0
    assert (agreement == 1.0) == (user_rank == system_rank)


@given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=10))
def test_paper_mrr_perfect_for_identity(ranks):
    identity = list(range(1, len(ranks) + 1))
    assert paper_mrr(identity) == 1.0


# -- numeric similarity -----------------------------------------------------


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_numeric_similarity_bounds(reference, candidate):
    similarity = numeric_similarity(reference, candidate)
    assert 0.0 <= similarity <= 1.0


@given(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
def test_numeric_similarity_identity(value):
    assert numeric_similarity(value, value) == 1.0


@given(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_numeric_similarity_symmetric_around_reference(reference, fraction):
    delta = reference * fraction
    up = numeric_similarity(reference, reference + delta)
    down = numeric_similarity(reference, reference - delta)
    assert abs(up - down) < 1e-9


# -- CSV round trip ------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Ford", "Kia", "BMW"]),
            st.one_of(st.none(), st.sampled_from(["Rio", "M3", "F-150"])),
            st.one_of(
                st.none(),
                st.integers(min_value=0, max_value=10**6),
                st.floats(
                    min_value=0, max_value=1e6, allow_nan=False, width=32
                ),
                st.sampled_from([math.inf, -math.inf, math.nan]),
            ),
            st.integers(min_value=1980, max_value=2010),
        ),
        min_size=0,
        max_size=25,
    )
)
@settings(max_examples=40)
def test_csv_round_trip_preserves_rows(tmp_path_factory, rows):
    from repro.db.csvio import read_csv, write_csv
    from repro.db.schema import RelationSchema
    from repro.db.table import Table

    schema = RelationSchema.build(
        "Cars",
        categorical=("Make", "Model"),
        numeric=("Price", "Year"),
        order=("Make", "Model", "Price", "Year"),
    )
    table = Table(schema)
    table.extend(rows)
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(table, path)
    loaded = read_csv(schema, path)
    assert len(loaded) == len(table)
    for original, reloaded in zip(table, loaded):
        for a, b in zip(original, reloaded):
            if isinstance(a, float) and math.isnan(a):
                assert isinstance(b, float) and math.isnan(b)
            elif isinstance(a, float):
                assert b == __import__("pytest").approx(a, rel=1e-6)
            else:
                assert a == b


# -- relaxation subset generation --------------------------------------------


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=30)
def test_ordered_subsets_are_exactly_combinations(n_attrs, level):
    from itertools import combinations

    from repro.core.relaxation import ordered_subsets

    order = [f"a{i}" for i in range(n_attrs)]
    produced = list(ordered_subsets(order, level))
    assert produced == list(combinations(order, level))
