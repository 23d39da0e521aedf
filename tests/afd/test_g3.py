"""Unit tests for the g3 approximation measure."""

import pytest

from repro.afd.g3 import dependency_error, key_error
from repro.afd.partition import (
    StrippedPartition,
    partition_product,
    partition_single,
)


def fd_error(lhs_column, rhs_column):
    lhs = partition_single(lhs_column)
    combined = partition_product(lhs, partition_single(rhs_column))
    return dependency_error(lhs, combined)


class TestDependencyError:
    def test_exact_fd_has_zero_error(self):
        # Model -> Make style: each lhs value maps to one rhs value.
        assert fd_error(["a", "a", "b", "b"], ["x", "x", "y", "y"]) == 0.0

    def test_full_violation(self):
        # One lhs class of 4 split evenly into 2 rhs values: remove 2 of 4.
        assert fd_error(["a", "a", "a", "a"], ["x", "x", "y", "y"]) == 0.5

    def test_minority_violation(self):
        # lhs class of 4 with rhs 3:1 split -> remove 1 of 4 tuples.
        assert fd_error(["a"] * 4, ["x", "x", "x", "y"]) == 0.25

    def test_singleton_lhs_classes_cost_nothing(self):
        assert fd_error(["a", "b", "c"], ["x", "y", "x"]) == 0.0

    def test_mixed_classes(self):
        # class{a}: 2 tuples consistent; class{b}: 3 tuples, 2:1 split.
        error = fd_error(["a", "a", "b", "b", "b"], ["x", "x", "y", "y", "z"])
        assert error == pytest.approx(1 / 5)

    def test_rhs_all_singletons_within_class(self):
        # lhs class of 3, rhs all distinct -> keep 1, remove 2.
        assert fd_error(["a", "a", "a"], ["x", "y", "z"]) == pytest.approx(2 / 3)

    def test_size_mismatch_raises(self):
        lhs = partition_single(["a", "a"])
        combined = partition_single(["a", "a", "b"])
        with pytest.raises(ValueError):
            dependency_error(lhs, combined)

    def test_empty_relation(self):
        empty = partition_single([])
        assert dependency_error(empty, empty) == 0.0

    def test_combined_must_refine_lhs(self):
        # Rows 2 and 3 are lhs singletons, so a combined class holding
        # them cannot be a sub-class of any lhs class.
        lhs = partition_single(["a", "a", "b", "c"])
        combined = StrippedPartition(classes=((2, 3),), n_rows=4)
        with pytest.raises(ValueError, match="does not refine"):
            dependency_error(lhs, combined)


class TestKeyError:
    def test_unique_column_is_key(self):
        assert key_error(partition_single(["a", "b", "c"])) == 0.0

    def test_constant_column(self):
        # Keep one tuple of n: error (n-1)/n.
        assert key_error(partition_single(["a"] * 4)) == 0.75

    def test_partial_duplicates(self):
        # Classes {2 dup} over 4 rows: remove 1.
        assert key_error(partition_single(["a", "a", "b", "c"])) == 0.25

    def test_composite_key(self):
        left = partition_single(["x", "x", "y", "y"])
        right = partition_single(["1", "2", "1", "2"])
        assert key_error(partition_product(left, right)) == 0.0

    def test_empty_relation(self):
        assert key_error(partition_single([])) == 0.0
