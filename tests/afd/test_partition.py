"""Unit tests for stripped partitions."""

import pytest

from repro.afd.g3 import dependency_error, key_error
from repro.afd.partition import (
    StrippedPartition,
    partition_product,
    partition_single,
)


class TestPartitionSingle:
    def test_groups_equal_values(self):
        p = partition_single(["a", "b", "a", "c", "b", "a"])
        classes = {frozenset(c) for c in p.classes}
        assert classes == {frozenset({0, 2, 5}), frozenset({1, 4})}

    def test_singletons_stripped(self):
        p = partition_single(["a", "b", "c"])
        assert p.classes == ()
        assert p.num_classes == 3

    def test_nulls_group_together(self):
        p = partition_single([None, "a", None])
        assert {frozenset(c) for c in p.classes} == {frozenset({0, 2})}

    def test_empty_column(self):
        p = partition_single([])
        assert p.n_rows == 0 and p.num_classes == 0

    def test_n_rows_must_match_column(self):
        with pytest.raises(ValueError):
            partition_single(["a", "a"], n_rows=3)


class TestMeasures:
    def test_stripped_size(self):
        p = partition_single(["a", "a", "b", "b", "c"])
        assert p.stripped_size == 4
        assert p.num_stripped_classes == 2

    def test_num_classes_counts_singletons(self):
        p = partition_single(["a", "a", "b", "c"])
        assert p.num_classes == 3

    def test_rank(self):
        p = partition_single(["a", "a", "a", "b", "b"])
        assert p.rank == (3 - 1) + (2 - 1)

    def test_class_of(self):
        p = partition_single(["a", "a", "b"])
        assert p.class_of(0) == p.class_of(1)
        assert p.class_of(2) is None


class TestProduct:
    def test_product_refines_both(self):
        left = partition_single(["x", "x", "x", "y", "y"])
        right = partition_single(["1", "1", "2", "2", "2"])
        product = partition_product(left, right)
        classes = {frozenset(c) for c in product.classes}
        assert classes == {frozenset({0, 1}), frozenset({3, 4})}
        assert product.refines(left)
        assert product.refines(right)

    def test_product_with_identity(self):
        left = partition_single(["x", "x", "y", "y"])
        constant = partition_single(["c", "c", "c", "c"])
        product = partition_product(left, constant)
        assert {frozenset(c) for c in product.classes} == {
            frozenset(c) for c in left.classes
        }

    def test_product_commutative(self):
        a = partition_single(["x", "x", "y", "y", "x"])
        b = partition_single(["1", "2", "1", "2", "2"])
        ab = partition_product(a, b)
        ba = partition_product(b, a)
        assert {frozenset(c) for c in ab.classes} == {
            frozenset(c) for c in ba.classes
        }

    def test_product_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            partition_product(partition_single(["a"]), partition_single(["a", "a"]))

    def test_key_partition_product_is_empty(self):
        unique = partition_single(["a", "b", "c", "d"])
        other = partition_single(["x", "x", "x", "x"])
        assert partition_product(unique, other).classes == ()


class TestRefines:
    def test_self_refinement(self):
        p = partition_single(["a", "a", "b", "b"])
        assert p.refines(p)

    def test_non_refinement(self):
        coarse = partition_single(["a", "a", "a", "b"])
        fine = partition_single(["1", "1", "2", "2"])
        assert not coarse.refines(fine)

    def test_explicit_construction(self):
        p = StrippedPartition(classes=((0, 1), (2, 3)), n_rows=5)
        assert p.class_of(4) is None
        assert p.stripped_size == 4


class TestLazyClassMap:
    def test_lazy_map_matches_classes(self):
        p = partition_single(["a", "b", "a", "c", "b", "a"])
        for class_id, members in enumerate(p.classes):
            for row_id in members:
                assert p.class_of(row_id) == class_id
        # Row 3 holds the singleton value "c".
        assert p.class_of(3) is None


class TestLabels:
    def test_labels_are_read_only(self):
        p = partition_single(["a", "b", "a", "c", "b", "a"])
        explicit = StrippedPartition(classes=((0, 1), (2, 3)), n_rows=6)
        for partition in (p, explicit, partition_product(p, explicit)):
            assert not partition.labels.flags.writeable
            with pytest.raises(ValueError):
                partition.labels[0] = 7

    def test_class_ids_dense_in_canonical_order(self):
        # Classes of a single column are numbered by their first rows.
        p = partition_single(["c", "a", "b", "a", "c", "d", "b"])
        assert p.labels.tolist() == [0, 1, 2, 1, 0, -1, 2]
        assert p.classes == ((0, 4), (1, 3), (2, 6))
        # A product's classes go by the larger input's class, then by
        # first row: (3, 5) splits off class 0 of ``large`` before (1, 2)
        # and (4, 6) split off its class 1.
        large = partition_single(["x", "y", "y", "x", "y", "x", "y"])
        small = partition_single(["p", "q", "q", "r", "s", "r", "s"])
        assert small.stripped_size < large.stripped_size
        for product in (
            partition_product(small, large),
            partition_product(large, small),
        ):
            assert product.classes == ((3, 5), (1, 2), (4, 6))
            assert sorted(set(product.labels.tolist()) - {-1}) == [0, 1, 2]

    def test_minus_one_marks_exactly_the_stripped_rows(self):
        p = partition_single(["a", "b", "a", None, "c", None, "d"])
        stripped = [row for row, label in enumerate(p.labels.tolist()) if label < 0]
        assert stripped == [1, 4, 6]
        assert p.stripped_size == 4
        assert p.num_stripped_classes == 2

    def test_product_and_g3_leave_inputs_unchanged(self):
        left = partition_single(["a", "a", "a", "b", "b", "c"])
        right = partition_single(["x", "x", "y", "y", "y", "y"])
        before = (left.labels.copy(), right.labels.copy())
        combined = partition_product(left, right)
        dependency_error(left, combined)
        key_error(combined)
        assert (left.labels == before[0]).all()
        assert (right.labels == before[1]).all()

    def test_combined_that_does_not_refine_lhs_raises(self):
        lhs = partition_single(["a", "a", "b", "b"])
        # Row 1 and row 2 lie in different lhs classes.
        combined = StrippedPartition(classes=((1, 2),), n_rows=4)
        with pytest.raises(ValueError, match="does not refine"):
            dependency_error(lhs, combined)
        assert not combined.refines(lhs)

    def test_explicit_classes_are_validated(self):
        with pytest.raises(ValueError):
            StrippedPartition(classes=((0,),), n_rows=2)
        with pytest.raises(ValueError):
            StrippedPartition(classes=((0, 1), (1, 2)), n_rows=3)
        with pytest.raises(ValueError):
            StrippedPartition(classes=((0, 3),), n_rows=3)
