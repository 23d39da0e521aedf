"""Unit tests for stripped partitions."""

import pytest

from repro.afd.g3 import dependency_error
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
    def test_map_not_built_until_needed(self):
        p = partition_single(["a", "b", "a", "c", "b", "a"])
        assert p._class_of is None
        p.class_of(0)
        assert p._class_of is not None

    def test_lazy_map_matches_classes(self):
        p = partition_single(["a", "b", "a", "c", "b", "a"])
        for class_id, members in enumerate(p.classes):
            for row_id in members:
                assert p.class_of(row_id) == class_id
        # Row 3 holds the singleton value "c".
        assert p.class_of(3) is None

    def test_rank_does_not_build_map(self):
        left = partition_single(["a", "a", "b", "b", "c"])
        right = partition_single(["x", "x", "x", "y", "y"])
        product = partition_product(left, right)
        assert product.rank >= 0
        assert product._class_of is None

    def test_product_builds_map_on_smaller_input_only(self):
        small = partition_single(["a", "a", "b", "c", "d", "e"])
        large = partition_single(["x", "x", "x", "y", "y", "y"])
        assert small.stripped_size < large.stripped_size
        for product in (
            partition_product(small, large),
            partition_product(large, small),
        ):
            assert product._class_of is None
        assert small._class_of is not None
        assert large._class_of is None

    def test_product_reuses_the_memoised_map(self):
        small = partition_single(["a", "a", "b", "c"])
        large = partition_single(["x", "x", "x", "y"])
        partition_product(small, large)
        probe = small._class_of
        partition_product(large, small)
        assert small._class_of is probe

    def test_g3_builds_map_on_lhs_only(self):
        lhs = partition_single(["a", "a", "a", "b", "b"])
        combined = StrippedPartition(classes=((0, 1), (3, 4)), n_rows=5)
        assert dependency_error(lhs, combined) == 1 / 5
        assert lhs._class_of is not None
        assert combined._class_of is None
