"""Unit tests for hash and sorted indexes."""

import pytest

from repro.db.index import HashIndex, SortedIndex
from repro.db.predicates import Between, Eq, Ge, Gt, IsIn, Le, Lt


class TestHashIndex:
    def make(self) -> HashIndex:
        index = HashIndex("Make")
        for row_id, value in enumerate(["Ford", "Toyota", "Ford", "Honda"]):
            index.add(value, row_id)
        return index

    def test_lookup(self):
        index = self.make()
        assert index.lookup("Ford") == [0, 2]
        assert index.lookup("BMW") == []

    def test_nulls_not_indexed(self):
        index = HashIndex("A")
        index.add(None, 0)
        assert len(index) == 0

    def test_lookup_many_sorted_dedup(self):
        index = self.make()
        assert index.lookup_many(["Toyota", "Ford", "Ford"]) == [0, 1, 2]

    def test_distinct_values_and_counts(self):
        index = self.make()
        assert set(index.distinct_values()) == {"Ford", "Toyota", "Honda"}
        assert index.value_counts() == {"Ford": 2, "Toyota": 1, "Honda": 1}

    def test_serves(self):
        index = self.make()
        assert index.serves(Eq("Make", "Ford"))
        assert index.serves(IsIn("Make", ["Ford"]))
        assert not index.serves(Eq("Model", "x"))
        assert not index.serves(Lt("Make", "M"))
        # A bucket lookup finds a NaN key by identity; ``==`` never does.
        nan = float("nan")
        index.add(nan, 4)
        assert not index.serves(Eq("Make", nan))
        assert not index.serves(IsIn("Make", ["Ford", nan]))

    def test_candidates(self):
        index = self.make()
        assert index.candidates(Eq("Make", "Ford")) == [0, 2]
        assert index.candidates(IsIn("Make", ["Honda", "Toyota"])) == [1, 3]

    def test_candidates_wrong_predicate_type(self):
        with pytest.raises(TypeError):
            self.make().candidates(Lt("Make", "M"))

    @pytest.mark.parametrize(
        "predicate",
        [
            Eq("Make", "Ford"),
            Eq("Make", "BMW"),
            IsIn("Make", ["Honda", "Toyota"]),
            IsIn("Make", ["Ford", "BMW"]),
        ],
    )
    def test_size_and_set_agree_with_candidates(self, predicate):
        index = self.make()
        candidates = index.candidates(predicate)
        assert index.size(predicate) == len(candidates)
        assert index.candidate_set(predicate) == frozenset(candidates)

    def test_posting_set_is_memoised(self):
        index = self.make()
        first = index.candidate_set(Eq("Make", "Ford"))
        assert index.candidate_set(Eq("Make", "Ford")) is first

    def test_add_invalidates_the_grown_posting_set(self):
        index = self.make()
        ford = index.candidate_set(Eq("Make", "Ford"))
        honda = index.candidate_set(Eq("Make", "Honda"))
        index.add("Ford", 4)
        assert index.candidate_set(Eq("Make", "Ford")) == {0, 2, 4}
        assert ford == {0, 2}  # the old set was never mutated
        assert index.candidate_set(Eq("Make", "Honda")) is honda

    def test_missing_value_posting_is_empty_and_uncached(self):
        index = self.make()
        assert index.candidate_set(Eq("Make", "BMW")) == frozenset()
        index.add("BMW", 4)
        assert index.candidate_set(Eq("Make", "BMW")) == {4}

    def test_size_and_set_reject_unservable_predicates(self):
        with pytest.raises(TypeError):
            self.make().size(Lt("Make", "M"))
        with pytest.raises(TypeError):
            self.make().candidate_set(Lt("Make", "M"))

    def test_value_codes_number_values_in_first_appearance_order(self):
        index = self.make()
        index.add(None, 4)
        codes, values = index.value_codes(6)
        assert values == ["Ford", "Toyota", "Honda"]
        # Rows 4 (a null) and 5 (never added) hold no indexed value.
        assert codes.tolist() == [0, 1, 0, 2, -1, -1]
        empty_codes, no_values = HashIndex("A").value_codes(2)
        assert empty_codes.tolist() == [-1, -1] and no_values == []


class TestSortedIndex:
    def make(self) -> SortedIndex:
        index = SortedIndex("Price")
        for row_id, value in enumerate([50, 10, 30, 20, 40]):
            index.add(value, row_id)
        return index

    def test_len(self):
        assert len(self.make()) == 5

    def test_nulls_not_indexed(self):
        index = SortedIndex("P")
        index.add(None, 0)
        index.add(float("nan"), 1)
        index.add_many([None, float("nan"), 3], [2, 3, 4])
        assert len(index) == 1
        assert list(index.range()) == [4]

    def test_range_inclusive(self):
        index = self.make()
        assert sorted(index.range(20, 40)) == [2, 3, 4]

    def test_range_exclusive(self):
        index = self.make()
        assert sorted(index.range(20, 40, False, False)) == [2]

    def test_open_ended(self):
        index = self.make()
        assert sorted(index.range(low=30)) == [0, 2, 4]
        assert sorted(index.range(high=20)) == [1, 3]

    def test_min_max(self):
        index = self.make()
        assert index.finite_extent() == (10, 50)
        empty = SortedIndex("P")
        assert empty.finite_extent() is None
        # ±inf keys sort to the ends and bound nothing.
        index.add(float("inf"), 7)
        index.add(float("-inf"), 8)
        assert index.finite_extent() == (10, 50)
        infinite = SortedIndex("P")
        infinite.add(float("inf"), 0)
        assert infinite.finite_extent() is None

    def test_incremental_adds_resort(self):
        index = self.make()
        assert len(index) == 5  # force build
        index.add(25, 9)
        assert sorted(index.range(20, 30)) == [2, 3, 9]

    @pytest.mark.parametrize(
        "predicate,expected",
        [
            (Eq("Price", 30), [2]),
            (Lt("Price", 30), [1, 3]),
            (Le("Price", 30), [1, 2, 3]),
            (Gt("Price", 30), [0, 4]),
            (Ge("Price", 30), [0, 2, 4]),
            (Between("Price", 15, 35), [2, 3]),
        ],
    )
    def test_candidates(self, predicate, expected):
        assert sorted(self.make().candidates(predicate)) == expected

    @pytest.mark.parametrize(
        "predicate",
        [
            Eq("Price", 30),
            Eq("Price", 31),
            Lt("Price", 10),
            Le("Price", 30),
            Gt("Price", 50),
            Ge("Price", 30),
            Between("Price", 15, 35),
            Between("Price", 60, 70),
        ],
    )
    def test_size_and_set_agree_with_candidates(self, predicate):
        index = self.make()
        candidates = index.candidates(predicate)
        assert index.size(predicate) == len(candidates)
        assert index.candidate_set(predicate) == frozenset(candidates)

    def test_size_sees_incremental_adds(self):
        index = self.make()
        assert index.size(Between("Price", 20, 30)) == 2
        index.add(25, 9)
        assert index.size(Between("Price", 20, 30)) == 3

    def test_serves(self):
        index = self.make()
        assert index.serves(Between("Price", 1, 2))
        assert not index.serves(Between("Other", 1, 2))
        assert not index.serves(IsIn("Price", [1]))
        # Every comparison with NaN is false, so the row check decides.
        nan = float("nan")
        for predicate in (
            Eq("Price", nan),
            Lt("Price", nan),
            Le("Price", nan),
            Gt("Price", nan),
            Ge("Price", nan),
            Between("Price", nan, 40),
            Between("Price", 20, nan),
        ):
            assert not index.serves(predicate)

    def test_candidates_wrong_predicate_type(self):
        with pytest.raises(TypeError):
            self.make().candidates(IsIn("Price", [1]))
