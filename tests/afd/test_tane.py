"""Unit tests for the levelwise TANE miner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afd.tane import TaneConfig, TaneMiner, mine_dependencies, tane_columns
from repro.db.schema import RelationSchema
from repro.db.table import Table
from tests.oracles.afd import bin_numeric_column


def small_table() -> Table:
    """Model functionally determines Make; Id is unique; Price is noisy."""
    schema = RelationSchema.build(
        "T",
        categorical=("Make", "Model", "Color"),
        numeric=("Id",),
        order=("Id", "Make", "Model", "Color"),
    )
    table = Table(schema)
    rows = [
        (1, "Toyota", "Camry", "Red"),
        (2, "Toyota", "Camry", "Blue"),
        (3, "Toyota", "Corolla", "Red"),
        (4, "Honda", "Accord", "Red"),
        (5, "Honda", "Accord", "Blue"),
        (6, "Honda", "Civic", "Green"),
        (7, "Ford", "Focus", "Red"),
        (8, "Ford", "Focus", "Blue"),
    ]
    table.extend(rows)
    return table


def find_afd(model, lhs, rhs):
    for afd in model.afds:
        if afd.lhs == lhs and afd.rhs == rhs:
            return afd
    return None


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            TaneConfig(error_threshold=1.0)
        with pytest.raises(ValueError):
            TaneConfig(error_threshold=-0.1)

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            TaneConfig(max_lhs_size=0)
        with pytest.raises(ValueError):
            TaneConfig(max_key_size=0)
        with pytest.raises(ValueError):
            TaneConfig(numeric_bins=-1)


def tane_binned(values, n_bins):
    """TANE's labels for a one-column numeric table holding ``values``."""
    table = Table(RelationSchema.build("T", numeric=("X",)))
    table.extend([(value,) for value in values])
    return tane_columns(table, n_bins)["X"]


#: Cells of a numeric column: ints, floats equal to ints, other floats,
#: None, NaN and ±inf.  Ints stay within float64's exact range (2**53),
#: where the float binner's arithmetic is the integer arithmetic.
_CELLS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(-50, 50).map(float),
    st.floats(-1e9, 1e9),
    st.sampled_from([None, math.nan, math.inf, -math.inf]),
)


class TestBinning:
    def test_equal_width_bins(self):
        binned = tane_binned([0, 5, 10], 2)
        assert binned == [0, 1, 1]

    def test_nulls_preserved(self):
        assert tane_binned([None, 1, 2], 2)[0] is None

    def test_constant_column_single_bin(self):
        assert tane_binned([3, 3, 3], 4) == [0, 0, 0]

    def test_empty_column(self):
        assert tane_binned([], 3) == []

    def test_invalid_bins(self):
        # Zero bins means raw values (TaneConfig's default); a negative
        # count reaches the binner, which refuses it.
        assert tane_binned([1, 2], 0) == [1, 2]
        with pytest.raises(ValueError):
            tane_binned([1, 2], -1)

    def test_non_finite_cells_pass_through(self):
        nan, inf = float("nan"), float("inf")
        binned = tane_binned([0, nan, 5, inf, None, 10, -inf], 2)
        # Bin edges come from the finite values 0..10 only; list equality
        # matches the very same NaN object by identity.
        assert binned == [0, nan, 1, inf, None, 1, -inf]

    def test_only_non_finite_cells(self):
        nan = float("nan")
        assert tane_binned([nan, None, float("inf")], 3) == [
            nan,
            None,
            float("inf"),
        ]
        assert tane_binned([2.0, nan, 2.0], 3) == [0, nan, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(_CELLS, max_size=40),
            st.tuples(_CELLS, st.integers(0, 20)).map(lambda c: [c[0]] * c[1]),
        ),
        n_bins=st.integers(1, 12),
    )
    def test_labels_equal_the_pure_python_binner(self, values, n_bins):
        assert tane_binned(values, n_bins) == bin_numeric_column(values, n_bins)


class TestMining:
    def test_exact_fd_found(self):
        model = mine_dependencies(
            small_table(),
            TaneConfig(error_threshold=0.01, filter_key_determinants=False),
        )
        afd = find_afd(model, ("Model",), "Make")
        assert afd is not None
        assert afd.error == 0.0
        assert afd.minimal

    def test_unique_column_is_key(self):
        model = mine_dependencies(small_table(), TaneConfig(error_threshold=0.01))
        key_sets = {key.attributes for key in model.keys}
        assert ("Id",) in key_sets

    def test_superset_keys_flagged_non_minimal(self):
        model = mine_dependencies(
            small_table(), TaneConfig(error_threshold=0.01, max_key_size=2)
        )
        by_attrs = {key.attributes: key for key in model.keys}
        assert by_attrs[("Id",)].minimal
        assert not by_attrs[("Id", "Make")].minimal

    def test_keep_non_minimal_false_drops_them(self):
        model = mine_dependencies(
            small_table(),
            TaneConfig(error_threshold=0.01, max_key_size=2, keep_non_minimal=False),
        )
        assert all(key.minimal for key in model.keys)
        assert all(afd.minimal for afd in model.afds)

    def test_approximate_fd_within_threshold(self):
        # Make -> Model has error: Toyota{2 Camry,1 Corolla} 1 removed,
        # Honda{2 Accord,1 Civic} 1 removed, Ford{2 Focus} 0 -> 2/8.
        model = mine_dependencies(
            small_table(),
            TaneConfig(error_threshold=0.25, filter_key_determinants=False),
        )
        afd = find_afd(model, ("Make",), "Model")
        assert afd is not None
        assert afd.error == pytest.approx(0.25)

    def test_afd_excluded_above_threshold(self):
        model = mine_dependencies(
            small_table(),
            TaneConfig(error_threshold=0.1, filter_key_determinants=False),
        )
        assert find_afd(model, ("Make",), "Model") is None

    def test_max_lhs_size_respected(self):
        model = mine_dependencies(
            small_table(),
            TaneConfig(
                error_threshold=0.3, max_lhs_size=1, filter_key_determinants=False
            ),
        )
        assert all(afd.size == 1 for afd in model.afds)

    def test_key_determinant_filter(self):
        """With the filter on, {Id} -> X junk AFDs disappear."""
        unfiltered = mine_dependencies(
            small_table(),
            TaneConfig(error_threshold=0.01, filter_key_determinants=False),
        )
        assert find_afd(unfiltered, ("Id",), "Make") is not None
        filtered = mine_dependencies(
            small_table(), TaneConfig(error_threshold=0.01)
        )
        assert find_afd(filtered, ("Id",), "Make") is None
        # Genuine dependencies survive the filter.
        assert find_afd(filtered, ("Model",), "Make") is not None

    def test_trivial_consequent_filter(self):
        schema = RelationSchema.build("T", categorical=("A", "B"))
        table = Table(schema)
        # B is constant: everything "determines" it trivially.
        table.extend([("a1", "x"), ("a1", "x"), ("a2", "x"), ("a2", "x")])
        filtered = mine_dependencies(table, TaneConfig(error_threshold=0.1))
        assert find_afd(filtered, ("A",), "B") is None
        unfiltered = mine_dependencies(
            table,
            TaneConfig(error_threshold=0.1, filter_trivial_consequents=False),
        )
        assert find_afd(unfiltered, ("A",), "B") is not None

    def test_empty_table(self):
        schema = RelationSchema.build("T", categorical=("A", "B"))
        model = mine_dependencies(Table(schema))
        assert model.afds == () and model.keys == ()

    def test_numeric_binning_enables_afd(self):
        """Raw near-unique numeric yields no AFDs onto it; binning does."""
        schema = RelationSchema.build(
            "T", categorical=("Grade",), numeric=("Score",), order=("Grade", "Score")
        )
        table = Table(schema)
        # Score in [0,10) for grade "low", [90,100) for "high".
        for i in range(10):
            table.insert(("low", float(i)))
            table.insert(("high", 90.0 + i))
        binned = mine_dependencies(
            table, TaneConfig(error_threshold=0.05, numeric_bins=2)
        )
        assert find_afd(binned, ("Grade",), "Score") is not None

    def test_miner_reusable_across_tables(self):
        miner = TaneMiner(TaneConfig(error_threshold=0.01))
        first = miner.mine(small_table())
        second = miner.mine(small_table())
        assert len(first.afds) == len(second.afds)

    def test_deterministic(self):
        a = mine_dependencies(small_table(), TaneConfig(error_threshold=0.3))
        b = mine_dependencies(small_table(), TaneConfig(error_threshold=0.3))
        assert [afd.describe() for afd in a.afds] == [
            afd.describe() for afd in b.afds
        ]


class TestCarDBMining:
    def test_model_determines_make(self, car_table):
        model = mine_dependencies(
            car_table, TaneConfig(error_threshold=0.1, numeric_bins=8)
        )
        afd = find_afd(model, ("Model",), "Make")
        assert afd is not None and afd.error == 0.0

    def test_keys_exist(self, car_table):
        model = mine_dependencies(
            car_table, TaneConfig(error_threshold=0.3, numeric_bins=8)
        )
        assert len(model.keys) > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_binned_mining_survives_non_finite_price(self, car_table, bad):
        rows = [list(row) for row in car_table.rows(range(300))]
        price = car_table.schema.position("Price")
        rows[7][price] = bad
        table = Table(car_table.schema)
        table.extend(tuple(row) for row in rows)
        model = mine_dependencies(table, TaneConfig(numeric_bins=8))
        assert model.sample_size == 300
