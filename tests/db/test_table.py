"""Unit tests for the in-memory table."""

import pytest

from repro.db.errors import TypeMismatchError, UnknownAttributeError
from repro.db.table import Table


class TestInsertAndRead:
    def test_insert_returns_sequential_ids(self, toy_schema):
        table = Table(toy_schema)
        assert table.insert(("Ford", "Focus", 7000, 2001)) == 0
        assert table.insert(("Honda", "Civic", 7500, 1999)) == 1
        assert len(table) == 2

    def test_insert_validates(self, toy_schema):
        table = Table(toy_schema)
        with pytest.raises(TypeMismatchError):
            table.insert(("Ford", "Focus", "expensive", 2001))

    def test_insert_mapping(self, toy_schema):
        table = Table(toy_schema)
        table.insert_mapping({"Make": "Ford", "Model": "Focus", "Price": 1, "Year": 2})
        assert table.row(0) == ("Ford", "Focus", 1, 2)

    def test_extend_counts(self, toy_schema):
        table = Table(toy_schema)
        n = table.extend([("Ford", "Focus", 1, 2), ("Honda", "Civic", 3, 4)])
        assert n == 2 and len(table) == 2

    def test_rows_selection(self, toy_table):
        rows = toy_table.rows([0, 2])
        assert rows[0][1] == "Camry" and rows[1][1] == "Corolla"

    def test_iteration(self, toy_table):
        assert len(list(toy_table)) == len(toy_table)


class TestColumns:
    def test_column(self, toy_table):
        makes = toy_table.column("Make")
        assert makes[0] == "Toyota" and len(makes) == len(toy_table)

    def test_columns(self, toy_table):
        pairs = toy_table.columns(("Make", "Model"))
        assert pairs[0] == ("Toyota", "Camry")

    def test_distinct_values(self, toy_table):
        assert set(toy_table.distinct_values("Make")) == {"Toyota", "Honda", "Ford"}

    def test_value_counts(self, toy_table):
        counts = toy_table.value_counts("Make")
        assert counts["Toyota"] == 3 and counts["Honda"] == 3 and counts["Ford"] == 2

    def test_value_counts_without_index(self, toy_schema):
        table = Table(toy_schema, auto_index=False)
        table.insert(("Ford", "Focus", 1, 2))
        table.insert(("Ford", None, 1, 2))
        assert table.value_counts("Make") == {"Ford": 2}
        assert table.distinct_values("Model") == ["Focus"]

    def test_numeric_extent(self, toy_table):
        assert toy_table.numeric_extent("Price") == (7000, 17000)

    def test_numeric_extent_empty(self, toy_schema):
        assert Table(toy_schema).numeric_extent("Price") is None

    @pytest.mark.parametrize("auto_index", [True, False])
    def test_numeric_extent_skips_nan(self, toy_schema, auto_index):
        # NaN and ±inf cells bound nothing, indexed or not.
        table = Table(toy_schema, auto_index=auto_index)
        table.extend(
            [
                ("Ford", "Focus", float("nan"), 2001),
                ("Ford", "Focus", float("inf"), 2001),
                ("Ford", "Focus", 7000, 2001),
                ("Kia", "Rio", float("-inf"), 2003),
                ("Kia", "Rio", 5000.5, 2003),
            ]
        )
        assert table.numeric_extent("Price") == (5000.5, 7000)
        no_finite = Table(toy_schema, auto_index=auto_index)
        no_finite.extend(
            ("Ford", "Focus", bad, 2001)
            for bad in (float("nan"), float("inf"), float("-inf"), None)
        )
        assert no_finite.numeric_extent("Price") is None

    def test_numeric_extent_categorical_raises(self, toy_table):
        with pytest.raises(UnknownAttributeError):
            toy_table.numeric_extent("Make")


class TestIndexMaintenance:
    def test_auto_indexes_exist(self, toy_table):
        assert toy_table.hash_index("Make") is not None
        assert toy_table.sorted_index("Price") is not None
        assert toy_table.hash_index("Price") is None

    def test_indexes_updated_on_insert(self, toy_schema):
        table = Table(toy_schema)
        table.insert(("Ford", "Focus", 7000, 2001))
        assert table.hash_index("Make").lookup("Ford") == [0]
        assert list(table.sorted_index("Price").range(6000, 8000)) == [0]

    def test_late_index_backfills(self, toy_table):
        index = toy_table.create_hash_index("Year")
        # Year is numeric so no auto hash index existed; counts must match.
        assert sum(index.value_counts().values()) == len(toy_table)

    def test_create_twice_returns_same(self, toy_table):
        first = toy_table.create_hash_index("Make")
        assert toy_table.create_hash_index("Make") is first


class TestDerivation:
    def test_sample(self, toy_table):
        derived = toy_table.sample([1, 3])
        assert len(derived) == 2
        assert derived.row(0) == toy_table.row(1)

    def test_filter(self, toy_table):
        toyotas = toy_table.filter(lambda row: row[0] == "Toyota")
        assert len(toyotas) == 3
        assert all(row[0] == "Toyota" for row in toyotas)

    def test_to_mappings(self, toy_table):
        mappings = toy_table.to_mappings()
        assert mappings[0]["Model"] == "Camry"
        assert len(mappings) == len(toy_table)
