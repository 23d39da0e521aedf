"""Unit tests for supertuples, AV-pairs and numeric binners."""

import math

import numpy as np
import pytest

from repro.core.config import AIMQSettings
from repro.core.pipeline import build_model_from_sample
from repro.datasets.cardb import generate_cardb
from repro.db.table import Table
from repro.simmining.avpair import AVPair
from repro.simmining.supertuple import (
    NumericBinner,
    build_binners,
    build_supertuple,
    code_keywords,
)
from tests.oracles.supertuple import keyword_columns


class TestAVPair:
    def test_as_query(self):
        query = AVPair("Make", "Ford").as_query()
        assert query.bound_attributes == ("Make",)
        assert query.equality_binding("Make") == "Ford"

    def test_describe(self):
        assert str(AVPair("Make", "Ford")) == "Make=Ford"

    def test_validation(self):
        with pytest.raises(ValueError):
            AVPair("", "Ford")
        with pytest.raises(ValueError):
            AVPair("Make", 5)  # type: ignore[arg-type]

    def test_ordering_and_hash(self):
        pairs = {AVPair("Make", "Ford"), AVPair("Make", "Ford")}
        assert len(pairs) == 1
        assert AVPair("Make", "A") < AVPair("Make", "B")


class TestNumericBinner:
    def test_bin_index_clamps(self):
        binner = NumericBinner("Price", 0, 100, 4)
        assert binner.bin_index(-5) == 0
        assert binner.bin_index(500) == 3
        assert binner.bin_index(30) == 1

    def test_labels(self):
        binner = NumericBinner("Price", 0, 100, 4)
        assert binner.label(10) == "0-25"
        assert binner.label(99) == "75-100"

    def test_degenerate_extent(self):
        binner = NumericBinner("Price", 5, 5, 3)
        assert binner.bin_index(5) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericBinner("P", 0, 1, 0)
        with pytest.raises(ValueError):
            NumericBinner("P", 2, 1, 3)

    def test_build_binners(self, toy_table):
        binners = build_binners(toy_table, n_bins=5)
        assert set(binners) == {"Price", "Year"}
        assert binners["Price"].low == 7000
        assert binners["Price"].high == 17000


class TestBuildSupertuple:
    def test_excludes_bound_attribute(self, toy_table):
        avpair = AVPair("Make", "Toyota")
        rows = toy_table.rows(toy_table.hash_index("Make").lookup("Toyota"))
        supertuple = build_supertuple(avpair, rows, toy_table.schema)
        assert "Make" not in supertuple
        assert set(supertuple.attributes) == {"Model", "Price", "Year"}

    def test_bags_count_cooccurrences(self, toy_table):
        avpair = AVPair("Make", "Toyota")
        rows = toy_table.rows(toy_table.hash_index("Make").lookup("Toyota"))
        supertuple = build_supertuple(avpair, rows, toy_table.schema)
        assert supertuple.bag("Model").count("Camry") == 2
        assert supertuple.bag("Model").count("Corolla") == 1
        assert supertuple.answerset_size == 3

    def test_numeric_values_binned_when_binner_given(self, toy_table):
        binners = build_binners(toy_table, n_bins=2)
        avpair = AVPair("Make", "Ford")
        rows = toy_table.rows(toy_table.hash_index("Make").lookup("Ford"))
        supertuple = build_supertuple(avpair, rows, toy_table.schema, binners)
        price_keywords = set(supertuple.bag("Price"))
        assert all(isinstance(k, str) and "-" in k for k in price_keywords)

    def test_numeric_values_raw_without_binner(self, toy_table):
        avpair = AVPair("Make", "Ford")
        rows = toy_table.rows(toy_table.hash_index("Make").lookup("Ford"))
        supertuple = build_supertuple(avpair, rows, toy_table.schema)
        assert supertuple.bag("Price").count(7000) == 1

    def test_nulls_skipped(self, toy_schema):
        from repro.db.table import Table

        table = Table(toy_schema)
        table.insert(("Ford", None, None, 2001))
        supertuple = build_supertuple(
            AVPair("Make", "Ford"), table.rows(), toy_schema
        )
        assert len(supertuple.bag("Model")) == 0
        assert len(supertuple.bag("Year")) == 1

    def test_describe_mentions_bound_pair(self, toy_table):
        avpair = AVPair("Make", "Toyota")
        rows = toy_table.rows(toy_table.hash_index("Make").lookup("Toyota"))
        text = build_supertuple(avpair, rows, toy_table.schema).describe()
        assert "Make=Toyota" in text and "Model" in text


class TestKeywordColumns:
    def test_label_computed_once_per_distinct_value(self, toy_schema, monkeypatch):
        labelled = []
        label = NumericBinner.label

        def counting_label(binner, value):
            labelled.append(value)
            return label(binner, value)

        monkeypatch.setattr(NumericBinner, "label", counting_label)
        columns = {
            "Make": ["Ford", "Ford", "Kia", "Kia"],
            "Model": ["Focus", None, "Rio", "Rio"],
            "Price": [7000, 7000, 7000.0, None],
            "Year": [2001, 2002, None, 2001],
        }
        binners = {"Price": NumericBinner("Price", 0, 10000, 2)}
        keywords = keyword_columns(columns, toy_schema, binners)
        # 7000 and 7000.0 are one distinct value; the null needs no label.
        assert len(labelled) == 1
        assert keywords["Price"] == ["5000-10000"] * 3 + [None]
        # Columns without a binner are their own keywords.
        assert keywords["Model"] is columns["Model"]
        assert keywords["Year"] is columns["Year"]


class TestCodeKeywords:
    def test_label_computed_once_per_bin(self, monkeypatch):
        labelled = []
        bin_label = NumericBinner.bin_label

        def counting_bin_label(binner, index):
            labelled.append(index)
            return bin_label(binner, index)

        monkeypatch.setattr(NumericBinner, "bin_label", counting_bin_label)
        binner = NumericBinner("Price", 0, 10000, 4)
        column = [7000, 7000.0, None, 100, 9999, 7400.5, float("nan"), 7000]
        assert _decoded(column, True, binner) == [
            "5000-7500",
            "5000-7500",
            None,
            "0-2500",
            "7500-10000",
            "5000-7500",
            "nan",
            "5000-7500",
        ]
        assert labelled == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "binner",
        [
            NumericBinner("P", 0, 100, 4),
            NumericBinner("P", 5, 5, 3),
            NumericBinner("P", -3.5, 99.5, 7),
            NumericBinner("P", 0.1, 0.7, 3),
        ],
    )
    def test_bin_indices_match_bin_index(self, binner):
        values = [-10, binner.low, 0.1, 0.3, 0.5, 25, 33.3, 50, 74.99, 75]
        values += [99, binner.high, 1e9, math.nextafter(binner.high, -math.inf)]
        indices = binner.bin_indices(np.array(values, dtype=float))
        assert indices.tolist() == [binner.bin_index(float(v)) for v in values]

    def test_bins_with_one_label_share_a_code(self):
        # Six significant digits print every bin of this extent alike.
        binner = NumericBinner("P", 1e6, 1e6 + 4, 10)
        codes, keywords = code_keywords([1e6, 1e6 + 2, 1e6 + 3.9], True, binner)
        assert keywords == ["1e+06-1e+06"]
        assert codes.tolist() == [0, 0, 0]

    def test_matches_the_keyword_column_oracle(self, toy_schema):
        columns = {
            "Make": ["Ford", None, "Kia", "Ford"],
            "Model": ["Focus", "Rio", None, "Focus"],
            "Price": [7000, INF, None, 10],
            "Year": [2001, 2001.0, NAN, None],
        }
        binners = {"Price": NumericBinner("Price", 10, 7000, 3)}
        oracle = keyword_columns(columns, toy_schema, binners)
        for attribute in toy_schema:
            name = attribute.name
            assert _decoded(
                columns[name], attribute.is_numeric, binners.get(name)
            ) == list(oracle[name])


NAN, INF = float("nan"), float("inf")
non_finite_prices = pytest.mark.parametrize(
    "cells",
    [(NAN,), (INF,), (-INF,), (NAN, INF, -INF)],
    ids=["nan", "inf", "-inf", "mixed"],
)


def _with_prices(table, cells):
    """``table`` with every 7th Price replaced, cycling through ``cells``."""
    position = table.schema.position("Price")
    rows = []
    for row_id, row in enumerate(table):
        if row_id % 7 == 0:
            cell = cells[(row_id // 7) % len(cells)]
            row = (*row[:position], cell, *row[position + 1 :])
        rows.append(row)
    copy = Table(table.schema)
    copy.extend(rows)
    return copy


def _decoded(column, numeric, binner=None):
    """``column``'s keywords as :func:`code_keywords` codes them."""
    codes, keywords = code_keywords(column, numeric, binner)
    return [None if code < 0 else keywords[code] for code in codes.tolist()]


def _price_keywords(table, binners):
    return _decoded(table.column("Price"), True, binners.get("Price"))


class TestNonFiniteCells:
    """NaN and ±inf cells bound no bin and get one keyword per kind."""

    @pytest.fixture(scope="class")
    def cars(self):
        return generate_cardb(400, seed=3)

    @non_finite_prices
    def test_finite_keywords_ignore_non_finite_cells(self, cars, cells):
        table = _with_prices(cars, cells)
        nulled = _with_prices(cars, (None,))
        binners = build_binners(table)
        assert binners == build_binners(nulled)
        for cell, keyword, finite_keyword in zip(
            table.column("Price"),
            _price_keywords(table, binners),
            _price_keywords(nulled, binners),
        ):
            if -math.inf < cell < math.inf:
                assert keyword == finite_keyword
            else:
                assert keyword == repr(cell)

    def test_a_column_with_no_finite_cell_has_one_keyword_per_kind(
        self, toy_schema
    ):
        table = Table(toy_schema)
        # Three distinct NaN objects: no two are equal, or even identical.
        table.extend(("Ford", "Focus", float("nan"), 2001) for _ in range(3))
        binners = build_binners(table)
        assert "Price" not in binners
        supertuple = build_supertuple(
            AVPair("Make", "Ford"), table.rows(), toy_schema, binners
        )
        assert supertuple.bag("Price").counts() == {"nan": 3}

    def test_infinite_cells_get_their_kind_without_a_binner(self, toy_schema):
        columns = {
            "Make": ["Ford"] * 4,
            "Model": ["Focus"] * 4,
            "Price": [INF, None, -INF, INF],
            "Year": [2001] * 4,
        }
        assert _decoded(columns["Price"], True) == ["inf", None, "-inf", "inf"]

    @non_finite_prices
    def test_sample_with_non_finite_cells_builds_a_model(self, cars, cells):
        settings = AIMQSettings(max_relaxation_level=3)
        model = build_model_from_sample(_with_prices(cars, cells), settings=settings)
        nulled = build_model_from_sample(_with_prices(cars, (None,)), settings=settings)
        assert model.numeric_extents == nulled.numeric_extents
        low, high = model.numeric_extents["Price"]
        assert -math.inf < low <= high < math.inf
