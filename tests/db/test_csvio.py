"""Unit tests for CSV round-trip."""

import pytest

from repro.db.csvio import read_csv, write_csv, write_rows_csv
from repro.db.errors import SchemaError
from repro.db.table import Table


class TestRoundTrip:
    def test_write_read_identity(self, toy_table, tmp_path):
        path = tmp_path / "cars.csv"
        written = write_csv(toy_table, path)
        assert written == len(toy_table)
        loaded = read_csv(toy_table.schema, path)
        assert loaded.rows() == toy_table.rows()

    def test_nulls_roundtrip(self, toy_schema, tmp_path):
        table = Table(toy_schema)
        table.insert(("Ford", None, None, 2001))
        path = tmp_path / "nulls.csv"
        write_csv(table, path)
        loaded = read_csv(toy_schema, path)
        assert loaded.row(0) == ("Ford", None, None, 2001)

    def test_floats_roundtrip(self, toy_schema, tmp_path):
        table = Table(toy_schema)
        table.insert(("Ford", "Focus", 7000.5, 2001))
        path = tmp_path / "floats.csv"
        write_csv(table, path)
        loaded = read_csv(toy_schema, path)
        assert loaded.row(0)[2] == pytest.approx(7000.5)

    def test_reordered_header_accepted(self, toy_schema, tmp_path):
        path = tmp_path / "reordered.csv"
        path.write_text("Model,Make,Year,Price\nFocus,Ford,2001,7000\n")
        loaded = read_csv(toy_schema, path)
        assert loaded.row(0) == ("Ford", "Focus", 7000, 2001)

    def test_write_rows_csv(self, toy_schema, tmp_path):
        path = tmp_path / "raw.csv"
        n = write_rows_csv(toy_schema, [("Ford", "Focus", 1, 2)], path)
        assert n == 1
        assert read_csv(toy_schema, path).row(0) == ("Ford", "Focus", 1, 2)


class TestErrors:
    def test_empty_file(self, toy_schema, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(toy_schema, path)

    def test_wrong_header(self, toy_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n1,2\n")
        with pytest.raises(SchemaError):
            read_csv(toy_schema, path)

    def test_ragged_row(self, toy_schema, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("Make,Model,Price,Year\nFord,Focus,7000\n")
        with pytest.raises(SchemaError):
            read_csv(toy_schema, path)

    def test_unparseable_number(self, toy_schema, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "Make,Model,Price,Year\nFord,Focus,7000,2001\nFord,Focus,cheap,2001\n"
        )
        with pytest.raises(SchemaError, match=r"nan\.csv:3: .*'cheap'.*'Price'"):
            read_csv(toy_schema, path)
