"""Tests for CSV/JSON table I/O."""

import io

import pytest

from repro.data import SQLType
from repro.engine import EngineError, Table
from repro.engine.io import read_csv, read_json, write_csv, write_json


class TestReadCsv:
    def test_basic(self):
        table = read_csv(io.StringIO("a,b\n1,x\n2,y\n"))
        assert table.to_rows() == [
            {"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"},
        ]

    def test_type_inference(self):
        table = read_csv(io.StringIO("n,s,flag\n1,one,true\n2,two,false\n"))
        assert table.column("n").type is SQLType.DOUBLE
        assert table.column("s").type is SQLType.VARCHAR
        assert table.column("flag").type is SQLType.BOOLEAN

    def test_nulls(self):
        table = read_csv(io.StringIO("a,b\n1,\n,x\nNA,NULL\n"))
        assert table.to_rows() == [
            {"a": 1.0, "b": None},
            {"a": None, "b": "x"},
            {"a": None, "b": None},
        ]

    def test_mixed_column_stays_text(self):
        table = read_csv(io.StringIO("v\n1\nabc\n2\n"))
        assert table.column("v").type is SQLType.VARCHAR
        assert table.column("v").to_list() == ["1", "abc", "2"]

    def test_short_rows_padded(self):
        table = read_csv(io.StringIO("a,b\n1\n"))
        assert table.to_rows() == [{"a": 1.0, "b": None}]

    def test_custom_delimiter(self):
        table = read_csv(io.StringIO("a|b\n1|2\n"), delimiter="|")
        assert table.to_rows() == [{"a": 1.0, "b": 2.0}]

    def test_empty_raises(self):
        with pytest.raises(EngineError):
            read_csv(io.StringIO(""))

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "data.csv")
        original = Table.from_columns(x=[1.0, None], k=["a", "b"])
        write_csv(original, path)
        loaded = read_csv(path)
        assert loaded.to_rows() == original.to_rows()


class TestJson:
    def test_read_text(self):
        table = read_json('[{"a": 1, "b": "x"}, {"a": null, "b": "y"}]')
        assert table.to_rows() == [
            {"a": 1.0, "b": "x"}, {"a": None, "b": "y"},
        ]

    def test_read_handle(self):
        table = read_json(io.StringIO('[{"a": 2}]'))
        assert table.to_rows() == [{"a": 2.0}]

    def test_non_array_rejected(self):
        with pytest.raises(EngineError):
            read_json('{"a": 1}')

    def test_non_object_row_rejected(self):
        with pytest.raises(EngineError):
            read_json("[1, 2]")

    def test_round_trip(self):
        original = Table.from_columns(x=[1.5, None], k=["a", None])
        text = write_json(original)
        loaded = read_json(text)
        assert loaded.to_rows() == original.to_rows()

    def test_write_to_file(self, tmp_path):
        path = str(tmp_path / "data.json")
        table = Table.from_columns(x=[1.0])
        write_json(table, path)
        assert read_json(path).to_rows() == [{"x": 1.0}]

    def test_ints_become_floats(self):
        table = read_json('[{"a": 3}]')
        assert table.column("a").type is SQLType.DOUBLE


class TestEndToEndWithEngine:
    def test_csv_through_sql(self):
        from repro.engine import Database

        table = read_csv(io.StringIO(
            "carrier,delay\nAA,10\nDL,\nAA,30\n"
        ))
        db = Database()
        db.load_table("t", table)
        result = db.execute(
            "SELECT carrier, COUNT(delay) AS n, SUM(delay) AS s "
            "FROM t GROUP BY carrier ORDER BY carrier"
        )
        assert result.to_rows() == [
            {"carrier": "AA", "n": 2.0, "s": 40.0},
            {"carrier": "DL", "n": 0.0, "s": None},
        ]
