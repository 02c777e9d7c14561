"""Unit tests for columnar storage (Column/Table)."""

import numpy as np
import pytest

from repro.data import (
    ArrayChunk,
    Column,
    DictChunk,
    SQLType,
    Table,
    concat_tables,
    infer_type,
)
from repro.engine.errors import CatalogError, TypeMismatchError


class TestColumn:
    def test_from_values_infers_double(self):
        column = Column.from_values([1, 2.5, None])
        assert column.type is SQLType.DOUBLE
        assert column.to_list() == [1.0, 2.5, None]

    def test_from_values_infers_varchar(self):
        column = Column.from_values(["a", None, "b"])
        assert column.type is SQLType.VARCHAR
        assert column.to_list() == ["a", None, "b"]

    def test_from_values_infers_boolean(self):
        column = Column.from_values([True, False, None])
        assert column.type is SQLType.BOOLEAN
        assert column.to_list() == [True, False, None]

    def test_nan_becomes_null(self):
        column = Column.from_values([1.0, float("nan"), 3.0])
        assert column.to_list() == [1.0, None, 3.0]

    def test_all_null_defaults_to_double(self):
        column = Column.from_values([None, None])
        assert column.type is SQLType.DOUBLE
        assert column.null_count() == 2

    def test_nulls_constructor(self):
        column = Column.nulls(SQLType.VARCHAR, 3)
        assert column.to_list() == [None, None, None]

    def test_constant(self):
        column = Column.constant("x", 2)
        assert column.to_list() == ["x", "x"]

    def test_constant_none(self):
        column = Column.constant(None, 2)
        assert column.to_list() == [None, None]

    def test_take(self):
        column = Column.from_values([10.0, 20.0, 30.0])
        assert column.take(np.array([2, 0])).to_list() == [30.0, 10.0]

    def test_mask(self):
        column = Column.from_values([10.0, 20.0, 30.0])
        keep = np.array([True, False, True])
        assert column.mask(keep).to_list() == [10.0, 30.0]

    def test_value_at_null(self):
        column = Column.from_values([1.0, None])
        assert column.value_at(0) == 1.0
        assert column.value_at(1) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(TypeMismatchError):
            Column(SQLType.DOUBLE, np.zeros(3), np.ones(2, dtype=np.bool_))

    def test_nbytes_double(self):
        column = Column.from_values([1.0, 2.0])
        assert column.nbytes() == 16

    def test_nbytes_varchar_counts_content(self):
        column = Column.from_values(["ab", "cdef"])
        assert column.nbytes() == 6 + 2

    def test_nbytes_varchar_is_the_same_in_every_layout(self):
        """The cache's byte budget and the virtual network charge read
        these totals: a loop over the rows (the definition), the plain
        column, the coded column and the chunked layouts must agree —
        with NULLs, empty strings and non-ASCII text in the way."""
        values = ["", None, "añb", "añb", "日本語", None, "x", ""] * 5
        expected = sum(len(v) for v in values if v is not None) + len(values)
        plain = Column.from_values(values)
        coded = Column.from_values(values)
        coded.encode()
        assert coded.codes is not None and plain.codes is None
        spilled = ArrayChunk(plain.data, plain.valid).nbytes(SQLType.VARCHAR)
        for column in (plain, coded, plain.rechunk(3), coded.slice(0, 40),
                       Column.from_chunks(
                           SQLType.VARCHAR, coded.storage_chunks() * 2
                       ).slice(40, 80)):
            assert column.nbytes() == expected == spilled
        assert coded.take(np.array([1, 2, 4])).nbytes() == 3 + 3 + 3
        assert Column.nulls(SQLType.VARCHAR, 4).nbytes() == 4


class TestDictionaryCoding:
    VALUES = ["b", None, "a", "", "b", "a", None, "b", "c", "a"]

    def coded(self):
        column = Column.from_values(self.VALUES)
        column.encode()
        return column

    def test_encode_keeps_the_rows_and_sorts_the_dictionary(self):
        column = self.coded()
        assert column.dictionary.tolist() == ["", "a", "b", "c"]
        assert column.codes.dtype == np.int32
        assert column.to_list() == self.VALUES
        assert column.data.tolist() == [v or "" for v in self.VALUES]
        assert column.null_count() == 2
        assert [column.value_at(i) for i in range(10)] == self.VALUES

    def test_high_cardinality_stays_plain(self):
        # a dictionary of half the rows or more is not worth its codes
        column = Column.from_values(["a", "b", "a", "b"])
        column.encode()
        assert column.codes is None
        for other in (Column.from_values([1.0, 1.0, 1.0]),
                      Column.nulls(SQLType.VARCHAR, 8),
                      Column.from_values(self.VALUES).rechunk(4)):
            other.encode()
            assert other.codes is None

    def test_take_mask_slice_keep_the_coding(self):
        column = self.coded()
        keep = np.array([v is not None for v in self.VALUES])
        for derived, expected in (
            (column.take(np.array([9, 0, 1])), ["a", "b", None]),
            (column.mask(keep), [v for v in self.VALUES if v is not None]),
            (column.slice(2, 5), self.VALUES[2:5]),
        ):
            assert derived.dictionary is column.dictionary
            assert derived.to_list() == expected

    def test_concat_merges_dictionaries(self):
        column = self.coded()
        fresh = Column.from_values(["zz", "a", None, "0"])
        merged = concat_tables([
            Table({"s": column}), Table({"s": fresh}), Table({"s": column}),
        ]).column("s")
        assert merged.dictionary.tolist() == ["", "0", "a", "b", "c", "zz"]
        assert merged.to_list() == self.VALUES + ["zz", "a", None, "0"] \
            + self.VALUES
        # too many new values for the rows there are: plain again
        wide = Column.from_values(["n{}".format(i) for i in range(10)])
        plain = concat_tables(
            [Table({"s": column}), Table({"s": wide})]).column("s")
        assert plain.codes is None
        assert plain.to_list() == self.VALUES + wide.to_list()

    def test_dictionary_chunks_consolidate_to_codes(self):
        """A spilled VARCHAR column (dictionary chunks, dictionary in
        insertion order) flattens to a coded column — sorted dictionary,
        remapped codes, no string per row — with the rows unchanged."""
        unsorted = np.array(["b", "", "c", "a"], dtype=object)
        codes = np.array([0, 0, 3, 1, 0, 3, 0, 0, 2, 3], dtype=np.int32)
        valid = np.array([v is not None for v in self.VALUES])
        chunks = [DictChunk(codes[:4], valid[:4], unsorted),
                  DictChunk(codes[4:], valid[4:], unsorted)]
        column = Column.from_chunks(SQLType.VARCHAR, chunks)
        assert column.to_list() == self.VALUES
        assert column.data.tolist() == [v or "" for v in self.VALUES]
        assert column.dictionary.tolist() == ["", "a", "b", "c"]
        assert column.to_list() == self.VALUES
        assert column.chunk_offsets() == [0, 4, 10]
        assert column.nbytes() == self.coded().nbytes()
        # one entry per two rows or more: strings, as encode() decides
        short = Column.from_chunks(SQLType.VARCHAR, [
            DictChunk(codes[:3], valid[:3], unsorted),
            DictChunk(codes[3:6], valid[3:6], unsorted)])
        assert short.data.tolist() == [v or "" for v in self.VALUES[:6]]
        assert short.codes is None


class TestTable:
    def test_from_rows(self):
        table = Table.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.num_rows == 2
        assert table.column_names == ["a", "b"]

    def test_from_rows_missing_keys_null(self):
        table = Table.from_rows([{"a": 1}, {"b": "y"}])
        assert table.to_rows() == [
            {"a": 1.0, "b": None},
            {"a": None, "b": "y"},
        ]

    def test_from_columns(self):
        table = Table.from_columns(a=[1, 2], b=["x", "y"])
        assert table.num_rows == 2

    def test_duplicate_column_rejected(self):
        table = Table.from_columns(a=[1])
        with pytest.raises(CatalogError):
            table.add_column("a", Column.from_values([2]))

    def test_length_mismatch_rejected(self):
        table = Table.from_columns(a=[1, 2])
        with pytest.raises(TypeMismatchError):
            table.add_column("b", Column.from_values([1]))

    def test_unknown_column_raises(self):
        table = Table.from_columns(a=[1])
        with pytest.raises(CatalogError):
            table.column("zzz")

    def test_select_preserves_order(self):
        table = Table.from_columns(a=[1], b=[2], c=[3])
        assert table.select(["c", "a"]).column_names == ["c", "a"]

    def test_rename(self):
        table = Table.from_columns(a=[1])
        assert table.rename({"a": "z"}).column_names == ["z"]

    def test_row_access(self):
        table = Table.from_columns(a=[1, 2], b=["x", None])
        assert table.row(1) == {"a": 2.0, "b": None}

    def test_head(self):
        table = Table.from_columns(a=list(range(10)))
        assert table.head(3).num_rows == 3

    def test_schema(self):
        table = Table.from_columns(a=[1.0], b=["x"])
        assert table.schema() == [("a", SQLType.DOUBLE), ("b", SQLType.VARCHAR)]

    def test_take_mask_roundtrip(self):
        table = Table.from_columns(a=[1, 2, 3, 4])
        masked = table.mask(np.array([True, False, True, False]))
        assert masked.column("a").to_list() == [1.0, 3.0]


class TestConcat:
    def test_concat(self):
        t1 = Table.from_columns(a=[1.0], b=["x"])
        t2 = Table.from_columns(a=[2.0], b=[None])
        merged = concat_tables([t1, t2])
        assert merged.to_rows() == [
            {"a": 1.0, "b": "x"},
            {"a": 2.0, "b": None},
        ]

    def test_concat_type_mismatch(self):
        t1 = Table.from_columns(a=[1.0])
        t2 = Table.from_columns(a=["x"])
        with pytest.raises(TypeMismatchError):
            concat_tables([t1, t2])

    def test_concat_empty_list(self):
        assert concat_tables([]).num_rows == 0


class TestTypeInference:
    def test_infer_double(self):
        assert infer_type([None, 3]) is SQLType.DOUBLE

    def test_infer_varchar(self):
        assert infer_type(["x"]) is SQLType.VARCHAR

    def test_bool_not_confused_with_number(self):
        assert infer_type([True]) is SQLType.BOOLEAN

    def test_from_name_aliases(self):
        assert SQLType.from_name("text") is SQLType.VARCHAR
        assert SQLType.from_name("INT") is SQLType.DOUBLE
        assert SQLType.from_name("bool") is SQLType.BOOLEAN

    def test_from_name_unknown(self):
        with pytest.raises(ValueError):
            SQLType.from_name("BLOB")
