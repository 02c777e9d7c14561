"""Direct unit tests for the engine's expression evaluation layer:
frames, three-valued logic, comparisons, CASE/CAST/IN semantics."""

import numpy as np
import pytest

from repro.data import Column, SQLType, Table
from repro.engine import sqlast
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.eval import Frame, evaluate, predicate_mask


def make_frame(**columns):
    table = Table.from_columns(**columns)
    return Frame.from_table(table)


def col(name, table=None):
    return sqlast.ColumnRef(name, table=table)


def lit(value):
    return sqlast.Literal(value)


class TestFrame:
    def test_resolve_by_name(self):
        frame = make_frame(a=[1.0], b=["x"])
        assert frame.resolve("a").type is SQLType.DOUBLE

    def test_resolve_qualified(self):
        table = Table.from_columns(a=[1.0])
        frame = Frame.from_table(table, qualifier="t")
        assert frame.resolve("a", "t") is frame.resolve("a")

    def test_wrong_qualifier_fails(self):
        table = Table.from_columns(a=[1.0])
        frame = Frame.from_table(table, qualifier="t")
        with pytest.raises(PlanError):
            frame.resolve("a", "other")

    def test_ambiguous_name(self):
        left = Frame.from_table(Table.from_columns(k=[1.0]), qualifier="l")
        right = Frame.from_table(Table.from_columns(k=[2.0]), qualifier="r")
        joined = Frame(left.entries + right.entries, num_rows=1)
        with pytest.raises(PlanError):
            joined.resolve("k")
        assert joined.resolve("k", "l").value_at(0) == 1.0

    def test_to_table_dedupes_names(self):
        left = Frame.from_table(Table.from_columns(k=[1.0]), qualifier="l")
        right = Frame.from_table(Table.from_columns(k=[2.0]), qualifier="r")
        joined = Frame(left.entries + right.entries, num_rows=1)
        table = joined.to_table()
        assert table.column_names == ["k", "k_1"]


class TestThreeValuedLogic:
    """Kleene truth tables for AND/OR with NULL operands."""

    def bool_col(self, values):
        data = [value if value is not None else False for value in values]
        valid = [value is not None for value in values]
        return Column(SQLType.BOOLEAN, np.array(data), np.array(valid))

    def combine(self, op, left_values, right_values):
        frame = Frame(
            [
                (None, "l", self.bool_col(left_values)),
                (None, "r", self.bool_col(right_values)),
            ]
        )
        result = evaluate(sqlast.BinaryOp(op, col("l"), col("r")), frame)
        return [
            (bool(d) if v else None)
            for d, v in zip(result.data, result.valid)
        ]

    def test_and_truth_table(self):
        left = [True, True, True, False, False, None, None, False, None]
        right = [True, False, None, True, False, True, False, None, None]
        assert self.combine("AND", left, right) == [
            True, False, None, False, False, None, False, False, None,
        ]

    def test_or_truth_table(self):
        left = [True, True, True, False, False, None, None, False, None]
        right = [True, False, None, True, False, True, False, None, None]
        assert self.combine("OR", left, right) == [
            True, True, True, True, False, True, None, None, None,
        ]

    def test_not_null_is_null(self):
        frame = Frame([(None, "b", self.bool_col([None, True]))])
        result = evaluate(sqlast.UnaryOp("NOT", col("b")), frame)
        assert result.valid.tolist() == [False, True]
        assert bool(result.data[1]) is False

    def test_predicate_mask_treats_null_as_false(self):
        frame = make_frame(x=[1.0, None, 3.0])
        mask = predicate_mask(
            sqlast.BinaryOp(">", col("x"), lit(0.0)), frame
        )
        assert mask.tolist() == [True, False, True]


class TestComparisons:
    def test_null_propagates(self):
        frame = make_frame(x=[1.0, None])
        result = evaluate(sqlast.BinaryOp("=", col("x"), lit(1.0)), frame)
        assert result.valid.tolist() == [True, False]

    def test_string_comparison(self):
        frame = make_frame(s=["apple", "banana"])
        result = evaluate(sqlast.BinaryOp("<", col("s"), lit("b")), frame)
        assert result.data.tolist() == [True, False]

    def test_cross_type_comparison_rejected(self):
        frame = make_frame(s=["x"], n=[1.0])
        with pytest.raises(ExecutionError):
            evaluate(sqlast.BinaryOp("=", col("s"), col("n")), frame)

    def test_boolean_number_promotion(self):
        frame = make_frame(b=[True, False])
        result = evaluate(sqlast.BinaryOp("=", col("b"), lit(1.0)), frame)
        assert result.data.tolist() == [True, False]


class TestArithmetic:
    def test_division_by_zero_null(self):
        frame = make_frame(x=[1.0], z=[0.0])
        result = evaluate(sqlast.BinaryOp("/", col("x"), col("z")), frame)
        assert result.valid.tolist() == [False]

    def test_modulo(self):
        frame = make_frame(x=[7.0])
        result = evaluate(sqlast.BinaryOp("%", col("x"), lit(3.0)), frame)
        assert result.data.tolist() == [1.0]

    def test_string_arithmetic_rejected(self):
        frame = make_frame(s=["x"])
        with pytest.raises(ExecutionError):
            evaluate(sqlast.BinaryOp("+", col("s"), lit(1.0)), frame)

    def test_concat_coerces_numbers(self):
        frame = make_frame(n=[15.0])
        result = evaluate(sqlast.BinaryOp("||", lit("v"), col("n")), frame)
        assert result.data.tolist() == ["v15"]


class TestCaseInCast:
    def test_case_branches(self):
        frame = make_frame(x=[1.0, -1.0, None])
        expr = sqlast.Case(
            whens=(
                (sqlast.BinaryOp(">", col("x"), lit(0.0)), lit("pos")),
                (sqlast.BinaryOp("<", col("x"), lit(0.0)), lit("neg")),
            ),
            default=lit("other"),
        )
        result = evaluate(expr, frame)
        assert result.to_list() == ["pos", "neg", "other"]

    def test_case_without_default_yields_null(self):
        frame = make_frame(x=[-5.0])
        expr = sqlast.Case(
            whens=((sqlast.BinaryOp(">", col("x"), lit(0.0)), lit(1.0)),),
        )
        result = evaluate(expr, frame)
        assert result.to_list() == [None]

    def test_in_list_strings(self):
        frame = make_frame(s=["a", "b", None])
        expr = sqlast.InList(col("s"), (lit("a"), lit("c")))
        result = evaluate(expr, frame)
        assert result.data.tolist() == [True, False, False]
        assert result.valid.tolist() == [True, True, False]

    def test_not_in(self):
        frame = make_frame(x=[1.0, 2.0])
        expr = sqlast.InList(col("x"), (lit(1.0),), negated=True)
        result = evaluate(expr, frame)
        assert result.data.tolist() == [False, True]

    def test_between(self):
        frame = make_frame(x=[0.0, 5.0, 10.0, 20.0])
        expr = sqlast.Between(col("x"), lit(5.0), lit(10.0))
        mask = predicate_mask(expr, frame)
        assert mask.tolist() == [False, True, True, False]

    def test_cast_string_to_double(self):
        frame = make_frame(s=["1.5", "oops", None])
        result = evaluate(sqlast.Cast(col("s"), "DOUBLE"), frame)
        assert result.to_list() == [1.5, None, None]

    def test_cast_double_to_integer_truncates(self):
        frame = make_frame(x=[1.9, -1.9])
        result = evaluate(sqlast.Cast(col("x"), "INTEGER"), frame)
        assert result.data.tolist() == [1.0, -1.0]

    def test_cast_to_boolean(self):
        frame = make_frame(x=[0.0, 2.0])
        result = evaluate(sqlast.Cast(col("x"), "BOOLEAN"), frame)
        assert result.data.tolist() == [False, True]


class TestPatterns:
    def test_like_wildcards(self):
        frame = make_frame(s=["alpha", "beta", "ALPHA"])
        expr = sqlast.BinaryOp("LIKE", col("s"), lit("a%a"))
        result = evaluate(expr, frame)
        assert result.data.tolist() == [True, False, False]

    def test_like_underscore(self):
        frame = make_frame(s=["cat", "cart"])
        expr = sqlast.BinaryOp("LIKE", col("s"), lit("c_t"))
        result = evaluate(expr, frame)
        assert result.data.tolist() == [True, False]

    def test_regexp_null_operand(self):
        frame = make_frame(s=["x", None])
        expr = sqlast.BinaryOp("REGEXP", col("s"), lit("x"))
        result = evaluate(expr, frame)
        assert result.valid.tolist() == [True, False]

    def test_dynamic_pattern_rejected(self):
        frame = make_frame(s=["x"], p=["x"])
        with pytest.raises(ExecutionError):
            evaluate(sqlast.BinaryOp("REGEXP", col("s"), col("p")), frame)
