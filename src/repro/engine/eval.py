"""Vectorized evaluation of SQL scalar expressions over column frames.

A :class:`Frame` is the engine's intermediate row-batch representation:
an ordered list of (qualifier, name, Column) entries, allowing the same
column name to appear on both sides of a join until projection
disambiguates.  ``evaluate(expr, frame)`` returns a Column.

SQL three-valued logic is respected: comparisons over NULL produce NULL
(invalid) booleans; AND/OR follow Kleene logic; WHERE keeps only rows
whose predicate is valid *and* true.
"""

import numpy as np

from repro.data import Column, Table
from repro.engine import sqlast
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.functions import like_match, regexp_match, scalar_function
from repro.engine.types import SQLType


class Frame:
    """An ordered collection of possibly-qualified columns of equal length.

    A frame made by :meth:`mask` is *late-materialised*: it keeps its
    source's columns and the surviving row indices, and filters a column
    the first time it is resolved (or all of them when ``entries`` is
    read), so columns nothing above a Filter reads are never copied.
    """

    __slots__ = ("_entries", "num_rows", "_keep", "_indices", "_filtered")

    def __init__(self, entries, num_rows=None):
        self._entries = list(entries)
        if num_rows is None:
            if not self._entries:
                raise ExecutionError("empty frame requires explicit num_rows")
            num_rows = len(self._entries[0][2])
        self.num_rows = num_rows
        self._keep = None

    @classmethod
    def from_table(cls, table, qualifier=None):
        entries = [
            (qualifier, name, column) for name, column in table.columns.items()
        ]
        return cls(entries, num_rows=table.num_rows)

    def _column(self, position):
        column = self._entries[position][2]
        if self._keep is None:
            return column
        # Per-slot cache, filled idempotently: morsel tasks sharing one
        # frame may race here and only ever duplicate work.
        filtered = self._filtered[position]
        if filtered is None:
            filtered = column.mask(self._keep, self._indices)
            self._filtered[position] = filtered
        return filtered

    @property
    def entries(self):
        if self._keep is None:
            return self._entries
        return [
            (qualifier, name, self._column(position))
            for position, (qualifier, name, _) in enumerate(self._entries)
        ]

    def resolve(self, name, qualifier=None):
        matches = [
            position
            for position, (q, n, _) in enumerate(self._entries)
            if n == name and (qualifier is None or q == qualifier)
        ]
        if not matches:
            raise PlanError(
                "unknown column {!r}{}".format(
                    name, " in " + qualifier if qualifier else ""
                )
            )
        if len(matches) > 1:
            raise PlanError("ambiguous column reference {!r}".format(name))
        return self._column(matches[0])

    def names(self):
        return [name for _, name, _ in self._entries]

    def to_table(self):
        """Collapse to a Table; duplicate names get positional suffixes."""
        table = Table()
        seen = {}
        for _, name, column in self.entries:
            if name in seen:
                seen[name] += 1
                name = "{}_{}".format(name, seen[name])
            else:
                seen[name] = 0
            table.add_column(name, column)
        if not self._entries:
            table._num_rows = self.num_rows
        return table

    def take(self, indices):
        entries = [
            (q, n, column.take(indices)) for q, n, column in self.entries
        ]
        return Frame(entries, num_rows=len(indices))

    def mask(self, keep):
        indices = np.flatnonzero(keep)
        frame = Frame(self.entries, num_rows=len(indices))
        frame._keep = keep
        frame._indices = indices
        frame._filtered = [None] * len(frame._entries)
        return frame


_NUMERIC_OPS = {"+", "-", "*", "/", "%"}
_COMPARE_OPS = {"=", "<>", "<", ">", "<=", ">="}


def evaluate(expr, frame):
    """Evaluate a scalar SQL expression against a frame, returning a Column."""
    if isinstance(expr, sqlast.Literal):
        return Column.constant(expr.value, frame.num_rows)
    if isinstance(expr, sqlast.ColumnRef):
        return frame.resolve(expr.name, expr.table)
    if isinstance(expr, sqlast.UnaryOp):
        return _eval_unary(expr, frame)
    if isinstance(expr, sqlast.BinaryOp):
        return _eval_binary(expr, frame)
    if isinstance(expr, sqlast.IsNull):
        operand = evaluate(expr.operand, frame)
        data = operand.valid.copy() if expr.negated else ~operand.valid
        return Column(SQLType.BOOLEAN, data)
    if isinstance(expr, sqlast.InList):
        return _eval_in(expr, frame)
    if isinstance(expr, sqlast.Between):
        low = sqlast.BinaryOp(">=", expr.operand, expr.low)
        high = sqlast.BinaryOp("<=", expr.operand, expr.high)
        both = sqlast.BinaryOp("AND", low, high)
        result = evaluate(both, frame)
        if expr.negated:
            return _logical_not(result)
        return result
    if isinstance(expr, sqlast.FuncCall):
        return _eval_func(expr, frame)
    if isinstance(expr, sqlast.Case):
        return _eval_case(expr, frame)
    if isinstance(expr, sqlast.Cast):
        return _eval_cast(expr, frame)
    raise ExecutionError(
        "cannot evaluate {} in this context".format(type(expr).__name__)
    )


def predicate_mask(expr, frame):
    """Evaluate a WHERE/HAVING predicate to a keep-mask (NULL -> False)."""
    column = evaluate(expr, frame)
    if column.type is not SQLType.BOOLEAN:
        raise ExecutionError("predicate must be boolean")
    return column.data & column.valid


def _eval_unary(expr, frame):
    operand = evaluate(expr.operand, frame)
    if expr.op == "-":
        if operand.type is not SQLType.DOUBLE:
            raise ExecutionError("unary minus expects a numeric operand")
        return Column(SQLType.DOUBLE, -operand.data, operand.valid.copy())
    if expr.op.upper() == "NOT":
        return _logical_not(operand)
    raise ExecutionError("unknown unary operator {!r}".format(expr.op))


def _logical_not(column):
    if column.type is not SQLType.BOOLEAN:
        raise ExecutionError("NOT expects a boolean operand")
    return Column(SQLType.BOOLEAN, ~column.data, column.valid.copy())


def _eval_binary(expr, frame):
    op = expr.op.upper() if expr.op.isalpha() else expr.op
    if op == "AND":
        return _kleene_and(evaluate(expr.left, frame), evaluate(expr.right, frame))
    if op == "OR":
        return _kleene_or(evaluate(expr.left, frame), evaluate(expr.right, frame))
    left = evaluate(expr.left, frame)
    right = evaluate(expr.right, frame)
    if op == "||":
        return _concat(left, right)
    if op in _NUMERIC_OPS:
        return _arithmetic(op, left, right)
    if op in _COMPARE_OPS:
        return _comparison(op, left, right)
    if op == "LIKE":
        return _pattern(expr, left, right, like=True)
    if op == "REGEXP":
        return _pattern(expr, left, right, like=False)
    raise ExecutionError("unknown binary operator {!r}".format(expr.op))


def _kleene_and(left, right):
    _check_bool(left, "AND")
    _check_bool(right, "AND")
    false_left = left.valid & ~left.data
    false_right = right.valid & ~right.data
    data = left.data & right.data
    valid = (left.valid & right.valid) | false_left | false_right
    data = data & ~(false_left | false_right)
    return Column(SQLType.BOOLEAN, data, valid)


def _kleene_or(left, right):
    _check_bool(left, "OR")
    _check_bool(right, "OR")
    true_left = left.valid & left.data
    true_right = right.valid & right.data
    data = true_left | true_right
    valid = (left.valid & right.valid) | true_left | true_right
    return Column(SQLType.BOOLEAN, data, valid)


def _check_bool(column, what):
    if column.type is not SQLType.BOOLEAN:
        raise ExecutionError("{} expects boolean operands".format(what))


def _arithmetic(op, left, right):
    if left.type is not SQLType.DOUBLE or right.type is not SQLType.DOUBLE:
        raise ExecutionError(
            "arithmetic {!r} expects numeric operands ({} vs {})".format(
                op, left.type.value, right.type.value
            )
        )
    valid = left.valid & right.valid
    with np.errstate(all="ignore"):
        if op == "+":
            data = left.data + right.data
        elif op == "-":
            data = left.data - right.data
        elif op == "*":
            data = left.data * right.data
        elif op == "/":
            data = np.divide(left.data, right.data)
        else:
            data = np.fmod(left.data, right.data)
    bad = ~np.isfinite(data)
    if bad.any():
        valid = valid & ~bad  # division by zero -> NULL (SQL-flavoured)
        data = np.where(bad, 0.0, data)
    return Column(SQLType.DOUBLE, data, valid)


def _comparison(op, left, right):
    if left.type is not right.type:
        if {left.type, right.type} == {SQLType.DOUBLE, SQLType.BOOLEAN}:
            left, right = _promote_bool(left), _promote_bool(right)
        else:
            raise ExecutionError(
                "cannot compare {} with {}".format(
                    left.type.value, right.type.value
                )
            )
    valid = left.valid & right.valid
    ldata, rdata = left.data, right.data
    if op == "=":
        data = ldata == rdata
    elif op == "<>":
        data = ldata != rdata
    elif op == "<":
        data = ldata < rdata
    elif op == ">":
        data = ldata > rdata
    elif op == "<=":
        data = ldata <= rdata
    else:
        data = ldata >= rdata
    return Column(SQLType.BOOLEAN, np.asarray(data, dtype=np.bool_), valid)


def _promote_bool(column):
    if column.type is SQLType.BOOLEAN:
        return Column(
            SQLType.DOUBLE, column.data.astype(np.float64), column.valid.copy()
        )
    return column


def _concat(left, right):
    def as_text(column):
        if column.type is SQLType.VARCHAR:
            return column
        values = [
            _scalar_to_text(value) for value in column.data.tolist()
        ]
        return Column(
            SQLType.VARCHAR, np.array(values, dtype=object), column.valid.copy()
        )

    left, right = as_text(left), as_text(right)
    valid = left.valid & right.valid
    data = np.array(
        [l + r for l, r in zip(left.data, right.data)], dtype=object
    )
    return Column(SQLType.VARCHAR, data, valid)


def _scalar_to_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _pattern(expr, left, right, like):
    if not isinstance(expr.right, sqlast.Literal) or not isinstance(
        expr.right.value, str
    ):
        raise ExecutionError(
            "{} pattern must be a string literal".format("LIKE" if like else "REGEXP")
        )
    if left.type is not SQLType.VARCHAR:
        raise ExecutionError("pattern match expects a VARCHAR operand")
    pattern = expr.right.value
    matcher = like_match if like else regexp_match
    data = matcher(left.data, left.valid, pattern)
    return Column(SQLType.BOOLEAN, data, left.valid.copy())


def _eval_in(expr, frame):
    operand = evaluate(expr.operand, frame)
    values = []
    for item in expr.items:
        if not isinstance(item, sqlast.Literal):
            raise ExecutionError("IN list items must be literals")
        if item.value is not None:
            values.append(item.value)
    if operand.type is SQLType.VARCHAR:
        allowed = set(values)
        data = np.fromiter(
            (value in allowed for value in operand.data),
            dtype=np.bool_,
            count=len(operand),
        )
    else:
        allowed = np.array([float(v) for v in values], dtype=np.float64)
        data = np.isin(operand.data, allowed)
    if expr.negated:
        data = ~data
    return Column(SQLType.BOOLEAN, data, operand.valid.copy())


def _eval_func(expr, frame):
    args = [evaluate(arg, frame) for arg in expr.args]
    fn = scalar_function(expr.name)
    return fn(*args)


def _eval_case(expr, frame):
    result_data = None
    result_valid = None
    result_type = None
    decided = np.zeros(frame.num_rows, dtype=np.bool_)
    for condition, branch in expr.whens:
        mask = predicate_mask(condition, frame) & ~decided
        branch_column = evaluate(branch, frame)
        if result_type is None:
            result_type = branch_column.type
            result_data = branch_column.data.copy()
            result_valid = np.zeros(frame.num_rows, dtype=np.bool_)
        elif branch_column.type is not result_type:
            raise ExecutionError("CASE branches must have a single type")
        result_data[mask] = branch_column.data[mask]
        result_valid[mask] = branch_column.valid[mask]
        decided |= mask
    remaining = ~decided
    if expr.default is not None and remaining.any():
        default_column = evaluate(expr.default, frame)
        if result_type is None:
            result_type = default_column.type
            result_data = default_column.data.copy()
            result_valid = default_column.valid.copy()
        else:
            if default_column.type is not result_type:
                # Allow NULL default of mismatched placeholder type.
                if default_column.null_count() == len(default_column):
                    default_column = Column.nulls(result_type, frame.num_rows)
                else:
                    raise ExecutionError("CASE branches must have a single type")
            result_data[remaining] = default_column.data[remaining]
            result_valid[remaining] = default_column.valid[remaining]
    if result_type is None:
        raise ExecutionError("CASE with no branches")
    return Column(result_type, result_data, result_valid)


def _eval_cast(expr, frame):
    operand = evaluate(expr.operand, frame)
    target = expr.type_name.upper()
    if target in ("DOUBLE", "FLOAT", "REAL", "INT", "INTEGER", "BIGINT"):
        if operand.type is SQLType.DOUBLE:
            data = operand.data.copy()
            valid = operand.valid.copy()
        elif operand.type is SQLType.BOOLEAN:
            data = operand.data.astype(np.float64)
            valid = operand.valid.copy()
        else:
            data = np.zeros(len(operand), dtype=np.float64)
            valid = operand.valid.copy()
            for index, (value, ok) in enumerate(zip(operand.data, operand.valid)):
                if not ok:
                    continue
                try:
                    data[index] = float(value)
                except ValueError:
                    valid[index] = False
        if target in ("INT", "INTEGER", "BIGINT"):
            data = np.trunc(data)
        return Column(SQLType.DOUBLE, data, valid)
    if target in ("VARCHAR", "TEXT", "STRING"):
        values = [_scalar_to_text(value) for value in operand.data.tolist()]
        return Column(
            SQLType.VARCHAR, np.array(values, dtype=object), operand.valid.copy()
        )
    if target in ("BOOLEAN", "BOOL"):
        if operand.type is SQLType.BOOLEAN:
            return operand
        if operand.type is SQLType.DOUBLE:
            return Column(
                SQLType.BOOLEAN, operand.data != 0.0, operand.valid.copy()
            )
    raise ExecutionError("unsupported CAST target {!r}".format(expr.type_name))
