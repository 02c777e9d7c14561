"""Scalar and aggregate function implementations for the embedded engine.

Scalar functions are vectorized: they take and return
:class:`~repro.data.Column` objects.  Aggregate functions take a
Column (already restricted to one group) and return a Python scalar or
None.
"""

import math
import re
from datetime import datetime, timezone

import numpy as np

from repro.data import Column, SQLType
from repro.engine.errors import ExecutionError


# --------------------------------------------------------------------------
# Scalar helpers
# --------------------------------------------------------------------------


def _require_double(column, func_name):
    if column.type is not SQLType.DOUBLE:
        raise ExecutionError(
            "{}() expects a numeric argument, got {}".format(
                func_name, column.type.value
            )
        )
    return column


def _unary_math(func_name, op, domain=None):
    """Build a scalar function applying ``op`` elementwise with NULL
    propagation; out-of-domain inputs yield NULL (SQL-friendly NaN
    avoidance)."""

    def impl(column):
        _require_double(column, func_name)
        valid = column.valid.copy()
        data = column.data
        if domain is not None:
            in_domain = domain(data)
            valid &= in_domain
            data = np.where(in_domain, data, 1.0)
        with np.errstate(all="ignore"):
            result = op(data)
        bad = ~np.isfinite(result)
        if bad.any():
            valid &= ~bad
            result = np.where(bad, 0.0, result)
        return Column(SQLType.DOUBLE, result, valid)

    return impl


def _sql_round(column, digits=None):
    _require_double(column, "ROUND")
    if digits is None:
        # Match JS/Vega round-half-up (the translation source semantics).
        result = np.floor(column.data + 0.5)
    else:
        scale = 10.0 ** float(digits.data[0])
        result = np.floor(column.data * scale + 0.5) / scale
    return Column(SQLType.DOUBLE, result, column.valid.copy())


def _binary_numeric(func_name, op):
    def impl(left, right):
        _require_double(left, func_name)
        _require_double(right, func_name)
        valid = left.valid & right.valid
        with np.errstate(all="ignore"):
            result = op(left.data, right.data)
        bad = ~np.isfinite(result)
        if bad.any():
            valid &= ~bad
            result = np.where(bad, 0.0, result)
        return Column(SQLType.DOUBLE, result, valid)

    return impl


def _least(*columns):
    return _extreme(columns, np.minimum, "LEAST")


def _greatest(*columns):
    return _extreme(columns, np.maximum, "GREATEST")


def _extreme(columns, op, func_name):
    if not columns:
        raise ExecutionError("{} needs at least one argument".format(func_name))
    for column in columns:
        _require_double(column, func_name)
    result = columns[0].data.copy()
    valid = columns[0].valid.copy()
    for column in columns[1:]:
        result = op(result, column.data)
        valid &= column.valid
    return Column(SQLType.DOUBLE, result, valid)


def _string_func(func_name, op):
    def impl(column):
        if column.type is not SQLType.VARCHAR:
            raise ExecutionError(
                "{}() expects VARCHAR, got {}".format(func_name, column.type.value)
            )
        result = np.array([op(value) for value in column.data], dtype=object)
        return Column(SQLType.VARCHAR, result, column.valid.copy())

    return impl


def _length(column):
    if column.type is not SQLType.VARCHAR:
        raise ExecutionError("LENGTH() expects VARCHAR")
    result = np.array([float(len(value)) for value in column.data])
    return Column(SQLType.DOUBLE, result, column.valid.copy())


def _strpos(haystack, needle):
    if haystack.type is not SQLType.VARCHAR or needle.type is not SQLType.VARCHAR:
        raise ExecutionError("STRPOS() expects VARCHAR arguments")
    result = np.array(
        [float(h.find(n) + 1) for h, n in zip(haystack.data, needle.data)]
    )
    return Column(SQLType.DOUBLE, result, haystack.valid & needle.valid)


def _substr(column, start, length=None):
    if column.type is not SQLType.VARCHAR:
        raise ExecutionError("SUBSTR() expects VARCHAR")
    starts = start.data.astype(np.int64)
    if length is None:
        values = [value[max(0, s - 1):] for value, s in zip(column.data, starts)]
        valid = column.valid & start.valid
    else:
        lengths = length.data.astype(np.int64)
        values = [
            value[max(0, s - 1): max(0, s - 1) + max(0, ln)]
            for value, s, ln in zip(column.data, starts, lengths)
        ]
        valid = column.valid & start.valid & length.valid
    return Column(SQLType.VARCHAR, np.array(values, dtype=object), valid)


def _coalesce(*columns):
    if not columns:
        raise ExecutionError("COALESCE needs at least one argument")
    result_type = columns[0].type
    data = columns[0].data.copy()
    valid = columns[0].valid.copy()
    for column in columns[1:]:
        fill = ~valid & column.valid
        if fill.any():
            data[fill] = column.data[fill]
            valid |= fill
    return Column(result_type, data, valid)


def _nullif(left, right):
    equal = left.valid & right.valid & (left.data == right.data)
    valid = left.valid & ~equal
    return Column(left.type, left.data.copy(), valid)


# Dates: epoch milliseconds stored in DOUBLE columns.  Conversions go
# through datetime in UTC so the same values round-trip across backends.


def _date_component(func_name, getter):
    def impl(column):
        _require_double(column, func_name)
        values = np.zeros(len(column), dtype=np.float64)
        for index, (ms, ok) in enumerate(zip(column.data, column.valid)):
            if ok:
                dt = datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc)
                values[index] = getter(dt)
        return Column(SQLType.DOUBLE, values, column.valid.copy())

    return impl


_SCALAR_FUNCTIONS = {
    "ABS": _unary_math("ABS", np.abs),
    "CEIL": _unary_math("CEIL", np.ceil),
    "CEILING": _unary_math("CEILING", np.ceil),
    "FLOOR": _unary_math("FLOOR", np.floor),
    "ROUND": _sql_round,
    "SQRT": _unary_math("SQRT", np.sqrt, domain=lambda x: x >= 0),
    "EXP": _unary_math("EXP", np.exp),
    "LN": _unary_math("LN", np.log, domain=lambda x: x > 0),
    "LOG2": _unary_math("LOG2", np.log2, domain=lambda x: x > 0),
    "LOG10": _unary_math("LOG10", np.log10, domain=lambda x: x > 0),
    "SIGN": _unary_math("SIGN", np.sign),
    "POWER": _binary_numeric("POWER", np.power),
    "POW": _binary_numeric("POW", np.power),
    "MOD": _binary_numeric("MOD", np.fmod),
    "LEAST": _least,
    "GREATEST": _greatest,
    "UPPER": _string_func("UPPER", str.upper),
    "LOWER": _string_func("LOWER", str.lower),
    "TRIM": _string_func("TRIM", str.strip),
    "LENGTH": _length,
    "STRPOS": _strpos,
    "SUBSTR": _substr,
    "COALESCE": _coalesce,
    "NULLIF": _nullif,
    "YEAR": _date_component("YEAR", lambda dt: dt.year),
    "MONTH": _date_component("MONTH", lambda dt: dt.month),
    "QUARTER": _date_component("QUARTER", lambda dt: (dt.month - 1) // 3 + 1),
    "DAYOFMONTH": _date_component("DAYOFMONTH", lambda dt: dt.day),
    "DAYOFWEEK": _date_component("DAYOFWEEK", lambda dt: (dt.weekday() + 1) % 7),
    "HOUR": _date_component("HOUR", lambda dt: dt.hour),
    "MINUTE": _date_component("MINUTE", lambda dt: dt.minute),
    "SECOND": _date_component("SECOND", lambda dt: dt.second),
}


def scalar_function(name):
    fn = _SCALAR_FUNCTIONS.get(name.upper())
    if fn is None:
        raise ExecutionError("unknown function {}()".format(name))
    return fn


def has_scalar_function(name):
    return name.upper() in _SCALAR_FUNCTIONS


# --------------------------------------------------------------------------
# Aggregates
# --------------------------------------------------------------------------


def _valid_values(column):
    return column.data[column.valid]


def _agg_count(column):
    return float(int(column.valid.sum()))


def _agg_count_star(column):
    return float(len(column))


def _agg_sum(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    return float(values.sum())


def _agg_avg(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    return float(values.mean())


def _agg_min(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    if column.type is SQLType.VARCHAR:
        return min(values)
    return float(values.min())


def _agg_max(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    if column.type is SQLType.VARCHAR:
        return max(values)
    return float(values.max())


def _agg_median(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    return float(np.median(values.astype(np.float64)))


def _agg_stddev(column):
    values = _valid_values(column)
    if len(values) < 2:
        return None
    return float(values.astype(np.float64).std(ddof=1))


def _agg_stddev_pop(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    return float(values.astype(np.float64).std(ddof=0))


def _agg_variance(column):
    values = _valid_values(column)
    if len(values) < 2:
        return None
    return float(values.astype(np.float64).var(ddof=1))


def _agg_var_pop(column):
    values = _valid_values(column)
    if len(values) == 0:
        return None
    return float(values.astype(np.float64).var(ddof=0))


def _agg_count_distinct(column):
    values = _valid_values(column)
    if len(values) == 0:
        return 0.0
    return float(len(np.unique(values)))


class QuantileAggregate:
    """QUANTILE(x, p) — the second argument must be a literal fraction."""

    def __init__(self, fraction):
        self.fraction = float(fraction)

    def __call__(self, column):
        values = _valid_values(column)
        if len(values) == 0:
            return None
        return float(
            np.quantile(values.astype(np.float64), self.fraction)
        )


_AGGREGATES = {
    "COUNT": _agg_count,
    "SUM": _agg_sum,
    "AVG": _agg_avg,
    "MIN": _agg_min,
    "MAX": _agg_max,
    "MEDIAN": _agg_median,
    "STDDEV": _agg_stddev,
    "STDDEV_POP": _agg_stddev_pop,
    "VARIANCE": _agg_variance,
    "VAR_POP": _agg_var_pop,
}


def aggregate_function(name, distinct=False, star=False, extra_literal=None):
    """Resolve an aggregate implementation.

    ``star`` marks COUNT(*); ``distinct`` marks COUNT(DISTINCT x);
    ``extra_literal`` carries QUANTILE's fraction.
    """
    upper = name.upper()
    if upper == "COUNT":
        if star:
            return _agg_count_star
        if distinct:
            return _agg_count_distinct
        return _agg_count
    if distinct:
        raise ExecutionError("DISTINCT is only supported with COUNT")
    if upper == "QUANTILE":
        if extra_literal is None:
            raise ExecutionError("QUANTILE requires a literal fraction argument")
        return QuantileAggregate(extra_literal)
    fn = _AGGREGATES.get(upper)
    if fn is None:
        raise ExecutionError("unknown aggregate {}()".format(name))
    return fn


def regexp_match(values, valid, pattern):
    """Vectorized REGEXP for object arrays of strings."""
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise ExecutionError("invalid REGEXP pattern: {}".format(exc)) from exc
    result = np.zeros(len(values), dtype=np.bool_)
    for index, (value, ok) in enumerate(zip(values, valid)):
        if ok and compiled.search(value) is not None:
            result[index] = True
    return result


def like_match(values, valid, pattern):
    """Vectorized SQL LIKE (%, _ wildcards)."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    compiled = re.compile("^" + regex + "$", re.DOTALL)
    result = np.zeros(len(values), dtype=np.bool_)
    for index, (value, ok) in enumerate(zip(values, valid)):
        if ok and compiled.match(value) is not None:
            result[index] = True
    return result


def is_nan_free(value):
    return not (isinstance(value, float) and math.isnan(value))
