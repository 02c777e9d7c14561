"""Vectorized evaluation of Vega expressions over ColumnBatch columns.

The row evaluator (:mod:`repro.expr.evaluator`) applies JS coercion
rules one datum at a time.  This module evaluates the same ASTs over
whole columns with numpy, producing bit-identical results for the
supported subset; anything outside that subset raises
:class:`Unvectorizable` and the caller falls back to the row path, so
behaviour never changes — only speed.

Value model: every sub-expression evaluates to either a Python scalar
(literals, signals, constants) or a :class:`repro.data.Column` of the
batch's length.  JS ``null`` maps to the validity mask; JS ``NaN`` is a
*value* (a DOUBLE element with ``valid=True``) — the distinction matters
because ``isValid`` rejects both while ``==`` treats them differently.
The numeric view of a column replaces invalid slots with NaN, mirroring
``_number(None) -> NaN``, so comparisons and arithmetic inherit the
correct NULL semantics from IEEE NaN propagation.
"""

import numpy as np

from repro.data import Column, SQLType
from repro.data.grouping import Unvectorizable
from repro.expr import ast
from repro.expr.functions import (
    CONSTANTS,
    FUNCTIONS,
    _boolean,
    _number,
    _string,
    _test,
)

_NAN = float("nan")


def _kind(value):
    """Coercion kind of a scalar or Column: number/bool/string/null/other."""
    if isinstance(value, Column):
        return {
            SQLType.DOUBLE: "number",
            SQLType.BOOLEAN: "bool",
            SQLType.VARCHAR: "string",
        }[value.type]
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "other"


_NUMERIC_KINDS = ("number", "bool")


class VectorEvaluator:
    """Evaluates a parsed expression against every row of one batch."""

    def __init__(self, batch, signals=None):
        self.batch = batch
        self.n = batch.num_rows
        self.signals = signals if signals is not None else {}

    # -- dispatch ----------------------------------------------------------

    def evaluate(self, node):
        method = getattr(self, "_eval_" + type(node).__name__.lower(), None)
        if method is None:
            raise Unvectorizable("node {!r}".format(type(node).__name__))
        return method(node)

    # -- coercion helpers --------------------------------------------------

    def _numeric_view(self, value):
        """Float64 view with NaN in invalid slots (``_number(None)`` is
        NaN); scalars coerce via ``_number``.  VARCHAR needs per-string
        parsing — not vectorized."""
        if isinstance(value, Column):
            if value.type is SQLType.VARCHAR:
                raise Unvectorizable("string-to-number coercion")
            data = value.data.astype(np.float64) \
                if value.type is SQLType.BOOLEAN else value.data
            if value.valid.all():
                return data
            return np.where(value.valid, data, _NAN)
        number = _number(value)
        if isinstance(value, (list, dict)):
            raise Unvectorizable("structured scalar in numeric context")
        return number

    def _truthy(self, value):
        """Boolean mask of JS truthiness for a Column (``_boolean``:
        None, NaN, 0, "" and False are falsy)."""
        if value.type is SQLType.DOUBLE:
            with np.errstate(invalid="ignore"):
                return value.valid & (value.data != 0) & ~np.isnan(value.data)
        if value.type is SQLType.BOOLEAN:
            return value.valid & value.data
        return value.valid & (value.data != "")

    def _invalid_mask(self, value):
        """Null-ness per row: a column's invalid slots; scalars are never
        null here (the null literal is handled before this is called)."""
        if isinstance(value, Column):
            return ~value.valid
        return False

    # -- node handlers -----------------------------------------------------

    def _eval_literal(self, node):
        return node.value

    def _eval_identifier(self, node):
        name = node.name
        if name in self.signals:
            return self.signals[name]
        if name in CONSTANTS:
            return CONSTANTS[name]
        # bare ``datum`` or an unknown identifier: the row path either
        # returns the dict or raises ExprEvalError — fall back.
        raise Unvectorizable("identifier {!r}".format(name))

    def _eval_member(self, node):
        if isinstance(node.obj, ast.Identifier) and node.obj.name == "datum":
            prop = node.prop
            if isinstance(prop, ast.Literal):
                name = prop.value
            else:
                name = self.evaluate(prop)
                if isinstance(name, Column):
                    raise Unvectorizable("computed member on datum")
            if isinstance(name, float) and name.is_integer():
                name = str(int(name))
            if not isinstance(name, str):
                raise Unvectorizable("non-string datum member")
            column = self.batch.columns.get(name)
            # missing field: row.get() yields None for every row
            return column if column is not None else None
        obj = self.evaluate(node.obj)
        prop = self.evaluate(node.prop)
        if isinstance(obj, Column) or isinstance(prop, Column):
            raise Unvectorizable("member access on column")
        # scalar member access — mirror the row evaluator exactly
        if obj is None:
            return None
        if isinstance(obj, dict):
            if isinstance(prop, float) and prop.is_integer():
                prop = str(int(prop))
            return obj.get(prop)
        if isinstance(obj, (list, str)):
            if prop == "length":
                return float(len(obj))
            index = int(_number(prop))
            if -len(obj) <= index < len(obj):
                return obj[index]
            return None
        return None

    def _eval_unary(self, node):
        value = self.evaluate(node.operand)
        op = node.op
        if not isinstance(value, Column):
            if op == "-":
                return -_number(value)
            if op == "+":
                return _number(value)
            if op == "!":
                return not _boolean(value)
            raise Unvectorizable("unary {!r}".format(op))
        if op == "!":
            return Column(SQLType.BOOLEAN, ~self._truthy(value))
        if op in ("-", "+"):
            view = self._numeric_view(value)
            return Column(SQLType.DOUBLE, -view if op == "-" else +view)
        # ``~`` int-converts (raises on NULL in the row path too)
        raise Unvectorizable("unary {!r}".format(op))

    def _eval_binary(self, node):
        op = node.op
        if op in ("&&", "||"):
            left = self.evaluate(node.left)
            if not isinstance(left, Column):
                # same branch taken for every row — plain short-circuit
                taken = _boolean(left)
                if op == "&&":
                    return self.evaluate(node.right) if taken else left
                return left if taken else self.evaluate(node.right)
            right = self.evaluate(node.right)
            cond = self._truthy(left)
            if op == "&&":
                return self._merge(cond, right, left)
            return self._merge(cond, left, right)
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        if not isinstance(left, Column) and not isinstance(right, Column):
            from repro.expr.evaluator import _BINARY_IMPL

            impl = _BINARY_IMPL.get(op)
            if impl is None:
                raise Unvectorizable("binary {!r}".format(op))
            return impl(left, right)
        if op in ("+", "-", "*", "/", "%"):
            return self._arithmetic(op, left, right)
        if op in ("<", ">", "<=", ">="):
            return self._compare(op, left, right)
        if op in ("==", "!="):
            mask = self._loose_eq(left, right)
            return Column(SQLType.BOOLEAN, mask if op == "==" else ~mask)
        if op in ("===", "!=="):
            mask = self._strict_eq(left, right)
            return Column(SQLType.BOOLEAN, mask if op == "===" else ~mask)
        raise Unvectorizable("binary {!r}".format(op))

    def _arithmetic(self, op, left, right):
        if op == "+" and ("string" in (_kind(left), _kind(right))):
            raise Unvectorizable("string concatenation")
        a = self._numeric_view(left)
        b = self._numeric_view(right)
        with np.errstate(divide="ignore", invalid="ignore"):
            if op == "+":
                data = a + b
            elif op == "-":
                data = a - b
            elif op == "*":
                data = a * b
            elif op == "/":
                # IEEE semantics match _divide: x/0 -> signed inf, 0/0
                # and NaN/0 -> NaN
                data = a / b
            else:
                # fmod matches _modulo: fmod(x, 0), fmod(inf, y) -> NaN
                data = np.fmod(a, b)
        return Column(SQLType.DOUBLE, data)

    def _compare(self, op, left, right):
        kinds = (_kind(left), _kind(right))
        if kinds == ("string", "string"):
            da, va = self._string_parts(left)
            db, vb = self._string_parts(right)
            with np.errstate(invalid="ignore"):
                if op == "<":
                    mask = da < db
                elif op == ">":
                    mask = da > db
                elif op == "<=":
                    mask = da <= db
                else:
                    mask = da >= db
            # a NULL on either side is not a str: the row path coerces
            # both sides to numbers, gets NaN, and returns False
            return Column(SQLType.BOOLEAN, np.asarray(mask) & va & vb)
        for side in (left, right):
            if isinstance(side, Column) and side.type is SQLType.VARCHAR:
                raise Unvectorizable("string column in numeric comparison")
        a = self._numeric_view(left)
        b = self._numeric_view(right)
        with np.errstate(invalid="ignore"):
            if op == "<":
                mask = a < b
            elif op == ">":
                mask = a > b
            elif op == "<=":
                mask = a <= b
            else:
                mask = a >= b
        return Column(SQLType.BOOLEAN, mask)

    def _string_parts(self, value):
        """(data, valid) for a string-kind operand; scalar data broadcasts,
        scalar valid is an all-True mask."""
        if isinstance(value, Column):
            return value.data, value.valid
        return value, np.ones(self.n, dtype=np.bool_)

    def _loose_eq(self, left, right):
        ka, kb = _kind(left), _kind(right)
        if ka == "null" and kb == "null":
            return np.ones(self.n, dtype=np.bool_)
        if ka == "null" or kb == "null":
            other = right if ka == "null" else left
            if isinstance(other, Column):
                # _js_eq(x, None) is True only when x is None too
                return ~other.valid
            return np.zeros(self.n, dtype=np.bool_)
        if ka == "string" and kb == "string":
            da, va = self._string_parts(left)
            db, vb = self._string_parts(right)
            return (va & vb & np.asarray(da == db)) \
                | (~va & ~vb)
        if ka == "string" or kb == "string":
            text = left if ka == "string" else right
            if isinstance(text, Column):
                raise Unvectorizable("string column vs number equality")
            # scalar string against numbers: _js_eq coerces via _number
            text = _number(text)
            left = text if ka == "string" else left
            right = text if kb == "string" else right
        if ka == "other" or kb == "other":
            raise Unvectorizable("non-scalar equality")
        # numeric equality: NaN (and coerced NULL) never equals anything;
        # two NULLs are equal (the _js_eq both-None special case)
        a = self._numeric_view(left)
        b = self._numeric_view(right)
        with np.errstate(invalid="ignore"):
            mask = np.asarray(a == b)
        both_null = self._invalid_mask(left) & self._invalid_mask(right)
        if both_null is not False:
            mask = mask | both_null
        return mask

    def _strict_eq(self, left, right):
        ka, kb = _kind(left), _kind(right)
        if ka == "null" and kb == "null":
            return np.ones(self.n, dtype=np.bool_)
        if ka == "null" or kb == "null":
            other = right if ka == "null" else left
            if isinstance(other, Column):
                return ~other.valid
            return np.zeros(self.n, dtype=np.bool_)
        if ka == "other" or kb == "other":
            raise Unvectorizable("non-scalar strict equality")
        if ka != kb:
            # no coercion under ===: differing types never match (the
            # int/float carve-out collapses: our numbers are all floats)
            return np.zeros(self.n, dtype=np.bool_)
        if ka == "number":
            a = self._numeric_view(left)
            b = self._numeric_view(right)
            with np.errstate(invalid="ignore"):
                mask = np.asarray(a == b)
            both_null = self._invalid_mask(left) & self._invalid_mask(right)
            if both_null is not False:
                mask = mask | both_null
            return mask
        da, va = self._data_parts(left)
        db, vb = self._data_parts(right)
        return (va & vb & np.asarray(da == db)) | (~va & ~vb)

    def _data_parts(self, value):
        if isinstance(value, Column):
            return value.data, value.valid
        return value, np.ones(self.n, dtype=np.bool_)

    def _eval_conditional(self, node):
        test = self.evaluate(node.test)
        if not isinstance(test, Column):
            branch = node.consequent if _boolean(test) else node.alternate
            return self.evaluate(branch)
        cond = self._truthy(test)
        consequent = self.evaluate(node.consequent)
        alternate = self.evaluate(node.alternate)
        return self._merge(cond, consequent, alternate)

    def _merge(self, cond, when_true, when_false):
        """Row-wise select between two operands of one coercion kind
        (NULL merges into either side as invalid slots)."""
        kinds = {_kind(when_true), _kind(when_false)} - {"null"}
        if not kinds:
            return None
        if len(kinds) != 1 or "other" in kinds:
            raise Unvectorizable("mixed-type merge")
        kind = kinds.pop()
        sql_type = {
            "number": SQLType.DOUBLE,
            "bool": SQLType.BOOLEAN,
            "string": SQLType.VARCHAR,
        }[kind]
        da, va = self._branch_parts(when_true, sql_type)
        db, vb = self._branch_parts(when_false, sql_type)
        data = np.where(cond, da, db)
        if sql_type is SQLType.VARCHAR:
            data = data.astype(object)
        valid = np.where(cond, va, vb)
        return Column(sql_type, data, valid)

    def _branch_parts(self, value, sql_type):
        placeholder = {
            SQLType.DOUBLE: 0.0, SQLType.VARCHAR: "", SQLType.BOOLEAN: False,
        }[sql_type]
        if value is None:
            return placeholder, False
        if isinstance(value, Column):
            return value.data, value.valid
        if isinstance(value, int) and not isinstance(value, bool) \
                and sql_type is SQLType.DOUBLE:
            value = float(value)
        return value, True

    def _eval_call(self, node):
        args = [self.evaluate(arg) for arg in node.args]
        if not any(isinstance(arg, Column) for arg in args):
            fn = FUNCTIONS.get(node.func)
            if fn is None or node.func == "now":
                raise Unvectorizable("function {!r}".format(node.func))
            try:
                return fn(*args)
            except TypeError:
                # row path wraps this in ExprEvalError — fall back so the
                # error surfaces identically
                raise Unvectorizable("bad arguments") from None
        handler = getattr(self, "_fn_" + node.func, None)
        if handler is None:
            raise Unvectorizable("function {!r}".format(node.func))
        return handler(args)

    # -- vectorized function library (column-arg cases only) ---------------

    def _one_arg(self, args):
        if len(args) != 1:
            raise Unvectorizable("arity")
        return args[0]

    def _fn_isValid(self, args):
        value = self._one_arg(args)
        if value.type is SQLType.DOUBLE:
            with np.errstate(invalid="ignore"):
                mask = value.valid & ~np.isnan(value.data)
        else:
            mask = value.valid
        return Column(SQLType.BOOLEAN, mask)

    def _fn_isNaN(self, args):
        view = self._numeric_view(self._one_arg(args))
        return Column(SQLType.BOOLEAN, np.isnan(view))

    def _fn_isFinite(self, args):
        view = self._numeric_view(self._one_arg(args))
        return Column(SQLType.BOOLEAN, np.isfinite(view))

    def _fn_toNumber(self, args):
        return Column(SQLType.DOUBLE, self._numeric_view(self._one_arg(args)))

    def _fn_abs(self, args):
        return Column(SQLType.DOUBLE,
                      np.abs(self._numeric_view(self._one_arg(args))))

    def _fn_sqrt(self, args):
        view = self._numeric_view(self._one_arg(args))
        with np.errstate(invalid="ignore"):
            return Column(SQLType.DOUBLE, np.sqrt(view))

    def _int_rounding_view(self, args):
        # math.floor/ceil/trunc raise on NaN and infinities; keep that
        # error behaviour by refusing to vectorize those inputs
        view = self._numeric_view(self._one_arg(args))
        if not np.isfinite(view).all():
            raise Unvectorizable("non-finite rounding input")
        return view

    def _fn_floor(self, args):
        return Column(SQLType.DOUBLE, np.floor(self._int_rounding_view(args)))

    def _fn_ceil(self, args):
        return Column(SQLType.DOUBLE, np.ceil(self._int_rounding_view(args)))

    def _fn_round(self, args):
        # Vega round(): floor(x + 0.5), not banker's rounding
        return Column(SQLType.DOUBLE,
                      np.floor(self._int_rounding_view(args) + 0.5))

    def _fn_trunc(self, args):
        return Column(SQLType.DOUBLE, np.trunc(self._int_rounding_view(args)))

    def _guarded_log(self, args, log_fn):
        view = self._numeric_view(self._one_arg(args))
        with np.errstate(divide="ignore", invalid="ignore"):
            return Column(SQLType.DOUBLE,
                          np.where(view > 0, log_fn(view), _NAN))

    def _fn_log(self, args):
        return self._guarded_log(args, np.log)

    def _fn_log2(self, args):
        return self._guarded_log(args, np.log2)

    def _fn_log10(self, args):
        return self._guarded_log(args, np.log10)

    def _fn_min(self, args):
        return self._minmax(args, np.minimum)

    def _fn_max(self, args):
        return self._minmax(args, np.maximum)

    def _minmax(self, args, reducer):
        if not args:
            raise Unvectorizable("arity")
        # NaN (and coerced NULL) poisons the result, matching _minmax;
        # np.minimum/np.maximum propagate NaN from either operand
        views = [self._numeric_view(arg) for arg in args]
        result = views[0]
        for view in views[1:]:
            with np.errstate(invalid="ignore"):
                result = reducer(result, view)
        return Column(SQLType.DOUBLE, np.broadcast_to(
            result, (self.n,)).copy() if np.ndim(result) == 0 else result)

    def _fn_clamp(self, args):
        if len(args) != 3:
            raise Unvectorizable("arity")
        value, lo, hi = args
        if isinstance(lo, Column) or isinstance(hi, Column):
            raise Unvectorizable("column clamp bounds")
        lo, hi = _number(lo), _number(hi)
        if np.isnan(lo) or np.isnan(hi):
            raise Unvectorizable("NaN clamp bounds")
        if lo > hi:
            lo, hi = hi, lo
        view = self._numeric_view(value)
        with np.errstate(invalid="ignore"):
            # _clamp(NaN) resolves to hi: min(hi, NaN) is hi, max(lo, hi)
            # is hi — np.clip would return NaN instead
            data = np.where(np.isnan(view), hi, np.clip(view, lo, hi))
        return Column(SQLType.DOUBLE, data)

    def _fn_test(self, args):
        if len(args) not in (2, 3):
            raise Unvectorizable("arity")
        pattern = args[0]
        value = args[1]
        flags = args[2] if len(args) == 3 else ""
        if not isinstance(pattern, str) or not isinstance(flags, str) \
                or not isinstance(value, Column):
            raise Unvectorizable("test() argument shapes")
        # per-element regex (the regex itself is not vectorizable, but
        # this still skips the per-row dict machinery); _string maps
        # NULL to "null", matching the row path
        data = [_test(pattern, item, flags) for item in value.to_list()]
        return Column(SQLType.BOOLEAN, np.asarray(data, dtype=np.bool_))

    def _fn_if(self, args):
        if len(args) != 3:
            raise Unvectorizable("arity")
        test, when_true, when_false = args
        if not isinstance(test, Column):
            return when_true if _boolean(test) else when_false
        return self._merge(self._truthy(test), when_true, when_false)

    def _eval_arrayexpr(self, node):
        elements = [self.evaluate(element) for element in node.elements]
        if any(isinstance(element, Column) for element in elements):
            raise Unvectorizable("array of columns")
        return elements

    def _eval_objectexpr(self, node):
        values = [self.evaluate(value) for value in node.values]
        if any(isinstance(value, Column) for value in values):
            raise Unvectorizable("object of columns")
        return dict(zip(node.keys, values))

    # -- transform-facing helpers -----------------------------------------

    def truthy_mask(self, value):
        """Filter-style truthiness of an evaluation result as a boolean
        mask over all rows."""
        if isinstance(value, Column):
            return self._truthy(value)
        keep = _boolean(value)
        return np.full(self.n, keep, dtype=np.bool_)

    def as_column(self, value):
        """An evaluation result as a Column (scalars broadcast; the row
        path would store the same scalar in every output dict)."""
        if isinstance(value, Column):
            return value
        if value is None:
            return Column.nulls(SQLType.DOUBLE, self.n)
        if isinstance(value, bool):
            return Column(SQLType.BOOLEAN,
                          np.full(self.n, value, dtype=np.bool_))
        if isinstance(value, float):
            return Column(SQLType.DOUBLE, np.full(self.n, value))
        if isinstance(value, str):
            data = np.empty(self.n, dtype=object)
            data[:] = value
            return Column(SQLType.VARCHAR, data)
        # ints would materialize as Python ints in row dicts; lists and
        # dicts cannot live in a column at all
        raise Unvectorizable("scalar {!r} in column context".format(value))


def string_coercion_view(column):
    """Per-element ``_string`` of a column (NULL -> "null")."""
    return [_string(value) for value in column.to_list()]
