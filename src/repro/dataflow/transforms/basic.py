"""Row-wise transforms: filter, formula, project, collect, sample, etc."""

import math
import random
import re

from repro.data import Column, ColumnBatch, SQLType
from repro.data.grouping import Unvectorizable
from repro.dataflow.transforms.base import (
    Transform,
    TransformError,
    register_transform,
)
from repro.dataflow.vectorized import VectorEvaluator
from repro.expr.evaluator import Evaluator
from repro.expr.functions import _boolean
from repro.expr.parser import parse


def _compile(expression):
    if expression is None:
        raise TransformError("missing expression parameter 'expr'")
    return parse(expression)


@register_transform("filter")
class FilterTransform(Transform):
    """Keep rows for which ``expr`` is truthy (Vega `filter`)."""

    streaming = True

    def transform(self, rows, params, signals):
        node = _compile(params.get("expr"))
        evaluator = Evaluator(signals=signals)
        return [row for row in rows if _boolean(evaluator.evaluate(node, row))]

    def transform_batch(self, batch, params, signals):
        node = _compile(params.get("expr"))
        evaluator = VectorEvaluator(batch, signals=signals)
        keep = evaluator.truthy_mask(evaluator.evaluate(node))
        return batch.mask(keep)


@register_transform("formula")
class FormulaTransform(Transform):
    """Derive a new field ``as`` from ``expr`` (Vega `formula`)."""

    streaming = True

    def transform(self, rows, params, signals):
        node = _compile(params.get("expr"))
        out_field = params.get("as")
        if not out_field:
            raise TransformError("formula requires an 'as' field name")
        evaluator = Evaluator(signals=signals)
        out = []
        for row in rows:
            derived = dict(row)
            derived[out_field] = evaluator.evaluate(node, row)
            out.append(derived)
        return out

    def transform_batch(self, batch, params, signals):
        node = _compile(params.get("expr"))
        out_field = params.get("as")
        if not out_field:
            raise TransformError("formula requires an 'as' field name")
        evaluator = VectorEvaluator(batch, signals=signals)
        column = evaluator.as_column(evaluator.evaluate(node))
        out = ColumnBatch(batch.columns)
        out.set_column(out_field, column)
        return out


@register_transform("project")
class ProjectTransform(Transform):
    """Keep/rename fields (Vega `project`)."""

    streaming = True

    def transform(self, rows, params, signals):
        fields = params.get("fields")
        if not fields:
            raise TransformError("project requires 'fields'")
        names = params.get("as") or fields
        if len(names) != len(fields):
            raise TransformError("project 'as' must match 'fields' length")
        return [
            {name: row.get(field) for field, name in zip(fields, names)}
            for row in rows
        ]

    def transform_batch(self, batch, params, signals):
        fields = params.get("fields")
        if not fields:
            raise TransformError("project requires 'fields'")
        names = params.get("as") or fields
        if len(names) != len(fields):
            raise TransformError("project 'as' must match 'fields' length")
        if len(set(names)) != len(names):
            # duplicate output names collapse in a dict; the row path's
            # last-write-wins is not expressible as distinct columns
            raise Unvectorizable("duplicate project output names")
        out = ColumnBatch()
        for field, name in zip(fields, names):
            column = batch.columns.get(field)
            if column is None:
                # row.get() of a missing field is None everywhere
                column = Column.nulls(SQLType.DOUBLE, batch.num_rows)
            out.add_column(name, column)
        return out


def _sort_key_fn(fields, orders):
    """Build a sort key for Vega collect/window sort semantics:
    None sorts last ascending; mixed types compared by type class."""

    def type_rank(value):
        if value is None:
            return 2
        if isinstance(value, float) and math.isnan(value):
            return 2
        return 0

    def key(row):
        parts = []
        for field, order in zip(fields, orders):
            value = row.get(field)
            rank = type_rank(value)
            if rank != 0:
                # Missing values: always last for ascending, first for
                # descending, matching null-is-largest comparison.
                parts.append((1, 0, 0))
                continue
            if isinstance(value, bool):
                value = float(value)
            if isinstance(value, (int, float)):
                # Middle element separates numbers from strings so mixed
                # columns never hit a Python TypeError mid-sort.
                sortable = (0, 0, float(value))
            else:
                sortable = (0, 1, str(value))
            parts.append(sortable)
        return parts

    return key


def sort_rows(rows, fields, orders=None):
    """Stable multi-key sort used by collect/window/stack."""
    if orders is None:
        orders = ["ascending"] * len(fields)
    result = list(rows)
    # Sort by keys of lowest priority first (stable sorts compose).
    for field, order in reversed(list(zip(fields, orders))):
        descending = order == "descending"
        key_fn = _sort_key_fn([field], [order])
        result.sort(key=key_fn, reverse=descending)
    return result


@register_transform("collect")
class CollectTransform(Transform):
    """Materialize and sort rows (Vega `collect`)."""

    def transform(self, rows, params, signals):
        sort = params.get("sort")
        if not sort:
            return list(rows)
        fields = sort.get("field")
        if isinstance(fields, str):
            fields = [fields]
        orders = sort.get("order")
        if orders is None:
            orders = ["ascending"] * len(fields)
        if isinstance(orders, str):
            orders = [orders]
        return sort_rows(rows, fields, orders)


@register_transform("sample")
class SampleTransform(Transform):
    """Reservoir-sample up to ``size`` rows (Vega `sample`).

    Deterministic given the ``seed`` parameter (default 42) — the paper's
    interactive demo does not need true randomness and tests do need
    reproducibility.
    """

    def transform(self, rows, params, signals):
        size = int(params.get("size", 1000))
        rng = random.Random(params.get("seed", 42))
        reservoir = []
        for index, row in enumerate(rows):
            if index < size:
                reservoir.append(row)
            else:
                slot = rng.randint(0, index)
                if slot < size:
                    reservoir[slot] = row
        return reservoir


@register_transform("identifier")
class IdentifierTransform(Transform):
    """Assign a unique id to each row (Vega `identifier`)."""

    def transform(self, rows, params, signals):
        out_field = params.get("as", "id")
        out = []
        for index, row in enumerate(rows):
            derived = dict(row)
            derived[out_field] = index + 1
            out.append(derived)
        return out


@register_transform("sequence")
class SequenceTransform(Transform):
    """Generate rows start..stop by step (Vega `sequence`)."""

    def transform(self, rows, params, signals):
        start = float(params.get("start", 0))
        stop = params.get("stop")
        if stop is None:
            raise TransformError("sequence requires 'stop'")
        stop = float(stop)
        step = float(params.get("step", 1))
        if step == 0:
            raise TransformError("sequence step must be non-zero")
        out_field = params.get("as", "data")
        out = []
        value = start
        if step > 0:
            while value < stop:
                out.append({out_field: value})
                value += step
        else:
            while value > stop:
                out.append({out_field: value})
                value += step
        return out


@register_transform("flatten")
class FlattenTransform(Transform):
    """Explode array-valued fields into one row per element."""

    def transform(self, rows, params, signals):
        fields = params.get("fields")
        if not fields:
            raise TransformError("flatten requires 'fields'")
        names = params.get("as") or fields
        out = []
        for row in rows:
            arrays = [row.get(field) or [] for field in fields]
            length = max((len(array) for array in arrays), default=0)
            for index in range(length):
                derived = dict(row)
                for array, name in zip(arrays, names):
                    derived[name] = array[index] if index < len(array) else None
                out.append(derived)
        return out


@register_transform("fold")
class FoldTransform(Transform):
    """Fold fields into key/value rows (Vega `fold`)."""

    def transform(self, rows, params, signals):
        fields = params.get("fields")
        if not fields:
            raise TransformError("fold requires 'fields'")
        key_name, value_name = params.get("as", ["key", "value"])
        out = []
        for row in rows:
            for field in fields:
                derived = dict(row)
                derived[key_name] = field
                derived[value_name] = row.get(field)
                out.append(derived)
        return out


@register_transform("countpattern")
class CountPatternTransform(Transform):
    """Count regex token occurrences in a text field (Vega `countpattern`)."""

    def transform(self, rows, params, signals):
        field = params.get("field")
        if not field:
            raise TransformError("countpattern requires 'field'")
        pattern = params.get("pattern", r"[\w']+")
        case = params.get("case", "mixed")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise TransformError(
                "invalid countpattern pattern: {}".format(exc)
            ) from exc
        counts = {}
        order = []
        for row in rows:
            text = row.get(field)
            if text is None:
                continue
            text = str(text)
            if case == "upper":
                text = text.upper()
            elif case == "lower":
                text = text.lower()
            for match in compiled.findall(text):
                if match not in counts:
                    counts[match] = 0
                    order.append(match)
                counts[match] += 1
        return [{"text": token, "count": counts[token]} for token in order]
