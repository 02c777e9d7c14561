"""Group-by aggregation transforms (Vega `aggregate` and `joinaggregate`)."""

import numpy as np

from repro.data import Column, ColumnBatch, SQLType
from repro.data.grouping import (
    Unvectorizable,
    aggregate_states,
    factorize_rows_first,
)
from repro.dataflow.transforms.aggops import (
    aggregate_op,
    default_output_name,
    group_rows,
)
from repro.dataflow.transforms.base import (
    Transform,
    TransformError,
    register_transform,
)


def _measures(params):
    """Normalize ops/fields/as into (op, field, output_name) triples."""
    ops = params.get("ops") or ["count"]
    fields = params.get("fields") or [None] * len(ops)
    names = params.get("as") or [None] * len(ops)
    if len(fields) != len(ops):
        raise TransformError("aggregate 'fields' must match 'ops' length")
    if len(names) < len(ops):
        names = list(names) + [None] * (len(ops) - len(names))
    triples = []
    for op, field, name in zip(ops, fields, names):
        if name is None:
            name = default_output_name(op, field)
        triples.append((op, field, name))
    return triples


def _apply_measures(rows, triples):
    out = {}
    for op, field, name in triples:
        fn = aggregate_op(op)
        if field is None:
            values = rows
        else:
            values = [row.get(field) for row in rows]
        out[name] = fn(values)
    return out


def value_column(batch, field):
    """One field as the aggregate reads it: NaN folded to NULL (like
    ``group_key`` folds it and ``_valid``/``_numbers`` drop it), a field
    the batch lacks all NULL."""
    column = batch.columns.get(field)
    if column is None:
        return Column.nulls(SQLType.DOUBLE, batch.num_rows)
    if column.type is not SQLType.DOUBLE:
        return column
    valid = column.valid & ~np.isnan(column.data)
    return Column(SQLType.DOUBLE, column.data, valid)


def group_batch(batch, groupby):
    """First-seen-order groups over the groupby fields.

    Returns ``(gid, n_groups, keys)``: a group index per row, the group
    count, and per groupby field the column of each group's key, taken
    from its first row.  With no groupby there is a single global group
    — present even for an empty batch, matching the row path's one-row
    output.
    """
    count = batch.num_rows
    if not groupby:
        return np.zeros(count, dtype=np.int64), 1, []
    columns = [value_column(batch, field) for field in groupby]
    gid, n_groups, first = factorize_rows_first(columns, count)
    # factorization numbers groups in key order; Vega's are first-seen
    order = np.argsort(first)
    rank = np.empty(n_groups, dtype=np.int64)
    rank[order] = np.arange(n_groups)
    first = first[order]
    return rank[gid], n_groups, [column.take(first) for column in columns]


def _grouped_distinct(data, gid, n_groups, valid):
    """Per-group count of distinct valid values."""
    selected = np.flatnonzero(valid)
    if selected.size == 0:
        return np.zeros(n_groups, dtype=np.float64)
    _, codes = np.unique(data[selected], return_inverse=True)
    cardinality = int(codes.max()) + 1
    pairs = gid[selected].astype(np.int64) * cardinality + codes
    distinct_pairs = np.unique(pairs)
    return np.bincount(
        distinct_pairs // cardinality, minlength=n_groups
    ).astype(np.float64)


def _measure_column(batch, op, field, gid, n_groups, sizes):
    """One aggregate measure as an output column, replicating the
    semantics of the row-path ``op_*`` functions exactly."""
    if op == "count":
        return Column(SQLType.DOUBLE, sizes)
    if field is None:
        # the row path aggregates over the row dicts themselves; only
        # count is meaningful there
        raise Unvectorizable("field-less op {!r}".format(op))
    column = value_column(batch, field)
    if op in ("valid", "missing"):
        (valid,) = aggregate_states("count", column, gid, n_groups)
        if op == "missing":
            valid = sizes - valid
        return Column(SQLType.DOUBLE, valid)
    if op == "distinct":
        return Column(SQLType.DOUBLE, _grouped_distinct(
            column.data, gid, n_groups, column.valid))
    if op in ("sum", "mean", "average"):
        if column.type is SQLType.VARCHAR:
            # _numbers() keeps numbers and booleans, drops strings
            column = Column.nulls(SQLType.DOUBLE, batch.num_rows)
        sums, counts = aggregate_states("sum", column, gid, n_groups)
        if op == "sum":
            return Column(SQLType.DOUBLE, sums)
        present = counts > 0
        means = np.where(present, sums / np.maximum(counts, 1), 0.0)
        return Column(SQLType.DOUBLE, means, present)
    if op in ("min", "max"):
        if column.type is SQLType.VARCHAR:
            # keep the row path's string comparison semantics
            raise Unvectorizable("string min/max")
        values, present = aggregate_states(op, column, gid, n_groups)
        return Column(column.type, values, present)
    # variance/stdev/median/quantiles: fall back to the row path
    raise Unvectorizable("aggregate op {!r}".format(op))


@register_transform("aggregate")
class AggregateTransform(Transform):
    """Group rows and compute summary measures (Vega `aggregate`).

    ``cross=True`` is not supported (the demo scenarios do not use it);
    ``drop=False`` (keeping empty groups) requires `cross` and is likewise
    out of scope.
    """

    def transform(self, rows, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        order, groups = group_rows(rows, groupby)
        out = []
        for key in order:
            members = groups[key]
            result = dict(zip(groupby, key))
            result.update(_apply_measures(members, triples))
            out.append(result)
        if not groupby and not out:
            # Global aggregate over empty input still yields one row.
            out.append(_apply_measures([], triples))
        return out

    def transform_batch(self, batch, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        gid, n_groups, keys = group_batch(batch, groupby)
        (sizes,) = aggregate_states("count_star", None, gid, n_groups)
        out = ColumnBatch()
        for field, column in zip(groupby, keys):
            out.set_column(field, column)
        for op, field, name in triples:
            out.set_column(
                name, _measure_column(batch, op, field, gid, n_groups, sizes))
        return out


@register_transform("joinaggregate")
class JoinAggregateTransform(Transform):
    """Compute group measures and join them back onto each row."""

    def transform(self, rows, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        order, groups = group_rows(rows, groupby)
        measures = {
            key: _apply_measures(groups[key], triples) for key in order
        }
        out = []
        for row in rows:
            key = tuple(row.get(field) for field in groupby)
            derived = dict(row)
            derived.update(measures[key])
            out.append(derived)
        return out
