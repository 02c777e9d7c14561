"""Physical execution of logical plans against a catalog.

``execute(plan, catalog)`` interprets a logical plan tree and returns a
:class:`~repro.engine.table.Table`.  Execution is vectorized over numpy
columns; grouping, windows, sorts, and joins factorize key columns into
integer codes first, with the kernels of :mod:`repro.engine.kernels`.
"""

import numpy as np

from repro.engine import sqlast
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.eval import Frame, evaluate, predicate_mask
from repro.engine.functions import aggregate_function
from repro.engine.kernels import (
    aggregate_states,
    factorize_column,
    factorize_rows,
    factorize_rows_first,
    group_row_indices,
    partial_kind,
    state_column,
)
from repro.engine.logical import (
    Aggregate,
    Derived,
    Distinct,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    Window,
)
from repro.engine.table import Column, Table, concat_columns
from repro.engine.types import SQLType


def execute(plan, catalog):
    """Execute ``plan`` and return the result Table."""
    frame = _execute(plan, catalog)
    return frame.to_table()


#: when set (by execute_with_stats), _execute records per-node stats here
_active_stats = None


def execute_with_stats(plan, catalog):
    """Execute ``plan`` collecting per-node statistics.

    Returns ``(table, stats)`` where stats maps ``id(node)`` to
    ``(output_rows, seconds)`` — seconds are inclusive of children, like
    EXPLAIN ANALYZE.  Not reentrant (the engine is single-threaded).
    """
    global _active_stats
    if _active_stats is not None:
        raise ExecutionError("execute_with_stats is not reentrant")
    _active_stats = {}
    try:
        frame = _execute(plan, catalog)
        return frame.to_table(), _active_stats
    finally:
        _active_stats = None


def annotate_stats(plan, raw_stats, catalog=None):
    """Enrich raw ``execute_with_stats`` output into per-node dicts.

    Returns a mapping ``id(node) -> {"label", "rows_in", "rows_out",
    "seconds", "self_seconds"}``.  ``rows_in`` is the sum of the node's
    children's output rows (for Scan, the base table's row count when a
    catalog is given); ``self_seconds`` subtracts child-inclusive time.
    """
    annotated = {}

    def visit(node):
        children = node.children()
        for child in children:
            visit(child)
        raw = raw_stats.get(id(node))
        if raw is None:
            return
        rows_out, seconds = raw
        if children:
            rows_in = sum(
                raw_stats[id(child)][0]
                for child in children
                if id(child) in raw_stats
            )
            child_seconds = sum(
                raw_stats[id(child)][1]
                for child in children
                if id(child) in raw_stats
            )
        else:
            child_seconds = 0.0
            rows_in = rows_out
            if isinstance(node, Scan) and catalog is not None:
                try:
                    rows_in = catalog.get(node.table).num_rows
                except Exception:
                    pass
        annotated[id(node)] = {
            "label": node.label(),
            "rows_in": int(rows_in),
            "rows_out": int(rows_out),
            "seconds": seconds,
            "self_seconds": max(seconds - child_seconds, 0.0),
        }

    visit(plan)
    return annotated


def stats_preorder(plan, annotated):
    """Flatten annotated stats into a pre-order list with depths —
    the structured EXPLAIN ANALYZE rows (one dict per plan node)."""
    rows = []

    def visit(node, depth, parent_index):
        entry = dict(annotated.get(id(node), {"label": node.label()}))
        entry["depth"] = depth
        entry["parent"] = parent_index
        index = len(rows)
        rows.append(entry)
        for child in node.children():
            visit(child, depth + 1, index)

    visit(plan, 0, None)
    return rows


def _execute(plan, catalog):
    if _active_stats is None:
        return _execute_node(plan, catalog)
    import time

    start = time.perf_counter()
    frame = _execute_node(plan, catalog)
    _active_stats[id(plan)] = (
        frame.num_rows, time.perf_counter() - start
    )
    return frame


def _execute_node(plan, catalog):
    if isinstance(plan, Scan):
        return apply_scan(plan, catalog)
    if isinstance(plan, Derived):
        return apply_derived(plan, _execute(plan.child, catalog))
    if isinstance(plan, Filter):
        return apply_filter(plan, _execute(plan.child, catalog))
    if isinstance(plan, Project):
        return apply_project(plan, _execute(plan.child, catalog))
    if isinstance(plan, Aggregate):
        return apply_aggregate(plan, _execute(plan.child, catalog))
    if isinstance(plan, Window):
        return apply_window(plan, _execute(plan.child, catalog))
    if isinstance(plan, Distinct):
        return apply_distinct(plan, _execute(plan.child, catalog))
    if isinstance(plan, Sort):
        return apply_sort(plan, _execute(plan.child, catalog))
    if isinstance(plan, Limit):
        return apply_limit(plan, _execute(plan.child, catalog))
    if isinstance(plan, Join):
        return apply_join(
            plan, _execute(plan.left, catalog), _execute(plan.right, catalog)
        )
    raise ExecutionError("unsupported plan node {!r}".format(plan))


# --------------------------------------------------------------------------
# Per-node appliers
#
# Each applier takes already-executed child Frames, so both the serial
# interpreter above and the morsel-driven parallel executor
# (repro.engine.parallel) share one implementation per operator — any
# node the parallel executor does not split falls back to the exact
# serial code path.
# --------------------------------------------------------------------------


def apply_scan(plan, catalog):
    table = catalog.get(plan.table)
    if plan.columns is not None:
        table = table.select(plan.columns)
    return Frame.from_table(table, qualifier=plan.alias or plan.table)


def apply_derived(plan, child):
    table = child.to_table()
    return Frame.from_table(table, qualifier=plan.alias)


def apply_filter(plan, child):
    keep = predicate_mask(plan.predicate, child)
    return child.mask(keep)


def apply_project(plan, child):
    entries = [
        (None, name, evaluate(expr, child)) for expr, name in plan.items
    ]
    return Frame(entries, num_rows=child.num_rows)


def apply_distinct(plan, child):
    columns = [column for _, _, column in child.entries]
    _, _, first = factorize_rows_first(columns, child.num_rows)
    return child.take(first)


def apply_limit(plan, child):
    start = plan.offset
    stop = child.num_rows if plan.limit is None else start + plan.limit
    indices = np.arange(start, min(stop, child.num_rows))
    return child.take(indices)


# --------------------------------------------------------------------------
# Aggregate
# --------------------------------------------------------------------------


def apply_aggregate(plan, child):
    key_columns, group_ids, group_count, first, early = _aggregate_setup(
        plan, child
    )
    if early is not None:
        return early

    entries = []
    for column, (_, name) in zip(key_columns, plan.groups):
        entries.append((None, name, column.take(first)))

    groups = None
    for call, name in plan.aggregates:
        fn, arg_column, result_type = _aggregate_inputs(call, child)
        kind = partial_kind(call)
        if kind in ("sum", "avg") and arg_column.type is SQLType.VARCHAR:
            kind = None  # the per-group function raises what it always did
        if kind is not None:
            state = aggregate_states(kind, arg_column, group_ids, group_count)
            column = state_column(kind, state, result_type)
        else:
            # MEDIAN / QUANTILE / STDDEV / VARIANCE / COUNT(DISTINCT) need
            # each group's values side by side: no mergeable partial state.
            if groups is None:
                groups = _aggregate_groups(child, group_ids, group_count)
            column = Column.from_values(
                [fn(arg_column.take(indices)) for indices in groups],
                result_type,
            )
        entries.append((None, name, column))

    return Frame(entries, num_rows=group_count)


def _aggregate_setup(plan, child):
    """Shared grouping front half of Aggregate execution.

    Returns ``(key_columns, group_ids, group_count, first, early)``;
    when ``early`` is a Frame the caller must return it as-is
    (empty-input edge cases), otherwise ``group_count >= 1``,
    ``group_ids`` index into ``[0, group_count)`` in global
    factorization order, and ``first`` is each group's first occurrence
    row index.
    """
    key_columns = [evaluate(expr, child) for expr, _ in plan.groups]
    group_ids, group_count, first = factorize_rows_first(
        key_columns, child.num_rows
    )

    if group_count == 0 and plan.groups:
        # No input rows and explicit grouping: empty result.
        entries = [
            (None, name, Column.from_values([], column.type))
            for (explicit, name), column in zip(plan.groups, key_columns)
        ]
        for call, name in plan.aggregates:
            entries.append((None, name, Column.from_values([], SQLType.DOUBLE)))
        return (
            key_columns, group_ids, group_count, first,
            Frame(entries, num_rows=0),
        )

    if group_count == 0:
        group_count = 1  # global aggregate over empty input: one group
        group_ids = np.zeros(0, dtype=np.int64)
        first = np.zeros(1, dtype=np.int64)

    return key_columns, group_ids, group_count, first, None


def _aggregate_groups(child, group_ids, group_count):
    """Per-group row-index arrays in group-id order."""
    if child.num_rows == 0:
        return [np.zeros(0, dtype=np.int64)] * group_count
    groups = group_row_indices(group_ids)
    if len(groups) != group_count:
        raise ExecutionError("internal grouping inconsistency")
    return groups


def _aggregate_inputs(call, frame):
    """Resolve one aggregate call against a frame.

    Returns ``(fn, arg_column, result_type)`` — the aggregate function,
    the evaluated argument column (synthetic ones for ``COUNT(*)``), and
    the output column type.
    """
    star = len(call.args) == 1 and isinstance(call.args[0], sqlast.Star)
    extra_literal = None
    if call.name.upper() == "QUANTILE":
        if len(call.args) != 2 or not isinstance(call.args[1], sqlast.Literal):
            raise PlanError("QUANTILE(expr, fraction) requires a literal fraction")
        extra_literal = call.args[1].value
    fn = aggregate_function(
        call.name, distinct=call.distinct, star=star, extra_literal=extra_literal
    )
    if star:
        arg_column = Column(
            SQLType.DOUBLE,
            np.zeros(frame.num_rows),
            np.ones(frame.num_rows, dtype=np.bool_),
        )
    else:
        if not call.args:
            raise PlanError("{}() requires an argument".format(call.name))
        arg_column = evaluate(call.args[0], frame)
    result_type = (
        SQLType.VARCHAR
        if arg_column.type is SQLType.VARCHAR
        and call.name.upper() in ("MIN", "MAX")
        else SQLType.DOUBLE
    )
    return fn, arg_column, result_type


# --------------------------------------------------------------------------
# Window
# --------------------------------------------------------------------------

_WINDOW_RANKERS = {"ROW_NUMBER", "RANK", "DENSE_RANK"}
_WINDOW_AGGREGATES = {"SUM", "COUNT", "AVG", "MIN", "MAX"}
_WINDOW_OFFSETS = {"LAG", "LEAD"}


def apply_window(plan, child):
    entries = list(child.entries)
    for window, name in plan.items:
        entries.append((None, name, _compute_window(window, child)))
    return Frame(entries, num_rows=child.num_rows)


def window_inputs(window, frame):
    """Shared setup for one window item: evaluates partition and order
    expressions plus the function argument against the full frame.

    Returns ``(func_name, groups, order_keys, arg_column, out,
    out_valid)``.  ``groups`` is the per-partition row-index list;
    partitions are independent (each writes a disjoint row set of the
    shared output arrays), which is what makes the morsel executor's
    partition-parallel window sound.
    """
    num_rows = frame.num_rows
    partition_columns = [evaluate(expr, frame) for expr in window.partition_by]
    group_ids, _ = factorize_rows(partition_columns, num_rows)
    groups = group_row_indices(group_ids) if num_rows else []

    order_keys = [
        (evaluate(item.expr, frame), item.descending, item.nulls_first)
        for item in window.order_by
    ]

    func_name = window.func.name.upper()
    out = np.zeros(num_rows, dtype=np.float64)
    out_valid = np.ones(num_rows, dtype=np.bool_)

    arg_column = None
    if window.func.args and not isinstance(window.func.args[0], sqlast.Star):
        arg_column = evaluate(window.func.args[0], frame)

    return func_name, groups, order_keys, arg_column, out, out_valid


def window_partition_kernel(
    window, func_name, order_keys, arg_column, indices, out, out_valid
):
    """Compute one window item over one partition, writing the results
    into the shared output arrays (only rows in ``indices`` are
    touched)."""
    local_order = _sorted_indices(
        [(column.take(indices), desc, nf) for column, desc, nf in order_keys],
        len(indices),
    )
    ordered = indices[local_order]
    if func_name in _WINDOW_RANKERS:
        _window_rank(func_name, ordered, order_keys, out)
    elif func_name in _WINDOW_AGGREGATES:
        _window_aggregate(
            func_name, ordered, arg_column, bool(window.order_by), out, out_valid
        )
    elif func_name in _WINDOW_OFFSETS:
        _window_offset(func_name, window.func, ordered, arg_column, out, out_valid)
    else:
        raise ExecutionError(
            "unsupported window function {}()".format(window.func.name)
        )


def _compute_window(window, frame):
    func_name, groups, order_keys, arg_column, out, out_valid = window_inputs(
        window, frame
    )
    if frame.num_rows == 0:
        return Column.from_values([], SQLType.DOUBLE)

    for indices in groups:
        window_partition_kernel(
            window, func_name, order_keys, arg_column, indices, out, out_valid
        )

    return Column(SQLType.DOUBLE, out, out_valid)


def _window_rank(func_name, ordered, order_keys, out):
    if func_name == "ROW_NUMBER" or not order_keys:
        out[ordered] = np.arange(1, len(ordered) + 1, dtype=np.float64)
        return
    rank = 0
    dense = 0
    previous = None
    for position, row in enumerate(ordered):
        key = tuple(column.value_at(row) for column, _, _ in order_keys)
        if key != previous:
            dense += 1
            rank = position + 1
            previous = key
        out[row] = float(rank if func_name == "RANK" else dense)


def _window_aggregate(func_name, ordered, arg_column, running, out, out_valid):
    if arg_column is None:  # COUNT(*)
        values = np.ones(len(ordered), dtype=np.float64)
        valid = np.ones(len(ordered), dtype=np.bool_)
    else:
        taken = arg_column.take(ordered)
        values = taken.data.astype(np.float64)
        valid = taken.valid

    masked = np.where(valid, values, 0.0)
    if func_name == "COUNT":
        series = np.cumsum(valid.astype(np.float64))
    elif func_name == "SUM":
        series = np.cumsum(masked)
    elif func_name == "AVG":
        counts = np.cumsum(valid.astype(np.float64))
        with np.errstate(invalid="ignore", divide="ignore"):
            series = np.where(counts > 0, np.cumsum(masked) / counts, 0.0)
    elif func_name == "MIN":
        series = np.minimum.accumulate(np.where(valid, values, np.inf))
    else:  # MAX
        series = np.maximum.accumulate(np.where(valid, values, -np.inf))

    if not running:
        series = np.full(len(ordered), series[-1] if len(ordered) else 0.0)

    any_valid = np.cumsum(valid.astype(np.int64)) > 0
    if not running:
        any_valid = np.full(len(ordered), bool(valid.any()))
    if func_name in ("SUM", "AVG", "MIN", "MAX"):
        out_valid[ordered] = any_valid
    out[ordered] = np.where(np.isfinite(series), series, 0.0)


def _window_offset(func_name, call, ordered, arg_column, out, out_valid):
    offset = 1
    if len(call.args) > 1:
        literal = call.args[1]
        if not isinstance(literal, sqlast.Literal):
            raise PlanError("LAG/LEAD offset must be a literal")
        offset = int(literal.value)
    if arg_column is None:
        raise PlanError("LAG/LEAD require an argument")
    taken = arg_column.take(ordered)
    shift = offset if func_name == "LAG" else -offset
    for position, row in enumerate(ordered):
        source = position - shift
        if 0 <= source < len(ordered):
            value = taken.value_at(source)
            if value is None:
                out_valid[row] = False
            else:
                out[row] = float(value)
        else:
            out_valid[row] = False


# --------------------------------------------------------------------------
# Sort
# --------------------------------------------------------------------------


def apply_sort(plan, child):
    table = child.to_table()
    keys = []
    for name, descending, nulls_first in plan.keys:
        keys.append((table.column(name), descending, nulls_first))
    limit = plan.limit_hint
    if (
        limit is not None
        and len(keys) == 1
        and 0 < limit < table.num_rows // 4
    ):
        order = _topn_indices(keys[0], table.num_rows, limit)
    else:
        order = _sorted_indices(keys, table.num_rows)
    sorted_frame = Frame.from_table(table.take(order))
    if plan.drop:
        entries = [
            (q, n, column)
            for q, n, column in sorted_frame.entries
            if n not in plan.drop
        ]
        return Frame(entries, num_rows=sorted_frame.num_rows)
    return sorted_frame


def _topn_indices(key, num_rows, limit):
    """Top-N partial selection for a single sort key: a partition pass
    narrows the candidate pool, then only those are fully sorted.

    Only the first ``limit`` positions of the returned order are
    meaningful — exactly what the Limit above will consume.
    """
    composite = _topn_composite(key)
    ordered = _topn_select(composite, np.arange(num_rows), limit)
    rest = np.setdiff1d(np.arange(num_rows), ordered, assume_unique=False)
    return np.concatenate([ordered, rest])


def _topn_composite(key):
    """Single float sort key: value sign-flipped for DESC, NULLs mapped
    to +/-inf per the requested (or Postgres-default) placement."""
    column, descending, nulls_first = key
    if column.type is SQLType.VARCHAR:
        codes, _ = factorize_column(column)
        values = codes.astype(np.float64)
        values = np.where(column.valid, values, 0.0)
    else:
        values = column.data.astype(np.float64)
    if descending:
        values = -values
    if nulls_first is None:
        null_first = descending  # Postgres: NULLs largest
    else:
        null_first = nulls_first
    return np.where(
        column.valid, values,
        -np.inf if null_first else np.inf,
    )


def _topn_select(composite, candidates, limit):
    """Canonical top-``limit`` of ``candidates`` by (composite, index).

    Ties at the selection boundary always resolve to the lowest row
    index, so the result equals the first ``limit`` rows of a stable
    full sort — regardless of candidate order.  That makes per-morsel
    partial top-N selections mergeable: the union of each morsel's
    canonical top-N contains the global canonical top-N.
    """
    values = composite[candidates]
    if limit >= len(candidates):
        return candidates[np.lexsort((candidates, values))]
    kth = np.partition(values, limit - 1)[limit - 1]
    keep = values <= kth
    pool = candidates[keep]
    order = np.lexsort((pool, values[keep]))
    return pool[order[:limit]]


def _sorted_indices(keys, num_rows):
    """Stable multi-key ordering; Postgres NULL placement by default
    (NULLs sort as larger than every value)."""
    if not keys:
        return np.arange(num_rows)
    lexsort_keys = []
    for column, descending, nulls_first in keys:
        if column.type is SQLType.VARCHAR:
            codes, _ = factorize_column(column)
            values = codes.astype(np.float64)
            # factorize assigns NULL the highest code already; recompute a
            # clean numeric array where NULL handling is explicit below.
            values = np.where(column.valid, values, 0.0)
        elif column.type is SQLType.BOOLEAN:
            values = column.data.astype(np.float64)
        else:
            values = column.data.astype(np.float64)
        if descending:
            values = -values
        if nulls_first is None:
            null_rank = 0.0 if descending else 1.0
        else:
            null_rank = 0.0 if nulls_first else 1.0
        null_key = np.where(column.valid, 0.0, 1.0) * (1.0 if null_rank else -1.0)
        # Two keys per sort column, in priority order: null placement wins,
        # then the value itself.
        lexsort_keys.append(null_key)
        lexsort_keys.append(np.where(column.valid, values, 0.0))
    # np.lexsort sorts by the LAST key first; reverse for priority order.
    return np.lexsort(tuple(reversed(lexsort_keys)))


# --------------------------------------------------------------------------
# Join
# --------------------------------------------------------------------------


def apply_join(plan, left, right):
    left_exprs, right_exprs = _equi_keys(plan.condition, left, right)

    left_keys = [evaluate(expr, left) for expr in left_exprs]
    right_keys = [evaluate(expr, right) for expr in right_exprs]

    index = {}
    for row in range(right.num_rows):
        key = tuple(column.value_at(row) for column in right_keys)
        if any(part is None for part in key):
            continue
        index.setdefault(key, []).append(row)

    left_indices = []
    right_indices = []
    unmatched = []
    for row in range(left.num_rows):
        key = tuple(column.value_at(row) for column in left_keys)
        matches = None if any(part is None for part in key) else index.get(key)
        if matches:
            for match in matches:
                left_indices.append(row)
                right_indices.append(match)
        elif plan.kind == "LEFT":
            unmatched.append(row)

    left_idx = np.array(left_indices, dtype=np.int64)
    right_idx = np.array(right_indices, dtype=np.int64)

    matched_left = left.take(left_idx)
    matched_right = right.take(right_idx)

    entries = list(matched_left.entries) + list(matched_right.entries)
    result = Frame(entries, num_rows=len(left_idx))

    if plan.kind == "LEFT" and unmatched:
        pad_left = left.take(np.array(unmatched, dtype=np.int64))
        pad_entries = list(pad_left.entries)
        for qualifier, name, column in right.entries:
            pad_entries.append(
                (qualifier, name, Column.nulls(column.type, len(unmatched)))
            )
        pad_frame = Frame(pad_entries, num_rows=len(unmatched))
        result = _concat_frames(result, pad_frame)
    return result


def _concat_frames(first, second):
    entries = []
    for (q1, n1, c1), (q2, n2, c2) in zip(first.entries, second.entries):
        entries.append((q1, n1, concat_columns([c1, c2])))
    return Frame(entries, num_rows=first.num_rows + second.num_rows)


def _equi_keys(condition, left, right):
    """Decompose an AND-tree of equality conditions into left/right keys."""
    pairs = []

    def visit(node):
        if isinstance(node, sqlast.BinaryOp) and node.op.upper() == "AND":
            visit(node.left)
            visit(node.right)
            return
        if isinstance(node, sqlast.BinaryOp) and node.op == "=":
            sides = []
            for operand in (node.left, node.right):
                sides.append(_binds_to(operand, left, right))
            if sides[0] == "left" and sides[1] == "right":
                pairs.append((node.left, node.right))
                return
            if sides[0] == "right" and sides[1] == "left":
                pairs.append((node.right, node.left))
                return
        raise PlanError(
            "only equi-join conditions are supported: {}".format(
                condition.to_sql()
            )
        )

    visit(condition)
    if not pairs:
        raise PlanError("join condition has no equality predicates")
    left_exprs = [pair[0] for pair in pairs]
    right_exprs = [pair[1] for pair in pairs]
    return left_exprs, right_exprs


def _binds_to(expr, left, right):
    """Which side an expression's column references resolve against."""
    refs = [
        node for node in sqlast.walk_expr(expr)
        if isinstance(node, sqlast.ColumnRef)
    ]
    if not refs:
        raise PlanError("join key must reference a column")
    sides = set()
    for ref in refs:
        on_left = _resolvable(left, ref)
        on_right = _resolvable(right, ref)
        if on_left and on_right:
            raise PlanError(
                "ambiguous join key {!r}; qualify it".format(ref.name)
            )
        if on_left:
            sides.add("left")
        elif on_right:
            sides.add("right")
        else:
            raise PlanError("unknown join key column {!r}".format(ref.name))
    if len(sides) != 1:
        raise PlanError("join key mixes both sides")
    return sides.pop()


def _resolvable(frame, ref):
    try:
        frame.resolve(ref.name, ref.table)
    except PlanError:
        return False
    return True
