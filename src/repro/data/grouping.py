"""Grouping and grouped-reduction kernels shared by every placement.

One Vega dataflow may run on the client (:mod:`repro.dataflow.transforms`),
in the embedded engine (:mod:`repro.engine.executor`) or against a tile
cube (:mod:`repro.tiles`), and the answer must not depend on where.  So
all three group and reduce with the code in this module, over plain
columns and numpy arrays:

* **Factorization** — key columns become dense integer codes, the codes
  of several columns combine mixed-radix into one group id per row, and
  the running code is re-densified before it can wrap around int64.
* **Partial states** — the decomposable aggregates (count / sum / avg /
  min / max) reduce per group id with ``bincount`` / ``ufunc.at``
  segment kernels to partial states (:func:`aggregate_states`), and
  partial states of several inputs merge (:func:`merge_states`): the
  engine merges morsels this way, a tile delta merges into its cube.

Factorization is sort-free wherever the values already are small
integers: dictionary-coded VARCHAR (codes into a sorted dictionary),
BOOLEAN, and the combined code of several columns whenever its space is
not much larger than the input (a presence bitmap over the code space
replaces the sort).  Only DOUBLE columns still sort (one ``np.unique``)
to find value ranks.

Group order is part of the contract, because split and unsplit
execution must agree on it: group ids are numbered in ascending order of
their key tuple, NULL after every value, and :func:`factorize_rows_first`
names each group's first input row, whose key bytes the group keeps.  A
caller with another order renumbers (the client aggregate's is
first-seen).  What a NULL or an empty group *means* stays with the caller:
the engine reads SQL semantics into a final state
(:mod:`repro.engine.kernels`), the client aggregate Vega's.  The kernels
release the GIL inside numpy, which is what makes them usable as
per-morsel work units.
"""

import numpy as np

from repro.data.batch import factorize_strings
from repro.data.types import SQLType

__all__ = [
    "MAX_CODE_WIDTH",
    "Unvectorizable",
    "aggregate_states",
    "factorize_column",
    "factorize_rows",
    "factorize_rows_first",
    "group_row_indices",
    "grouped_minmax",
    "merge_states",
]

#: composite integer codes (group ids, sort orders, join keys) must stay
#: inside int64
MAX_CODE_WIDTH = 2 ** 62

#: a code space of up to this many slots per input row is indexed with a
#: presence bitmap (one pass, two small temporaries); a sparser one sorts
_DENSE_SPACE = 2


class Unvectorizable(Exception):
    """This expression/transform cannot be evaluated columnar; the caller
    must fall back to the row-at-a-time path (which either computes the
    result or raises exactly the error the row semantics call for)."""


# --------------------------------------------------------------------------
# Factorization
# --------------------------------------------------------------------------


def _ordinals(column, valid):
    """Order-preserving small-integer stand-ins for a column's values:
    ``(ordinals, width)`` with every row's ordinal in ``[0, width)``, or
    ``(None, 0)`` when the values have none in a space worth indexing
    (at most :data:`_DENSE_SPACE` slots per row) — DOUBLE never has."""
    if column.codes is not None:
        ordinals, width = column.codes, len(column.dictionary)
    elif column.type is SQLType.BOOLEAN:
        ordinals, width = column.data.view(np.uint8), 2
    elif column.type is SQLType.VARCHAR:
        coded = factorize_strings(column.data, valid)
        if coded is None:
            return None, 0
        ordinals, width = coded[0], len(coded[1])
    else:
        return None, 0
    if width > _DENSE_SPACE * len(ordinals):
        return None, 0
    return ordinals, width


def _rank_present(ordinals, width):
    """Dense ranks of the ordinals that occur: ``(rank, distinct)`` where
    ``rank[o]`` is the number of occurring ordinals below ``o``."""
    present = np.zeros(width, dtype=np.bool_)
    present[ordinals] = True
    distinct = int(np.count_nonzero(present))
    if distinct == width:
        return None, distinct
    return np.cumsum(present) - 1, distinct


def factorize_column(column):
    """Map a column to dense integer codes in value order; NULL gets its
    own (highest) code.  Returns ``(codes, count)``."""
    rows = len(column)
    if rows == 0:
        return np.zeros(0, dtype=np.int64), 0
    valid = column.valid
    all_valid = bool(valid.all())
    ordinals, width = _ordinals(column, valid)
    if ordinals is not None:
        rank, distinct = _rank_present(
            ordinals if all_valid else ordinals[valid], width
        )
        if rank is None:
            codes = ordinals.astype(np.int64)
        else:
            codes = rank[ordinals]
    else:
        values = column.codes if column.codes is not None else column.data
        uniques = np.unique(values if all_valid else values[valid])
        distinct = len(uniques)
        if distinct == 0:
            return np.zeros(rows, dtype=np.int64), 1
        # Placeholders of invalid rows may land anywhere, also past the
        # end; clamp, the NULL code below overrides them.
        codes = np.searchsorted(uniques, values)
        codes = np.clip(codes, 0, distinct - 1).astype(np.int64)
    if all_valid:
        return codes, distinct
    codes[~valid] = distinct
    return codes, distinct + 1


def _combined_codes(columns):
    """One mixed-radix int64 code per row over several key columns:
    ``(combined, width)`` with every code in ``[0, width)``.

    The running code is re-densified whenever one more column would
    take the width past :data:`MAX_CODE_WIDTH` — without that the
    product wraps around int64 and distinct key tuples silently share
    a group."""
    combined = None
    width = 1
    for column in columns:
        codes, count = factorize_column(column)
        count = max(count, 1)
        if combined is None:
            combined, width = codes, count
            continue
        if width * count > MAX_CODE_WIDTH:
            uniques, combined = np.unique(combined, return_inverse=True)
            width = len(uniques)
        combined = combined * np.int64(count) + codes
        width *= count
    return combined, width


def factorize_rows(columns, num_rows):
    """Dense row-group ids over multiple key columns (empty -> one group),
    in ascending key order: ``(ids, count)``."""
    if not columns or num_rows == 0:
        return np.zeros(num_rows, dtype=np.int64), 1 if num_rows else 0
    combined, width = _combined_codes(columns)
    if width <= _DENSE_SPACE * len(combined):
        rank, count = _rank_present(combined, width)
        if rank is None:
            return combined, count
        return rank[combined], count
    uniques, inverse = np.unique(combined, return_inverse=True)
    return inverse.astype(np.int64), len(uniques)


def factorize_rows_first(columns, num_rows):
    """Like :func:`factorize_rows`, plus each group's first occurrence
    row index, in group-id order."""
    group_ids, group_count = factorize_rows(columns, num_rows)
    # Scatter the row numbers back to front: where rows share a group
    # the last write — the earliest row — is the one that stays.
    first = np.empty(group_count, dtype=np.int64)
    first[group_ids[::-1]] = np.arange(num_rows - 1, -1, -1, dtype=np.int64)
    return group_ids, group_count, first


def group_row_indices(group_ids):
    """List of row-index arrays, one per group id, for the aggregates
    and window functions that need each group's rows side by side."""
    order = np.argsort(group_ids, kind="stable")
    boundaries = np.flatnonzero(np.diff(group_ids[order])) + 1
    return np.split(order, boundaries)


# --------------------------------------------------------------------------
# Decomposable aggregates
#
# A partial state is aligned to dense group ids: count kinds ->
# ``(counts,)``; sum/avg -> ``(sums, counts)``; min/max ->
# ``(values, present)``.  VARCHAR extremes are strings in every state, so
# states from inputs with different dictionaries merge.
# --------------------------------------------------------------------------


def grouped_minmax(data, gid, n_groups, valid, reducer):
    """Per-group min/max over the valid slots; groups with no valid value
    come back with ``present=False``.

    ``reducer`` is ``np.minimum`` or ``np.maximum``.  Numeric arrays
    reduce in one unordered scatter pass (``reducer.at``); object
    (string) arrays take a stable sort by group and a per-segment Python
    reduction — ufuncs over object dtype are not dependable.

    Returns ``(out_data, present)``.
    """
    if valid is not None:
        gid = gid[valid]
        data = data[valid]
    present = np.zeros(n_groups, dtype=np.bool_)
    present[gid] = True
    out_data = np.empty(n_groups, dtype=data.dtype)
    if data.dtype != np.object_:
        # Seed every occurring group with one of its own values (any:
        # min/max do not care which), then fold the rest in.
        out_data[:] = 0
        out_data[gid] = data
        reducer.at(out_data, gid, data)
        return out_data, present
    if gid.size == 0:
        return out_data, present
    order = np.argsort(gid, kind="stable")
    sorted_groups = gid[order]
    sorted_values = data[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_groups[1:] != sorted_groups[:-1]])
    bounds = list(starts) + [len(sorted_values)]
    python_reducer = min if reducer is np.minimum else max
    out_data[sorted_groups[starts]] = [
        python_reducer(sorted_values[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    return out_data, present


def _extremes(kind, data, group_ids, group_count, valid):
    reducer = np.minimum if kind == "min" else np.maximum
    return grouped_minmax(data, group_ids, group_count, valid, reducer)


def aggregate_states(kind, arg_column, group_ids, group_count):
    """Reduce ``arg_column`` per group id to the partial state of
    ``kind`` (``count_star`` ignores the column).  NaN flows through
    sums and extremes; the caller decides what it means."""
    if kind == "count_star":
        counts = np.bincount(group_ids, minlength=group_count)
        return (counts.astype(np.float64),)
    valid = arg_column.valid
    if valid.all():
        valid = None
    else:
        group_ids = group_ids[valid]
    if kind in ("count", "sum", "avg"):
        counts = np.bincount(group_ids, minlength=group_count)
        counts = counts.astype(np.float64)
        if kind == "count":
            return (counts,)
        data = arg_column.data if valid is None else arg_column.data[valid]
        if data.dtype != np.float64:
            data = data.astype(np.float64)
        sums = np.bincount(group_ids, weights=data, minlength=group_count)
        return (sums, counts)
    if arg_column.codes is None:
        data = arg_column.data if valid is None else arg_column.data[valid]
        return _extremes(kind, data, group_ids, group_count, None)
    # Code order is string order: reduce the codes, decode the winners.
    codes = arg_column.codes if valid is None else arg_column.codes[valid]
    winners, present = _extremes(kind, codes, group_ids, group_count, None)
    return (arg_column.dictionary[winners], present)


def merge_states(kind, states, group_ids, group_count):
    """Merge partial states (concatenated in input order) into one state
    over the global groups; ``group_ids`` maps every local group to its
    global one."""
    parts = [np.concatenate(part) for part in zip(*states)]
    if kind in ("min", "max"):
        return _extremes(kind, parts[0], group_ids, group_count, parts[1])
    return tuple(
        np.bincount(group_ids, weights=part, minlength=group_count)
        for part in parts
    )
