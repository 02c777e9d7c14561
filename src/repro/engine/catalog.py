"""Catalog: named tables plus per-table statistics.

Statistics feed two consumers: the engine's own EXPLAIN output, and the
VegaPlus partition planner's cardinality/transfer-size estimates
(:mod:`repro.planner.cardinality`).
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.data import SQLType, Table
from repro.engine.errors import CatalogError

_DISTINCT_SAMPLE = 100_000


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    type: SQLType
    null_count: int
    distinct_estimate: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    avg_width: float = 8.0
    #: distinct values among the first ``_DISTINCT_SAMPLE`` valid rows,
    #: which ``distinct_estimate`` scales up; kept so that an append can
    #: rescale without re-reading them (None on a coded column, whose
    #: estimate is its dictionary use and exact)
    sample_distinct: Optional[int] = None
    #: summed string length of a VARCHAR column's rows, which
    #: ``avg_width`` divides; kept so that an append adds its batch's
    text_bytes: Optional[int] = None


@dataclass
class TableStats:
    """Summary statistics for one table."""

    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def row_width(self):
        """Estimated bytes per row across all columns."""
        return sum(stats.avg_width for stats in self.columns.values())


def _distinct(column, valid, valid_count):
    """Distinct values among the first ``_DISTINCT_SAMPLE`` valid rows
    (all of them on smaller columns).  A coded column is never sampled:
    its dictionary entries in use are counted."""
    if valid_count == 0:
        return 0
    if column.codes is not None:
        codes = column.codes
        if valid_count != len(codes):
            codes = codes[valid]
        used = np.bincount(codes, minlength=len(column.dictionary))
        return int(np.count_nonzero(used))
    values = column.data
    if valid_count != len(values):
        values = values[valid]
    sample = values[:_DISTINCT_SAMPLE]
    if column.type is SQLType.BOOLEAN:
        trues = int(np.count_nonzero(sample))
        return int(trues > 0) + int(trues < len(sample))
    if column.type is SQLType.VARCHAR:
        return len(set(sample.tolist()))
    return len(np.unique(sample))


def _column_stats(column, old=None, old_rows=0, tail=None):
    """Statistics of one column.

    With ``old`` — the ColumnStats of its first ``old_rows`` rows — and
    ``tail``, the column of the rows after those, counts add and min/max
    fold over the tail alone, and the distinct sample is re-read only
    while appended rows can still enter it."""
    # Reading ``valid`` flattens chunked storage first (dictionary chunks
    # to a coded column), so every layout of the same rows is described
    # by the same statistics.
    valid = column.valid
    scanned = column if old is None else tail
    null_count = scanned.null_count()
    min_value = max_value = None
    if column.type is SQLType.DOUBLE and null_count != len(scanned):
        values = scanned.data
        if null_count:
            values = values[scanned.valid]
        min_value = float(values.min())
        max_value = float(values.max())
    sample_distinct = None
    if old is not None:
        null_count += old.null_count
        if old.min_value is not None and min_value is None:
            min_value, max_value = old.min_value, old.max_value
        elif old.min_value is not None:
            min_value = min(old.min_value, min_value)
            max_value = max(old.max_value, max_value)
        if old_rows - old.null_count >= _DISTINCT_SAMPLE:
            sample_distinct = old.sample_distinct  # the same rows still
    valid_count = len(column) - null_count

    avg_width = 8.0
    text_bytes = None
    if column.type is SQLType.VARCHAR:
        # nbytes() is the string lengths plus one framing byte per row
        text_bytes = scanned.nbytes() - len(scanned)
        if old is not None:
            text_bytes += old.text_bytes
        avg_width = text_bytes / valid_count if valid_count else 0.0
    elif column.type is SQLType.BOOLEAN:
        avg_width = 1.0

    if column.codes is not None:
        distinct = _distinct(column, valid, valid_count)
        sample_distinct = None
    else:
        if sample_distinct is None:
            sample_distinct = _distinct(column, valid, valid_count)
        distinct = sample_distinct
        if valid_count > _DISTINCT_SAMPLE:
            scale = valid_count / _DISTINCT_SAMPLE
            distinct = int(min(valid_count, distinct * scale**0.5))

    return ColumnStats(
        type=column.type,
        null_count=null_count,
        distinct_estimate=distinct,
        min_value=min_value,
        max_value=max_value,
        avg_width=avg_width,
        sample_distinct=sample_distinct,
        text_bytes=text_bytes,
    )


def compute_stats(table):
    """Compute TableStats in one pass per column (sampling the distinct
    count of uncoded columns on huge tables)."""
    stats = TableStats(row_count=table.num_rows)
    for name, column in table.columns.items():
        stats.columns[name] = _column_stats(column)
    return stats


def append_stats(previous, merged, batch):
    """TableStats of ``merged`` — the table ``previous`` describes with
    the rows of ``batch`` appended — equal to ``compute_stats(merged)``
    field by field, but scanning the old rows only for what does not
    fold: a coded column's dictionary use (one ``bincount`` of its
    codes, no strings)."""
    stats = TableStats(row_count=merged.num_rows)
    for name, column in merged.columns.items():
        old = previous.columns.get(name)
        tail = batch.columns.get(name)
        if old is None or tail is None or old.type is not column.type:
            stats.columns[name] = _column_stats(column)
        else:
            stats.columns[name] = _column_stats(
                column, old, previous.row_count, tail
            )
    return stats


class Catalog:
    """Named tables with lazily computed statistics.

    VARCHAR columns of a registered table are dictionary-coded
    (:meth:`repro.data.Column.encode`).  Only grouping (group-by,
    DISTINCT and partition keys and the rank of a sort key, through
    ``repro.data.grouping.factorize_column``), MIN/MAX, statistics and byte
    accounting (``nbytes``) read the integer codes; filtering does
    not — predicates, every other expression and join keys decode the
    column (``.data``)."""

    def __init__(self):
        self._tables = {}
        self._stats = {}

    def create(self, name, table, replace=False):
        if name in self._tables and not replace:
            raise CatalogError("table {!r} already exists".format(name))
        if not isinstance(table, Table):
            raise CatalogError("expected a Table, got {!r}".format(type(table)))
        # Tables are held dictionary-coded (a representation change the
        # columns make in place; readers of ``.data`` see the same rows).
        for column in table.columns.values():
            column.encode()
        self._tables[name] = table
        self._stats.pop(name, None)

    def drop(self, name):
        if name not in self._tables:
            raise CatalogError("unknown table {!r}".format(name))
        del self._tables[name]
        self._stats.pop(name, None)

    def get(self, name):
        if name not in self._tables:
            raise CatalogError("unknown table {!r}".format(name))
        return self._tables[name]

    def has(self, name):
        return name in self._tables

    def names(self):
        return sorted(self._tables)

    def stats(self, name):
        if name not in self._stats:
            self._stats[name] = compute_stats(self.get(name))
        return self._stats[name]

    def invalidate_stats(self, name):
        self._stats.pop(name, None)
