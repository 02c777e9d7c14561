"""Columnar batches: the layer-neutral interchange format.

A :class:`ColumnBatch` (also exported as ``Table``, the engine's name
for it) is an ordered mapping of column name -> :class:`Column`
— typed numpy arrays with validity masks.  The batch is the unit that
crosses every layer boundary: backends produce batches, the query cache
and the network payload model account batches, and dataflow pulses carry
batches with a lazy list-of-dict row view for operators that need one.

Error compatibility: batch operations raise the engine's
``CatalogError``/``TypeMismatchError`` so existing callers (and tests)
keep working.  Those classes are imported lazily at raise time so this
package has no import-time dependency on ``repro.engine``.
"""

import itertools

import numpy as np

from repro.data.chunked import (
    ArrayChunk,
    DictChunk,
    coded_nbytes,
    note_consolidation,
    resolve_chunk_rows,
    varchar_nbytes,
)
from repro.data.types import SQLType, infer_type


def _catalog_error(message):
    from repro.engine.errors import CatalogError

    return CatalogError(message)


def _type_mismatch_error(message):
    from repro.engine.errors import TypeMismatchError

    return TypeMismatchError(message)


def factorize_strings(data, valid):
    """Dictionary-code an object array of strings by hashing (only the
    distinct values are sorted, never the rows).

    Returns ``(codes, dictionary, lengths)`` — ``int32`` codes with 0 on
    invalid rows, the sorted duplicate-free dictionary as an object
    array (empty when no row is valid), its ``len()`` table — or None
    when the values are not hashable, mutually comparable and sized,
    i.e. not strings."""
    values = data.tolist()
    all_valid = bool(valid.all())
    try:
        entries = sorted(
            dict.fromkeys(values if all_valid else data[valid].tolist())
        )
        dictionary, lengths = _dictionary_arrays(entries)
    except TypeError:
        return None
    index = {value: code for code, value in enumerate(entries)}
    codes = np.fromiter(
        map(index.get, values, itertools.repeat(0)),
        dtype=np.int32, count=len(values),
    )
    if not all_valid:
        codes[~valid] = 0
    return codes, dictionary, lengths


def _dictionary_arrays(entries):
    """A sorted list of strings as a decode table and its length table."""
    dictionary = np.empty(len(entries), dtype=object)
    dictionary[:] = entries
    lengths = np.fromiter(
        map(len, entries), dtype=np.int64, count=len(entries)
    )
    return dictionary, lengths


def _flatten_coded(chunks):
    """Dictionary chunks over one shared dictionary as a single coding,
    ``(codes, valid, dictionary, lengths)`` with the dictionary sorted
    and duplicate-free (codes are remapped, no row is decoded), or None
    when the chunks are of another kind or the dictionary holds at
    least half as many entries as there are rows — the rule that keeps
    :meth:`Column.encode` from coding a column."""
    shared = getattr(chunks[0], "dictionary", None)
    if shared is None or any(
        getattr(chunk, "dictionary", None) is not shared for chunk in chunks
    ):
        return None
    values = shared.tolist()
    entries = sorted(set(values))
    if not 0 < 2 * len(entries) < sum(len(chunk) for chunk in chunks):
        return None
    index = {value: code for code, value in enumerate(entries)}
    remap = np.fromiter(
        map(index.__getitem__, values), dtype=np.int32, count=len(values)
    )
    codes = np.concatenate(
        [np.asarray(chunk.codes, dtype=np.int32) for chunk in chunks]
    )
    valid = np.concatenate(
        [np.asarray(chunk.valid, dtype=np.bool_) for chunk in chunks]
    )
    return (remap[codes], valid) + _dictionary_arrays(entries)


def _concat_coded(parts):
    """Concatenate VARCHAR columns of which at least one is coded by
    merging the dictionaries and remapping codes: rows that are already
    coded are neither decoded nor re-sorted.  Returns None (the caller
    concatenates plain strings) when a part is not made of strings or
    the merged dictionary reaches half the rows — the same rule that
    keeps :meth:`Column.encode` from coding a column."""
    coded = []
    for part in parts:
        if part.codes is not None:
            coded.append((part.codes, part.dictionary, part._lengths))
            continue
        triple = factorize_strings(part.data, part.valid)
        if triple is None:
            return None
        coded.append(triple)
    _, dictionary, lengths = coded[0]
    if all(other is dictionary for _, other, _ in coded):
        pieces = [codes for codes, _, _ in coded]  # slices of one column
    else:
        entries = sorted(set().union(
            *[other.tolist() for _, other, _ in coded]
        ))
        index = {value: code for code, value in enumerate(entries)}
        pieces = []
        for codes, other, _ in coded:
            # A sub-dictionary as long as the union is the union.
            if len(other) != len(entries) and len(other):
                remap = np.fromiter(
                    map(index.__getitem__, other.tolist()),
                    dtype=np.int32, count=len(other),
                )
                codes = remap[codes]
            pieces.append(codes)
        dictionary, lengths = _dictionary_arrays(entries)
    if 2 * len(dictionary) >= sum(len(part) for part in parts):
        return None
    return Column.from_codes(
        np.concatenate(pieces),
        np.concatenate([part.valid for part in parts]),
        dictionary,
        lengths,
    )


def concat_columns(parts):
    """One contiguous column from same-typed columns laid end to end
    (dictionary coding survives, see :func:`_concat_coded`)."""
    if len(parts) == 1:
        return parts[0]
    if any(part.codes is not None for part in parts):
        merged = _concat_coded(parts)
        if merged is not None:
            return merged
    return Column(
        parts[0].type,
        np.concatenate([part.data for part in parts]),
        np.concatenate([part.valid for part in parts]),
    )


class Column:
    """A typed column: numpy ``data`` plus a boolean ``valid`` mask.

    Invariants: ``len(data) == len(valid)``; positions with
    ``valid == False`` hold an arbitrary placeholder in ``data`` (0.0 for
    DOUBLE, "" for VARCHAR, False for BOOLEAN) and must never be read as
    values.

    Storage is a *sequence of chunks* (:mod:`repro.data.chunked`); the
    contiguous array is the one-chunk special case and remains the
    default construction.  ``data``/``valid`` are properties: on a
    multi-chunk column the first access consolidates (flattens all
    chunks into RAM, counted via ``note_consolidation``), so every
    flat-array consumer keeps working unchanged while chunk-aware paths
    use :meth:`slice` / :meth:`iter_chunks` and never pay that cost.
    A column backed by ``np.memmap`` arrays is *contiguous* storage-wise
    (slicing it is zero-copy lazy paging) but still declares logical
    chunk boundaries so executors align work to them; its ``backing``
    can release page ranges after a streaming pass.

    A contiguous VARCHAR column may be *dictionary-coded* (see
    :meth:`encode`): ``_data`` is dropped and the rows live as ``int32``
    codes into a sorted, duplicate-free dictionary, with the
    dictionary's length table beside it — the triple
    :class:`~repro.data.chunked.DictChunk` uses on disk.  Because the
    dictionary is sorted, code order is string order, so grouping,
    sorting and MIN/MAX run on the codes; ``take`` / ``mask`` / ``slice``
    and ``concat_batches`` keep the coding; ``data`` decodes a fresh
    object array on every access (nothing is cached, so a coded base
    table never holds its strings twice).  A column of dictionary
    chunks consolidates to this form, never to strings.
    """

    __slots__ = ("type", "_data", "_valid", "_chunks", "_offsets", "backing",
                 "_codes", "_dictionary", "_lengths")

    def __init__(self, sql_type, data, valid=None, offsets=None, backing=None):
        self.type = sql_type
        self._chunks = None
        self._codes = None
        self._dictionary = None
        self._lengths = None
        self.backing = backing
        self._data = np.asarray(data, dtype=sql_type.numpy_dtype())
        if valid is None:
            valid = np.ones(len(self._data), dtype=np.bool_)
        self._valid = np.asarray(valid, dtype=np.bool_)
        if len(self._valid) != len(self._data):
            raise _type_mismatch_error("data/valid length mismatch")
        self._offsets = (
            None if offsets is None else np.asarray(offsets, dtype=np.int64)
        )

    @classmethod
    def from_chunks(cls, sql_type, chunks, backing=None):
        """Build a column over a list of chunk objects (or (data, valid)
        array pairs) without copying or materializing them."""
        normalized = []
        for chunk in chunks:
            if isinstance(chunk, tuple):
                data, valid = chunk
                data = np.asarray(data, dtype=sql_type.numpy_dtype())
                if valid is None:
                    valid = np.ones(len(data), dtype=np.bool_)
                chunk = ArrayChunk(data, np.asarray(valid, dtype=np.bool_))
            normalized.append(chunk)
        if len(normalized) == 1 and isinstance(normalized[0], ArrayChunk):
            only = normalized[0]
            return cls(sql_type, only.data, only.valid, backing=backing)
        column = cls.__new__(cls)
        column.type = sql_type
        column._data = None
        column._valid = None
        column._chunks = normalized
        column._codes = None
        column._dictionary = None
        column._lengths = None
        column.backing = backing
        offsets = np.zeros(len(normalized) + 1, dtype=np.int64)
        np.cumsum([len(chunk) for chunk in normalized], out=offsets[1:])
        column._offsets = offsets
        return column

    @classmethod
    def from_codes(cls, codes, valid, dictionary, lengths):
        """A dictionary-coded VARCHAR column over existing arrays.

        ``dictionary`` must be sorted and duplicate-free, ``lengths``
        its ``len()`` table, ``codes`` in ``[0, len(dictionary))`` on
        valid rows (invalid rows carry any in-range placeholder)."""
        column = cls.__new__(cls)
        column.type = SQLType.VARCHAR
        column._data = None
        column._valid = valid
        column._chunks = None
        column._offsets = None
        column._codes = codes
        column._dictionary = dictionary
        column._lengths = lengths
        column.backing = None
        return column

    # -- dictionary coding -------------------------------------------------

    @property
    def codes(self):
        """``int32`` dictionary codes of a coded column, else None."""
        return self._codes

    @property
    def dictionary(self):
        """The sorted decode table of a coded column, else None."""
        return self._dictionary

    def encode(self):
        """Switch a contiguous plain VARCHAR column to dictionary coding,
        in place (the object array is dropped, not kept beside the
        codes).  A column whose dictionary would hold at least half as
        many entries as it has rows stays plain, as does anything that
        is not an undivided VARCHAR column of comparable strings —
        columns that declare chunk boundaries belong to the out-of-core
        layout and keep it."""
        if (
            self.type is not SQLType.VARCHAR
            or self._data is None
            or self._offsets is not None
        ):
            return
        coded = factorize_strings(self._data, self._valid)
        if coded is None or not 0 < 2 * len(coded[1]) < len(self._data):
            return
        # Codes first, then drop the strings: a concurrent reader sees
        # either complete representation, never neither.
        self._codes, self._dictionary, self._lengths = coded
        self._data = None

    def _decode(self):
        valid = self._valid
        data = self._dictionary[self._codes]
        if not valid.all():
            data[~valid] = ""  # the Column.nulls placeholder
        return data

    # -- storage layout ----------------------------------------------------

    @property
    def data(self):
        data = self._data
        if data is not None:
            return data
        if self._codes is None:
            self._consolidate()
            if self._data is not None:
                return self._data
        return self._decode()

    @property
    def valid(self):
        if self._chunks is not None:
            self._consolidate()
        return self._valid

    @property
    def is_chunked(self):
        """True when storage is not one contiguous (data, valid) pair."""
        return self._chunks is not None

    @property
    def num_chunks(self):
        if self._offsets is None:
            return 1
        return max(len(self._offsets) - 1, 1)

    def chunk_offsets(self):
        """Chunk boundary row indices ``[0, ..., len]``, or None when the
        column is one undivided contiguous array."""
        if self._offsets is None:
            return None
        return [int(value) for value in self._offsets]

    def _consolidate(self):
        """Flatten all chunks into one contiguous (data, valid) pair, or
        dictionary chunks into one (codes, valid) pair.

        Counted: out-of-core paths are supposed to never reach this."""
        chunks = self._chunks
        if chunks is None:
            return
        note_consolidation(len(self))
        coded = _flatten_coded(chunks)
        if coded is not None:
            # Dictionary chunks flatten to a coded column, not to strings
            # (codes last: a concurrent reader that sees them sees all).
            codes, self._valid, self._dictionary, self._lengths = coded
            self._codes = codes
            self._chunks = None
            return
        parts = [chunk.materialize() for chunk in chunks]
        if len(parts) == 1:
            data = np.asarray(parts[0][0], dtype=self.type.numpy_dtype())
            valid = np.asarray(parts[0][1], dtype=np.bool_)
        else:
            data = np.concatenate(
                [np.asarray(part[0], dtype=self.type.numpy_dtype())
                 for part in parts]
            )
            valid = np.concatenate(
                [np.asarray(part[1], dtype=np.bool_) for part in parts]
            )
        # Assign both before dropping the chunk list so concurrent readers
        # either see chunked storage or the complete flat arrays.
        self._data = data
        self._valid = valid
        self._chunks = None

    def storage_chunks(self):
        """The storage as a chunk-object list (contiguous -> one chunk).
        Shares buffers with this column; used by chunk-preserving concat."""
        if self._chunks is not None:
            return list(self._chunks)
        if self._codes is not None:
            return [DictChunk(self._codes, self._valid, self._dictionary,
                              self._lengths)]
        return [ArrayChunk(self._data, self._valid)]

    def slice(self, lo, hi):
        """Rows ``[lo, hi)`` as a column.

        Zero-copy for contiguous storage (including memmaps) and for
        ranges inside one ArrayChunk; ranges covering dictionary chunks
        decode just those rows.  Cost is always O(hi - lo), never O(n).
        """
        lo = max(int(lo), 0)
        hi = min(int(hi), len(self))
        if hi < lo:
            hi = lo
        if self._codes is not None:
            return self._recoded(self._codes[lo:hi], self._valid[lo:hi])
        if self._chunks is None:
            return Column(self.type, self._data[lo:hi], self._valid[lo:hi])
        offsets = self._offsets
        first = int(np.searchsorted(offsets, lo, side="right")) - 1
        parts = []
        position = int(offsets[first]) if first < len(offsets) - 1 else lo
        index = first
        while position < hi and index < len(self._chunks):
            chunk = self._chunks[index]
            chunk_lo = max(lo - position, 0)
            chunk_hi = min(hi - position, len(chunk))
            if chunk_hi > chunk_lo:
                data, valid = chunk.part(chunk_lo, chunk_hi).materialize()
                parts.append((data, valid))
            position += len(chunk)
            index += 1
        if not parts:
            return Column(
                self.type, np.empty(0, dtype=self.type.numpy_dtype()),
                np.empty(0, dtype=np.bool_),
            )
        if len(parts) == 1:
            return Column(self.type, parts[0][0], parts[0][1])
        return Column(
            self.type,
            np.concatenate([
                np.asarray(part[0], dtype=self.type.numpy_dtype())
                for part in parts
            ]),
            np.concatenate([part[1] for part in parts]),
        )

    def iter_chunks(self, max_rows=None):
        """Yield ``(lo, hi, column)`` contiguous pieces along the chunk
        grid (optionally subdivided to at most ``max_rows`` rows) without
        ever materializing more than one piece."""
        total = len(self)
        if total == 0:
            return
        offsets = self._offsets
        if offsets is None:
            bounds = [0, total]
        else:
            bounds = [int(value) for value in offsets]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= lo:
                continue
            step = (hi - lo) if max_rows is None else int(max_rows)
            for start in range(lo, hi, step):
                stop = min(start + step, hi)
                yield start, stop, self.slice(start, stop)

    def rechunk(self, chunk_rows=None):
        """Copy into independent fixed-size chunks (the adversarial
        layout for equivalence testing: no shared buffers, boundaries
        everywhere)."""
        chunk_rows = resolve_chunk_rows(chunk_rows)
        chunks = []
        for lo, hi, piece in self.iter_chunks(max_rows=chunk_rows):
            chunks.append(ArrayChunk(piece.data.copy(), piece.valid.copy()))
        if not chunks:
            return Column.from_chunks(
                self.type,
                [ArrayChunk(np.empty(0, dtype=self.type.numpy_dtype()),
                            np.empty(0, dtype=np.bool_))],
            )
        if len(chunks) == 1:
            # Preserve "this is one chunk of a chunked layout" so the
            # boundary-alignment machinery still sees explicit offsets.
            column = Column(self.type, chunks[0].data, chunks[0].valid,
                            offsets=[0, len(chunks[0])])
            return column
        return Column.from_chunks(self.type, chunks)

    def release(self, lo=None, hi=None):
        """Hint that rows ``[lo, hi)`` (default: all) were streamed past:
        disk-backed storage drops their resident pages.  No-op for RAM
        columns; always safe — released pages re-fault from the file."""
        if self.backing is not None:
            self.backing.release(lo, hi)

    def __len__(self):
        if self._chunks is None:
            return len(self._valid)
        return int(self._offsets[-1])

    def __repr__(self):
        return "Column({}, n={}, nulls={}, chunks={})".format(
            self.type.value, len(self), self.null_count(), self.num_chunks
        )

    @classmethod
    def from_values(cls, values, sql_type=None):
        """Build a column from Python values; None becomes NULL."""
        values = list(values)
        if sql_type is None:
            sql_type = infer_type(values)
        placeholder = {"DOUBLE": 0.0, "VARCHAR": "", "BOOLEAN": False}[sql_type.value]
        valid = np.fromiter(
            (value is not None for value in values), dtype=np.bool_, count=len(values)
        )
        data = [placeholder if value is None else value for value in values]
        if sql_type is SQLType.DOUBLE:
            # NaN inputs are treated as NULL (matches the SQL translation of
            # JS NaN in repro.expr.sqlcompile).
            array = np.asarray(data, dtype=np.float64)
            nan_mask = np.isnan(array)
            if nan_mask.any():
                valid = valid & ~nan_mask
                array = np.where(nan_mask, 0.0, array)
            return cls(sql_type, array, valid)
        if sql_type is SQLType.VARCHAR:
            # Normalize numpy string scalars to plain Python str so row
            # dicts round-trip cleanly through JSON/clients.
            data = [value if type(value) is str else str(value)
                    for value in data]
        return cls(sql_type, data, valid)

    @classmethod
    def nulls(cls, sql_type, count):
        """An all-NULL column of the given type and length."""
        placeholder = {"DOUBLE": 0.0, "VARCHAR": "", "BOOLEAN": False}[sql_type.value]
        data = np.full(count, placeholder, dtype=sql_type.numpy_dtype())
        return cls(sql_type, data, np.zeros(count, dtype=np.bool_))

    @classmethod
    def constant(cls, value, count):
        """A column repeating a single scalar (or NULL) ``count`` times."""
        if value is None:
            return cls.nulls(SQLType.DOUBLE, count)
        from repro.data.types import python_value_type

        sql_type = python_value_type(value)
        data = np.full(count, value, dtype=sql_type.numpy_dtype())
        return cls(sql_type, data)

    def _recoded(self, codes, valid):
        return Column.from_codes(
            codes, valid, self._dictionary, self._lengths
        )

    def take(self, indices):
        """Gather rows by integer index array."""
        if self._codes is not None:
            return self._recoded(self._codes[indices], self._valid[indices])
        return Column(self.type, self.data[indices], self.valid[indices])

    def mask(self, keep, indices=None):
        """Filter rows by boolean mask (``indices``: its ``flatnonzero``,
        when the caller masks several columns and already has it).

        On chunked storage the mask is applied chunk by chunk (the kept
        rows of each chunk become one in-RAM chunk), so filtering a
        disk-sized column materializes only its survivors.
        """
        if self._chunks is None:
            # One flatnonzero plus a gather per array beats numpy's
            # boolean indexing several times over at mid selectivity.
            if indices is None:
                indices = np.flatnonzero(keep)
            return self.take(indices)
        keep = np.asarray(keep, dtype=np.bool_)
        parts = []
        for lo, hi, piece in self.iter_chunks():
            selector = keep[lo:hi]
            parts.append(
                ArrayChunk(piece.data[selector], piece.valid[selector])
            )
        return Column.from_chunks(self.type, parts)

    def to_list(self):
        """Materialize as Python values with None for NULLs."""
        out = []
        for _lo, _hi, piece in self.iter_chunks():
            for value, ok in zip(piece.data.tolist(), piece.valid.tolist()):
                out.append(value if ok else None)
        return out

    def value_at(self, index):
        if self._codes is not None:
            if not self._valid[index]:
                return None
            return self._dictionary[self._codes[index]]
        if self._chunks is None:
            data, valid = self._data, self._valid
        else:
            piece = self.slice(index, index + 1)
            data, valid, index = piece.data, piece.valid, 0
        if not valid[index]:
            return None
        value = data[index]
        if self.type is SQLType.DOUBLE:
            return float(value)
        if self.type is SQLType.BOOLEAN:
            return bool(value)
        return value

    def null_count(self):
        if self._chunks is None:
            return int((~self._valid).sum())
        total = len(self)
        return total - sum(
            int(np.asarray(chunk.valid, dtype=np.bool_).sum())
            for chunk in self._chunks
        )

    def nbytes(self):
        """Approximate in-memory/wire size of this column in bytes.

        Used by the network simulator, the result cache's byte ledger,
        and the planner's transfer-size estimator.  VARCHAR columns are
        costed by actual string lengths; chunked storage sums per chunk
        (dictionary chunks from their code/length tables) so accounting
        a disk-backed column never materializes it.
        """
        if self._chunks is not None:
            return sum(chunk.nbytes(self.type) for chunk in self._chunks)
        if self._codes is not None:
            return coded_nbytes(self._codes, self._valid, self._lengths)
        if self.type is SQLType.VARCHAR:
            return varchar_nbytes(self._data, self._valid)
        if self.type is SQLType.BOOLEAN:
            return len(self)
        return 8 * len(self)


class ColumnBatch:
    """An ordered mapping of column name -> :class:`Column`, equal lengths."""

    def __init__(self, columns=None):
        self.columns = {}
        self._num_rows = 0
        if columns:
            for name, column in columns.items():
                self.add_column(name, column)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, column_order=None):
        """Build from a list of dicts.  Missing keys become NULL."""
        rows = list(rows)
        if column_order is None:
            column_order = []
            seen = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        column_order.append(key)
        batch = cls()
        for name in column_order:
            values = [row.get(name) for row in rows]
            batch.add_column(name, Column.from_values(values))
        if not column_order:
            batch._num_rows = len(rows)
        return batch

    @classmethod
    def from_columns(cls, **named_values):
        """Build from keyword lists: ``from_columns(a=[1,2], b=['x','y'])``."""
        batch = cls()
        for name, values in named_values.items():
            batch.add_column(name, Column.from_values(values))
        return batch

    def add_column(self, name, column):
        if name in self.columns:
            raise _catalog_error("duplicate column {!r}".format(name))
        if self.columns and len(column) != self._num_rows:
            raise _type_mismatch_error(
                "column {!r} has {} rows, table has {}".format(
                    name, len(column), self._num_rows
                )
            )
        self.columns[name] = column
        self._num_rows = len(column)

    def set_column(self, name, column):
        """Add or replace a column, preserving its position when replacing
        (dict key order is stable under overwrite) — the columnar analogue
        of ``row[name] = value`` on a dict row."""
        if self.columns and len(column) != self._num_rows:
            raise _type_mismatch_error(
                "column {!r} has {} rows, table has {}".format(
                    name, len(column), self._num_rows
                )
            )
        self.columns[name] = column
        self._num_rows = len(column)

    # -- introspection -----------------------------------------------------

    @property
    def num_rows(self):
        return self._num_rows

    @property
    def num_columns(self):
        return len(self.columns)

    @property
    def column_names(self):
        return list(self.columns)

    def column(self, name):
        if name not in self.columns:
            raise _catalog_error("unknown column {!r}".format(name))
        return self.columns[name]

    def schema(self):
        """Ordered (name, SQLType) pairs."""
        return [(name, column.type) for name, column in self.columns.items()]

    def nbytes(self):
        return sum(column.nbytes() for column in self.columns.values())

    def __repr__(self):
        cols = ", ".join(
            "{}:{}".format(name, column.type.value)
            for name, column in self.columns.items()
        )
        return "Table({} rows; {})".format(self.num_rows, cols)

    # -- row-wise views (for the client runtime and tests) ------------------

    def to_rows(self):
        """Materialize as a list of dicts (None for NULL)."""
        return list(self.iter_rows())

    #: rows decoded per step when streaming rows off a chunked batch
    _ITER_ROWS_STEP = 65536

    def iter_rows(self):
        """Yield row dicts one at a time (None for NULL) without holding
        the whole row list — used for incremental wire encoding.  Chunked
        and disk-backed batches decode one bounded piece at a time."""
        names = list(self.columns)
        for _lo, _hi, piece in self.iter_chunk_batches(
            max_rows=self._ITER_ROWS_STEP
        ):
            lists = [piece.columns[name].to_list() for name in names]
            for index in range(piece.num_rows):
                yield {
                    name: lists[position][index]
                    for position, name in enumerate(names)
                }

    def row(self, index):
        return {
            name: column.value_at(index) for name, column in self.columns.items()
        }

    # -- transformations ----------------------------------------------------

    def take(self, indices):
        out = ColumnBatch()
        for name, column in self.columns.items():
            out.add_column(name, column.take(indices))
        if not self.columns:
            out._num_rows = len(indices)
        return out

    def mask(self, keep):
        indices = np.flatnonzero(keep)
        out = ColumnBatch()
        for name, column in self.columns.items():
            out.add_column(name, column.mask(keep, indices))
        if not self.columns:
            out._num_rows = len(indices)
        return out

    def select(self, names):
        out = ColumnBatch()
        for name in names:
            out.add_column(name, self.column(name))
        out._num_rows = self._num_rows
        return out

    def rename(self, mapping):
        out = ColumnBatch()
        for name, column in self.columns.items():
            out.add_column(mapping.get(name, name), column)
        out._num_rows = self._num_rows
        return out

    def head(self, count):
        indices = np.arange(min(count, self.num_rows))
        return self.take(indices)

    # -- chunked storage ----------------------------------------------------

    def slice(self, lo, hi):
        """Rows ``[lo, hi)`` as a batch (zero-copy where columns allow)."""
        out = ColumnBatch()
        for name, column in self.columns.items():
            out.add_column(name, column.slice(lo, hi))
        if not self.columns:
            lo = max(min(int(lo), self._num_rows), 0)
            hi = max(min(int(hi), self._num_rows), lo)
            out._num_rows = hi - lo
        return out

    def chunk_offsets(self):
        """The union of every column's chunk boundaries: ``[0, ..., n]``.
        Work aligned to these offsets slices every column zero-copy."""
        cuts = {0, self._num_rows}
        for column in self.columns.values():
            offsets = column.chunk_offsets()
            if offsets is not None:
                cuts.update(int(value) for value in offsets)
        return sorted(cuts)

    @property
    def is_chunked(self):
        return any(column.is_chunked for column in self.columns.values())

    def iter_chunk_batches(self, max_rows=None):
        """Yield ``(lo, hi, batch)`` contiguous pieces along the union
        chunk grid — the streaming iteration loaders and encoders use so
        a disk-backed table is materialized one chunk at a time."""
        bounds = self.chunk_offsets()
        if max_rows is not None:
            refined = []
            for lo, hi in zip(bounds, bounds[1:]):
                refined.extend(range(lo, hi, int(max_rows)))
            bounds = refined + [self._num_rows]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                yield lo, hi, self.slice(lo, hi)

    def rechunk(self, chunk_rows=None):
        """Copy every column into independent fixed-size chunks."""
        out = ColumnBatch()
        for name, column in self.columns.items():
            out.add_column(name, column.rechunk(chunk_rows))
        if not self.columns:
            out._num_rows = self._num_rows
        return out


#: Historical name, still used across the engine and tests.
Table = ColumnBatch


def concat_batches(batches, chunked=False):
    """Vertically concatenate batches with identical schemas.

    With ``chunked=True`` the inputs' storage chunks are adopted as the
    output's chunks — no bytes are copied, so appending a streaming
    batch to a disk-sized history is O(1) in memory.  The flat default
    preserves the historical contiguous layout.
    """
    batches = [batch for batch in batches if batch is not None]
    if not batches:
        return ColumnBatch()
    first = batches[0]
    out = ColumnBatch()
    for name in first.column_names:
        parts = [batch.column(name) for batch in batches]
        # All-NULL columns carry a placeholder type (DOUBLE); coerce them to
        # the concrete type found in sibling batches.
        concrete = {
            part.type for part in parts if part.null_count() != len(part)
        }
        if len(concrete) > 1:
            raise _type_mismatch_error(
                "type mismatch for {!r} in concat".format(name)
            )
        target = concrete.pop() if concrete else parts[0].type
        parts = [
            part if part.type is target else Column.nulls(target, len(part))
            for part in parts
        ]
        if chunked:
            chunks = []
            for part in parts:
                chunks.extend(part.storage_chunks())
            out.add_column(name, Column.from_chunks(target, chunks))
        else:
            out.add_column(name, concat_columns(parts))
    if not first.column_names:
        out._num_rows = sum(batch.num_rows for batch in batches)
    return out


#: Historical name, kept for engine-layer callers.
concat_tables = concat_batches
