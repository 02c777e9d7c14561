"""Chunked column storage: the pieces behind :class:`repro.data.Column`.

A column's storage is a *sequence of chunks*; the historical contiguous
numpy array is simply the one-chunk special case.  Two chunk kinds
exist:

* :class:`ArrayChunk` — a (data, valid) numpy array pair.  The arrays
  may be ordinary in-RAM buffers or views into an ``np.memmap``, so a
  disk-backed column and a RAM column run the same code.
* :class:`DictChunk` — dictionary-encoded VARCHAR: an integer code
  array (typically a memmap view) plus a shared decode table.  Strings
  materialize per chunk on demand, so a 100M-row message column never
  holds 100M Python string references at once.

Equivalence is the contract: materializing any chunked column must give
byte-identical arrays to the contiguous construction — same float bit
patterns, same NULL placement, same object identity semantics for
strings.  Chunking changes *where* bytes live, never *what* they are.

Consolidation (gluing all chunks back into one flat array) is always
legal but counted: hot paths that are supposed to stay chunk-streaming
assert the counter does not move (see ``consolidation_count``).
"""

import os
import threading

import numpy as np

#: default rows per storage chunk; override with ``REPRO_CHUNK_ROWS``
DEFAULT_CHUNK_ROWS = 1 << 20

CHUNK_ENV = "REPRO_CHUNK_ROWS"

_COUNT_LOCK = threading.Lock()
_CONSOLIDATIONS = 0


def resolve_chunk_rows(value=None):
    """Chunk size: explicit value wins, then ``REPRO_CHUNK_ROWS``."""
    if value is None:
        value = os.environ.get(CHUNK_ENV)
    if value in (None, ""):
        return DEFAULT_CHUNK_ROWS
    rows = int(value)
    if rows < 1:
        raise ValueError("chunk size must be >= 1, got {}".format(rows))
    return rows


def note_consolidation(rows):
    """Record one multi-chunk column being flattened into RAM.

    Counted both locally (cheap assertions in tests) and on the
    process-wide metrics plane (a fleet signal: an out-of-core path
    silently falling back to full materialization).
    """
    global _CONSOLIDATIONS
    with _COUNT_LOCK:
        _CONSOLIDATIONS += 1
    try:
        from repro.metrics import get_registry

        get_registry().inc("data.chunk_consolidations")
        get_registry().inc("data.chunk_consolidated_rows", delta=rows)
    except Exception:
        pass


def consolidation_count():
    with _COUNT_LOCK:
        return _CONSOLIDATIONS


def varchar_nbytes(data, valid):
    """Wire/cache size of plain VARCHAR rows: the string lengths of the
    valid rows plus one framing byte per row."""
    valid = np.asarray(valid, dtype=np.bool_)
    values = data.tolist() if valid.all() else data[valid].tolist()
    return sum(map(len, values)) + len(data)


def coded_nbytes(codes, valid, lengths):
    """Same total as :func:`varchar_nbytes` for dictionary-coded rows,
    read from the dictionary's length table without decoding."""
    codes = np.asarray(codes)
    valid = np.asarray(valid, dtype=np.bool_)
    if not len(lengths):
        return len(codes)
    if not valid.all():
        codes = codes[valid]
    counts = np.bincount(codes, minlength=len(lengths))
    return int(np.dot(counts, lengths)) + len(valid)


class ArrayChunk:
    """One stretch of rows as a (data, valid) numpy array pair."""

    __slots__ = ("data", "valid")

    def __init__(self, data, valid):
        self.data = data
        self.valid = valid

    def __len__(self):
        return len(self.data)

    def materialize(self):
        """The chunk's (data, valid) arrays — already materialized."""
        return self.data, self.valid

    def part(self, lo, hi):
        """Zero-copy view of local rows ``[lo, hi)``."""
        return ArrayChunk(self.data[lo:hi], self.valid[lo:hi])

    def nbytes(self, sql_type):
        from repro.data.types import SQLType

        if sql_type is SQLType.VARCHAR:
            return varchar_nbytes(self.data, self.valid)
        if sql_type is SQLType.BOOLEAN:
            return len(self.data)
        return 8 * len(self.data)


class DictChunk:
    """Dictionary-encoded VARCHAR rows: codes plus a shared decode table.

    ``codes`` indexes into ``dictionary`` (a numpy object array of
    strings); rows with ``valid == False`` carry code 0 as a placeholder
    and must never be decoded as values.  ``lengths`` caches the byte
    length of every dictionary entry so ``nbytes`` never decodes.
    """

    __slots__ = ("codes", "valid", "dictionary", "lengths")

    def __init__(self, codes, valid, dictionary, lengths=None):
        self.codes = codes
        self.valid = valid
        self.dictionary = dictionary
        if lengths is None:
            lengths = np.fromiter(
                (len(value) for value in dictionary),
                dtype=np.int64,
                count=len(dictionary),
            )
        self.lengths = lengths

    def __len__(self):
        return len(self.codes)

    def materialize(self):
        """Decode this chunk's strings (a fresh object array each call —
        nothing is cached, so a streaming pass stays bounded)."""
        if len(self.dictionary):
            data = self.dictionary[np.asarray(self.codes, dtype=np.int64)]
        else:
            data = np.empty(len(self.codes), dtype=object)
            data[:] = ""
        # Invalid rows hold the "" placeholder, matching Column.nulls.
        if not self.valid.all():
            data = np.where(np.asarray(self.valid, dtype=np.bool_), data, "")
            data = data.astype(object)
        return data, self.valid

    def part(self, lo, hi):
        """Zero-copy view of local rows ``[lo, hi)`` (codes stay encoded)."""
        return DictChunk(
            self.codes[lo:hi], self.valid[lo:hi], self.dictionary, self.lengths
        )

    def nbytes(self, sql_type):
        return coded_nbytes(self.codes, self.valid, self.lengths)
