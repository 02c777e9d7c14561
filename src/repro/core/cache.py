"""Client-side result cache for server query responses.

Keys are the rendered SQL text — a canonical description of the request
including all inlined signal values, so re-parameterized interaction
variants get distinct entries.  Eviction is LRU by entry count with an
optional byte budget (browser memory is the real constraint the paper's
middleware coordinates, §2: "prefetches data ... and coordinates the
cache").

The cache is safe to share across concurrent sessions: one re-entrant
lock guards the entry map, the byte ledger, and every counter, so a
process-wide cache under the serving layer (``repro.serve``) keeps
exact hit/miss/eviction/byte accounting no matter how many worker
threads race on it.  Entry payloads are immutable once inserted, so
readers outside the lock only ever see complete entries.
"""

import threading
from collections import OrderedDict

from repro.metrics import NULL


class CacheEntry:
    """One cached query response.

    The canonical payload is the columnar ``batch`` exactly as it came
    off the wire; ``rows`` is a lazily materialized (and then cached)
    dict-row view for row-oriented consumers.  Entries can still be
    constructed from a row list directly (tests, synthetic entries)."""

    __slots__ = ("batch", "wire_bytes", "value", "_rows")

    def __init__(self, rows=None, wire_bytes=0, value=None, batch=None):
        self.batch = batch
        self.wire_bytes = wire_bytes
        #: for value queries (extent results)
        self.value = value
        self._rows = None if rows is None else list(rows)
        if self._rows is None and batch is None:
            self._rows = []

    @property
    def rows(self):
        if self._rows is None:
            self._rows = self.batch.to_rows()
        return self._rows

    @property
    def num_rows(self):
        if self.batch is not None:
            return self.batch.num_rows
        return len(self._rows)

    def as_batch(self):
        """The entry's batch, building (and caching) one from the row
        view for entries that were constructed from rows."""
        if self.batch is None:
            from repro.data import ColumnBatch

            self.batch = ColumnBatch.from_rows(self._rows)
        return self.batch


class ResultCache:
    """LRU cache of query results, safe for concurrent sessions."""

    def __init__(self, max_entries=64, max_bytes=64 * 1024 * 1024):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # Re-entrant: put() evicts while already holding the lock.
        self._lock = threading.RLock()
        self._entries = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: bytes evicted over the cache's lifetime
        self.evicted_bytes = 0
        #: always-on plane; the session installs its labeled MetricsView
        self.metrics = NULL

    def __len__(self):
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self):
        with self._lock:
            return self._bytes

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self.metrics.inc("cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self.metrics.inc("cache.hits")
            return entry

    def contains(self, key):
        """Peek without affecting counters or recency."""
        with self._lock:
            return key in self._entries

    def miss(self):
        """Count a lookup that cannot be made: the key is the text of a
        statement that follows a miss, which only the server can compose."""
        with self._lock:
            self.misses += 1
            self.metrics.inc("cache.misses")

    def peek(self, key):
        """The entry for ``key`` (refreshing its recency) without touching
        the hit/miss counters — used by owners of synthetic entries (tile
        cubes) that treat the cache purely as the eviction authority."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def discard(self, key):
        """Drop one entry (owner-initiated invalidation, not eviction)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return
            self._bytes -= entry.wire_bytes
            self.metrics.set_gauge("cache.bytes", self._bytes)

    def put(self, key, entry):
        with self._lock:
            if key in self._entries:
                self._bytes -= self._entries[key].wire_bytes
                del self._entries[key]
            self._entries[key] = entry
            self._bytes += entry.wire_bytes
            self._evict()
            self.metrics.set_gauge("cache.bytes", self._bytes)

    def _evict(self):
        # Callers hold the lock (RLock re-entry from put()).
        while len(self._entries) > self.max_entries or (
            self._bytes > self.max_bytes and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.wire_bytes
            self.evictions += 1
            self.evicted_bytes += evicted.wire_bytes
            self.metrics.inc("cache.evictions")

    def clear(self):
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.metrics.set_gauge("cache.bytes", 0)

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
            }
