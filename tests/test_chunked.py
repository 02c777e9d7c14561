"""The chunk-boundary adversary wall.

Chunked and contiguous storage must be *byte-identical* — same float bit
patterns, same key order, same NULL placement — no matter where the
chunk edges land.  Every test here is built so something interesting
straddles an edge: a group run, a sort-key tie, a NULL run, a NaN key,
a 1-row or empty chunk.  The executor side asserts the structural
invariant that makes the zero-copy path safe: morsels never span a
chunk boundary, and no query silently consolidates a chunked column.
Memmap-backed columns additionally survive page release and cache
eviction-rebuild, because their truth lives in read-only spill files.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from repro.data import (
    ArrayChunk,
    Column,
    ColumnBatch,
    SpillStore,
    SQLType,
    Table,
)
from repro.data.batch import concat_batches
from repro.data.chunked import consolidation_count
from repro.engine.database import Database
from repro.engine.eval import Frame
from repro.engine.parallel import frame_chunk_cuts

NAN = float("nan")

#: 23 rows, engineered so chunk sizes 1/2/3/5/7 each cut something:
#: group runs of 4-6 rows, a 7-row NULL run over rows 8..14, sort-key
#: ties everywhere (tie cycles 0/1), NaN measure values inside and
#: outside the NULL run, a negative zero, and repeated/empty strings.
ADVERSARIAL_ROWS = [
    {"g": "a", "tie": 0.0, "v": 1.0, "s": "x"},
    {"g": "a", "tie": 1.0, "v": 2.0, "s": ""},
    {"g": "a", "tie": 0.0, "v": NAN, "s": "x"},
    {"g": "a", "tie": 1.0, "v": -0.0, "s": "y"},
    {"g": "b", "tie": 0.0, "v": 5.0, "s": None},
    {"g": "b", "tie": 1.0, "v": 6.0, "s": "x"},
    {"g": "b", "tie": 0.0, "v": 7.0, "s": ""},
    {"g": "b", "tie": 1.0, "v": 8.0, "s": "z"},
    {"g": "b", "tie": 0.0, "v": None, "s": None},
    {"g": "b", "tie": 1.0, "v": None, "s": "x"},
    {"g": "c", "tie": 0.0, "v": None, "s": "y"},
    {"g": "c", "tie": 1.0, "v": None, "s": "y"},
    {"g": "c", "tie": 0.0, "v": None, "s": ""},
    {"g": "c", "tie": 1.0, "v": None, "s": None},
    {"g": "c", "tie": 0.0, "v": None, "s": "x"},
    {"g": "c", "tie": 1.0, "v": 16.0, "s": "z"},
    {"g": "d", "tie": 0.0, "v": 17.0, "s": "x"},
    {"g": "d", "tie": 1.0, "v": NAN, "s": "x"},
    {"g": "d", "tie": 0.0, "v": 19.0, "s": ""},
    {"g": "d", "tie": 1.0, "v": 20.0, "s": "w"},
    {"g": "e", "tie": 0.0, "v": 21.0, "s": None},
    {"g": "e", "tie": 1.0, "v": -22.0, "s": "w"},
    {"g": "e", "tie": 0.0, "v": 23.0, "s": "w"},
]

CHUNK_SIZES = (1, 2, 3, 5, 7)

QUERIES = [
    "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM t GROUP BY g "
    "ORDER BY g",
    "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g ORDER BY g",
    "SELECT * FROM t ORDER BY tie, g",
    "SELECT DISTINCT s FROM t",
    "SELECT g, s FROM t WHERE v >= 5.0 ORDER BY g, s",
    "SELECT tie, COUNT(*) AS n FROM t GROUP BY tie ORDER BY tie",
]


def bits(column):
    """(data bit pattern, valid bit pattern) — the byte-identical check;
    float64 NaN payloads and signed zeros survive a uint64 view."""
    data = column.data
    if data.dtype == np.float64:
        data = data.view(np.uint64)
    return data.tobytes(), column.valid.tobytes()


def assert_tables_bit_identical(a, b, context=""):
    assert list(a.columns) == list(b.columns), context
    assert a.num_rows == b.num_rows, context
    for name in a.columns:
        ca, cb = a.columns[name], b.columns[name]
        assert ca.type == cb.type, (context, name)
        if ca.type == SQLType.VARCHAR:
            assert ca.to_list() == cb.to_list(), (context, name)
            assert ca.valid.tobytes() == cb.valid.tobytes(), (context, name)
        else:
            assert bits(ca) == bits(cb), (context, name)


class TestChunkedStorageEquivalence:
    def test_rechunk_consolidates_bit_identically(self):
        base = Table.from_rows(ADVERSARIAL_ROWS)
        for size in CHUNK_SIZES:
            chunked = base.rechunk(size)
            assert chunked.is_chunked
            assert_tables_bit_identical(
                base, chunked, "chunk_rows={}".format(size))

    @pytest.mark.parametrize("size", CHUNK_SIZES)
    def test_slices_match_contiguous_everywhere(self, size):
        base = Table.from_rows(ADVERSARIAL_ROWS)
        chunked = base.rechunk(size)
        n = base.num_rows
        for lo in range(0, n + 1, 3):
            for hi in range(lo, n + 1, 4):
                assert_tables_bit_identical(
                    base.slice(lo, hi), chunked.slice(lo, hi),
                    "[{}:{}] chunk_rows={}".format(lo, hi, size))

    def test_empty_and_one_row_chunks(self):
        empty = ArrayChunk(np.zeros(0), np.zeros(0, dtype=np.bool_))
        one = ArrayChunk(np.asarray([4.5]), np.asarray([True]))
        nul = ArrayChunk(np.asarray([0.0]), np.asarray([False]))
        column = Column.from_chunks(
            SQLType.DOUBLE, [empty, one, empty, nul, one, empty])
        assert column.to_list() == [4.5, None, 4.5]
        assert column.chunk_offsets() == [0, 0, 1, 1, 2, 3, 3]
        assert column.slice(0, 3).to_list() == [4.5, None, 4.5]
        assert column.slice(1, 2).to_list() == [None]
        pieces = [piece for _lo, _hi, piece in column.iter_chunks()]
        assert sum(len(p) for p in pieces) == 3

    def test_concat_preserves_chunks_and_bits(self):
        base = Table.from_rows(ADVERSARIAL_ROWS)
        parts = [base.slice(0, 9), base.slice(9, 10), base.slice(10, 10),
                 base.slice(10, 23)]
        glued = concat_batches(parts, chunked=True)
        assert glued.is_chunked
        assert_tables_bit_identical(base, glued, "concat")


class TestChunkedQueryEquivalence:
    """Every query, every chunk size, serial and parallel, must match
    the contiguous serial run row-for-row and bit-for-bit."""

    def _run(self, db, table, sql):
        db.load_table("t", table)
        return db.execute(sql)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_chunked_matches_contiguous(self, sql):
        base = Table.from_rows(ADVERSARIAL_ROWS)
        reference = self._run(Database(), base, sql)
        for size in CHUNK_SIZES:
            chunked = base.rechunk(size)
            for threads, morsel_rows in ((1, None), (2, size), (2, 3)):
                db = (Database() if threads == 1 else
                      Database(parallelism=threads,
                               morsel_rows=morsel_rows))
                result = self._run(db, chunked, sql)
                assert_tables_bit_identical(
                    reference, result,
                    "{} chunk_rows={} threads={}".format(
                        sql, size, threads))

    def test_aggregate_query_never_consolidates(self):
        base = Table.from_rows(ADVERSARIAL_ROWS).rechunk(5)
        db = Database(parallelism=2, morsel_rows=3)
        db.load_table("t", base)
        before = consolidation_count()
        db.execute(
            "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g")
        assert consolidation_count() == before


class TestMorselChunkAlignment:
    def test_no_morsel_spans_a_chunk_edge(self):
        table = Table.from_rows(ADVERSARIAL_ROWS).rechunk(5)
        frame = Frame.from_table(table)
        cuts = frame_chunk_cuts(frame)
        assert cuts is not None and cuts[0] == 0 \
            and cuts[-1] == table.num_rows
        # simulate the executor's bounds at several morsel sizes: each
        # morsel must sit inside one [cut, next_cut) interval
        for step in (1, 2, 3, 4, 7, 100):
            bounds = []
            for chunk_lo, chunk_hi in zip(cuts, cuts[1:]):
                for lo in range(chunk_lo, chunk_hi, step):
                    bounds.append((lo, min(lo + step, chunk_hi)))
            assert bounds[0][0] == 0 and bounds[-1][1] == table.num_rows
            for lo, hi in bounds:
                assert any(c_lo <= lo and hi <= c_hi
                           for c_lo, c_hi in zip(cuts, cuts[1:])), \
                    (step, lo, hi, cuts)

    def test_mixed_chunk_layouts_union_their_cuts(self):
        a = Column.from_values([1.0] * 12).rechunk(5)
        b = Column.from_values([2.0] * 12).rechunk(4)
        batch = ColumnBatch()
        batch.add_column("a", a)
        batch.add_column("b", b)
        frame = Frame.from_table(batch)
        assert frame_chunk_cuts(frame) == [0, 4, 5, 8, 10, 12]


class TestMemmapSurvival:
    def _spill_table(self, store):
        table = Table.from_rows(ADVERSARIAL_ROWS)
        return store.spill_batch(table.rechunk(5))

    def test_release_then_reread_is_lossless(self, tmp_path):
        with SpillStore(directory=str(tmp_path)) as store:
            base = Table.from_rows(ADVERSARIAL_ROWS)
            spilled = self._spill_table(store)
            assert_tables_bit_identical(base, spilled, "spilled")
            for column in spilled.columns.values():
                column.release(0, spilled.num_rows)
            store.release_all()
            # released pages re-fault from the spill files on demand
            assert_tables_bit_identical(base, spilled, "re-read")

    def test_memmap_cube_survives_cache_eviction_rebuild(self, tmp_path):
        from repro.core.session import VegaPlus

        rng = np.random.default_rng(11)
        rows = [
            {"distance": 25.0 * float(rng.integers(0, 41)),
             "dep_delay": (None if rng.random() < 0.1
                           else float(rng.integers(-10, 51))),
             "carrier": ["AA", "BB", "CC"][int(rng.integers(0, 3))]}
            for _ in range(300)
        ]
        spec = {
            "signals": [
                {"name": "lo", "value": 0.0,
                 "bind": {"input": "range", "min": 0, "max": 1000}},
                {"name": "hi", "value": 1000.0,
                 "bind": {"input": "range", "min": 0, "max": 1000}},
            ],
            "data": [
                {"name": "t", "url": "synthetic://t"},
                {"name": "view", "source": "t", "transform": [
                    {"type": "filter",
                     "expr": "datum.distance >= lo && datum.distance < hi"},
                    {"type": "aggregate", "groupby": ["carrier"],
                     "ops": ["count"], "fields": [None], "as": ["cnt"]},
                ]},
            ],
            "marks": [{"type": "rect", "from": {"data": "view"},
                       "encode": {"update": {"x": {"field": "carrier"},
                                             "y": {"field": "cnt"}}}}],
        }
        with SpillStore(directory=str(tmp_path)) as store:
            memmap_table = store.spill_batch(Table.from_rows(rows))
            assert any(c.backing is not None or c.is_chunked
                       for c in memmap_table.columns.values())
            session = VegaPlus(
                spec, data={"t": memmap_table}, latency_ms=0.0,
                bandwidth_mbps=100000.0, tiles="force")
            session.startup()
            session.interact("lo", 250.0)
            assert session.tiles.builds == 1
            first = canonical(session)

            # evict the cube (and release the source pages under it),
            # then brush again: the rebuild reads back through the memmap
            session.cache.clear()
            store.release_all()
            session.interact("lo", 500.0)
            session.interact("lo", 250.0)
            assert session.tiles.evicted_rebuilds >= 1
            assert session.tiles.builds >= 2
            assert canonical(session) == first


class TestOutOfCoreSweep:
    def test_two_million_rows_stay_out_of_core(self, tmp_path):
        """``python -m repro.perf.scale_sweep`` at 2 M rows, the smallest
        scale at which fixed overhead no longer dominates the dataset:
        no query consolidates a chunked column, and net peak RSS stays
        under half the dataset's size on disk (it reads about 0.4)."""
        rows = 2_000_000
        out = tmp_path / "sweep.json"
        subprocess.run(
            [sys.executable, "-m", "repro.perf.scale_sweep",
             "--rows", str(rows), "--threads", "2", "--out", str(out)],
            check=True, capture_output=True, timeout=300)
        record = json.loads(out.read_text())["scales"][str(rows)]
        assert record["query_consolidations"] == 0
        assert record["net_rss_over_disk"] < 0.5


def canonical(session):
    rows = session._sink_state("view").rows
    return sorted((row["carrier"], row["cnt"]) for row in rows)
