"""Concurrency stress tests: many client threads on one shared Database.

The executor keeps all per-query state in a per-call run object and the
Database guards its query counter with a lock, so a single ``Database``
instance — the default one-worker one that ``repro.serve`` shares, and
``Database(parallelism=2)`` — must serve concurrent clients with (a)
every result identical to a single-threaded reference and (b) exact
telemetry counter totals — no lost updates, no cross-query bleed.
"""

import collections
import math
import sys
import threading

import numpy as np
import pytest

from repro.engine import Database, Table
from repro.telemetry import Tracer

CLIENT_THREADS = 8
ROUNDS = 5

QUERIES = [
    'SELECT "k", COUNT(*) AS n, SUM("v") AS s FROM "t" GROUP BY "k"',
    'SELECT * FROM "t" WHERE "v" > 0.0',
    'SELECT * FROM "t" ORDER BY "v" LIMIT 7',
    'SELECT COUNT(DISTINCT "k") AS dk FROM "t"',
]


def build_table(num_rows=2_000, seed=7):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        k=[float(value) for value in rng.integers(0, 16, num_rows)],
        v=[None if rng.integers(0, 10) == 0 else float(value)
           for value in rng.normal(size=num_rows)],
    )


def rows_match(expect_rows, got_rows):
    if len(expect_rows) != len(got_rows):
        return False
    for expect, got in zip(expect_rows, got_rows):
        for column, expect_value in expect.items():
            got_value = got[column]
            if isinstance(expect_value, float):
                if not (isinstance(got_value, float) and math.isclose(
                        got_value, expect_value,
                        rel_tol=1e-9, abs_tol=1e-12)):
                    return False
            elif got_value != expect_value:
                return False
    return True


def test_shared_database_under_concurrent_clients():
    table = build_table()

    reference_db = Database()
    reference_db.load_table("t", table)
    reference = {sql: reference_db.execute(sql).to_rows()
                 for sql in QUERIES}

    shared = Database(parallelism=2, morsel_rows=97)
    shared.load_table("t", table)

    failures = []
    barrier = threading.Barrier(CLIENT_THREADS)

    def client(worker_index):
        barrier.wait()  # maximize overlap
        for round_index in range(ROUNDS):
            sql = QUERIES[(worker_index + round_index) % len(QUERIES)]
            try:
                got = shared.execute(sql).to_rows()
            except Exception as error:  # pragma: no cover - failure path
                failures.append("client {} round {}: {!r}".format(
                    worker_index, round_index, error))
                continue
            if not rows_match(reference[sql], got):
                failures.append(
                    "client {} round {} diverged on {}".format(
                        worker_index, round_index, sql))

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, "\n".join(failures[:10])
    assert shared.queries_executed == CLIENT_THREADS * ROUNDS


def test_default_database_mixes_traced_and_plain_queries():
    """The default ``Database()`` under threads that mix EXPLAIN ANALYZE
    with plain execution: no query may fail, every answer equals the
    single-threaded one, and every analyzed plan carries exactly its own
    nodes and cardinalities (execution state is per call, never shared)."""
    shared = Database()
    shared.load_table("t", build_table(num_rows=500, seed=17))

    reference = {}
    for sql in QUERIES:
        table, nodes = shared.explain_analyze_data(sql)
        reference[sql] = (
            table.to_rows(),
            [(node["label"], node["rows_in"], node["rows_out"])
             for node in nodes],
        )

    clients = 4
    rounds = 150
    failures = []
    barrier = threading.Barrier(clients)

    def client(worker_index):
        traced = worker_index % 2 == 0
        barrier.wait(timeout=30)
        for round_index in range(rounds):
            sql = QUERIES[(worker_index + round_index) % len(QUERIES)]
            rows, shape = reference[sql]
            where = "client {} round {}".format(worker_index, round_index)
            try:
                if traced:
                    table, nodes = shared.explain_analyze_data(sql)
                    got_shape = [
                        (node.get("label"), node.get("rows_in"),
                         node.get("rows_out")) for node in nodes]
                    if got_shape != shape:
                        failures.append("{}: plan nodes bled: {}".format(
                            where, got_shape))
                else:
                    table = shared.execute(sql)
            except Exception as error:
                failures.append("{}: {!r}".format(where, error))
                continue
            if not rows_match(rows, table.to_rows()):
                failures.append("{} diverged on {}".format(where, sql))

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force switches inside the plan walk
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert not failures, "{} failures, first: {}".format(
        len(failures), failures[:5])
    assert shared.queries_executed == clients * rounds + len(QUERIES)


def test_shared_database_explain_analyze_concurrently():
    """Stats collection keeps per-call state too: concurrent
    EXPLAIN ANALYZE runs must not mix their per-node numbers."""
    table = build_table(num_rows=1_000, seed=11)
    shared = Database(parallelism=2, morsel_rows=101)
    shared.load_table("t", table)
    sql = 'SELECT "k", COUNT(*) AS n FROM "t" GROUP BY "k"'

    serial_db = Database()
    serial_db.load_table("t", table)
    expected_rows = serial_db.execute(sql).num_rows

    failures = []
    barrier = threading.Barrier(4)

    def client():
        barrier.wait()
        for _ in range(ROUNDS):
            result, nodes = shared.explain_analyze_data(sql)
            if result.num_rows != expected_rows:
                failures.append("wrong result cardinality")
            root = nodes[0]
            if root["rows_out"] != expected_rows:
                failures.append("stats bled across concurrent queries")

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:5]


def test_concurrent_columnar_queries_keep_morsel_logs_exact():
    """Concurrent columnar queries on one shared Database: every
    EXPLAIN ANALYZE run must carry its *own* complete morsel log —
    indices exactly ``range(count)``, rows_in summing to the node's
    input, workers within the pool — and grafting all runs into one
    tracer must land on exact ``engine:morsel`` span / per-worker totals.

    A reference single-threaded pass over the same Database fixes the
    expected morsel count per query; any cross-query run-state bleed
    (lost records, doubled records, mixed indices) breaks either the
    per-run invariants or the final span arithmetic.
    """
    from repro.core.executors import _graft_plan_nodes

    parallelism = 2
    table = build_table(num_rows=2_000, seed=13)
    shared = Database(parallelism=parallelism, morsel_rows=97)
    shared.load_table("t", table)

    columnar_queries = [
        'SELECT "k", COUNT(*) AS n, SUM("v") AS s FROM "t" GROUP BY "k"',
        'SELECT "k", "v" FROM "t" WHERE "v" > 0.0',
        'SELECT * FROM "t" ORDER BY "v" LIMIT 7',
    ]

    def morsel_count(nodes):
        return sum(len(node.get("morsels") or ()) for node in nodes)

    expected_per_query = {}
    for sql in columnar_queries:
        _, nodes = shared.explain_analyze_data(sql)
        expected_per_query[sql] = morsel_count(nodes)
        assert expected_per_query[sql] > 0, (
            "query must exercise the parallel path: {}".format(sql))
    warmup_queries = len(columnar_queries)

    failures = []
    collected = []
    collected_lock = threading.Lock()
    barrier = threading.Barrier(CLIENT_THREADS)

    def client(worker_index):
        barrier.wait()
        for round_index in range(ROUNDS):
            sql = columnar_queries[
                (worker_index + round_index) % len(columnar_queries)]
            _, nodes = shared.explain_analyze_data(sql)
            if morsel_count(nodes) != expected_per_query[sql]:
                failures.append(
                    "client {} round {}: {} morsels, expected {}".format(
                        worker_index, round_index, morsel_count(nodes),
                        expected_per_query[sql]))
            for node in nodes:
                morsels = node.get("morsels") or ()
                if not morsels:
                    continue
                if [m["index"] for m in morsels] != list(range(len(morsels))):
                    failures.append(
                        "client {} round {}: morsel indices bled".format(
                            worker_index, round_index))
                if sum(m["rows_in"] for m in morsels) != node["rows_in"]:
                    failures.append(
                        "client {} round {}: morsel rows_in bled".format(
                            worker_index, round_index))
                if any(not (0 <= m["worker"] < parallelism)
                       for m in morsels):
                    failures.append(
                        "client {} round {}: worker id out of pool".format(
                            worker_index, round_index))
            with collected_lock:
                collected.append((sql, nodes))

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, "\n".join(failures[:10])
    assert len(collected) == CLIENT_THREADS * ROUNDS
    assert shared.queries_executed == CLIENT_THREADS * ROUNDS + warmup_queries

    # Graft every run's nodes into one tracer: the morsel spans must be
    # the exact sum of the per-query expectations.
    tracer = Tracer()
    for _, nodes in collected:
        _graft_plan_nodes(tracer, nodes)
    expected_total = sum(expected_per_query[sql] for sql, _ in collected)
    morsel_spans = tracer.find_spans("engine:morsel")
    assert len(morsel_spans) == expected_total
    per_worker = collections.Counter(
        span.attributes["worker"] for span in morsel_spans)
    assert set(per_worker) <= set(range(parallelism))
    assert sum(per_worker.values()) == expected_total
    assert all(span.attributes["morsel_seconds"] >= 0.0
               for span in morsel_spans)


def test_metrics_registry_exact_under_contention():
    """Labeled counter increments and histogram observations from many
    threads must total exactly on the shared-lock registry — the same
    guarantee the tracer gives, but per label set."""
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    increments_per_thread = 2_000

    def hammer(worker_index):
        view = registry.view(session="s{}".format(worker_index))
        for step in range(increments_per_thread):
            view.inc("stress.ticks")
            registry.inc("stress.shared", kind="all")
            view.observe("stress.values", float(step))

    threads = [threading.Thread(target=hammer, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = CLIENT_THREADS * increments_per_thread
    assert registry.counter("stress.shared", kind="all").value == total
    per_session = registry.families()["stress.ticks"].children
    assert len(per_session) == CLIENT_THREADS
    for child in per_session.values():
        assert child.value == increments_per_thread
    expected_sum = float(sum(range(increments_per_thread)))
    for index in range(CLIENT_THREADS):
        histogram = registry.histogram(
            "stress.values", session="s{}".format(index))
        assert histogram.count == increments_per_thread
        assert histogram.total == pytest.approx(expected_sum)


def test_shared_result_cache_exact_accounting_under_contention():
    """Many threads hammering one ResultCache (the serving layer's
    cross-user cache) must keep *exact* accounting: hit/miss totals,
    resident bytes, and the mirrored ``cache.*`` metrics counters all
    match the deterministic per-thread arithmetic — no lost updates."""
    from repro.core.cache import CacheEntry, ResultCache
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cache = ResultCache(max_entries=10_000, max_bytes=1 << 40)
    cache.metrics = registry.view(session="shared")

    keys_per_thread = 50
    reads_per_key = 4
    entry_bytes = 1_000

    def client(worker_index):
        for key_index in range(keys_per_thread):
            key = "q{}:{}".format(worker_index, key_index)
            assert cache.get(key) is None  # one miss per key
            cache.put(key, CacheEntry(
                rows=[{"v": key_index}], wire_bytes=entry_bytes))
            for _ in range(reads_per_key):
                assert cache.get(key) is not None

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total_keys = CLIENT_THREADS * keys_per_thread
    assert cache.misses == total_keys
    assert cache.hits == total_keys * reads_per_key
    assert cache.evictions == 0
    assert len(cache) == total_keys
    assert cache.total_bytes == total_keys * entry_bytes
    # The mirrored metrics plane agrees exactly.
    assert registry.counter("cache.misses",
                            session="shared").value == total_keys
    assert registry.counter("cache.hits",
                            session="shared").value == \
        total_keys * reads_per_key
    assert registry.gauge("cache.bytes", session="shared").value == \
        total_keys * entry_bytes
    assert cache.stats()["bytes"] == total_keys * entry_bytes


def test_shared_result_cache_exact_eviction_accounting():
    """Concurrent puts past the entry budget: eviction and byte ledgers
    stay exact (every put evicts-or-resides, nothing double-counted)."""
    from repro.core.cache import CacheEntry, ResultCache

    max_entries = 16
    entry_bytes = 256
    puts_per_thread = 200
    cache = ResultCache(max_entries=max_entries, max_bytes=1 << 40)

    def client(worker_index):
        for put_index in range(puts_per_thread):
            key = "p{}:{}".format(worker_index, put_index)  # all unique
            cache.put(key, CacheEntry(rows=[], wire_bytes=entry_bytes))

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total_puts = CLIENT_THREADS * puts_per_thread
    assert len(cache) == max_entries
    assert cache.evictions == total_puts - max_entries
    assert cache.total_bytes == max_entries * entry_bytes
    assert cache.evicted_bytes == (total_puts - max_entries) * entry_bytes
    stats = cache.stats()
    assert stats["entries"] == max_entries
    assert stats["evictions"] == total_puts - max_entries


def test_concurrent_sessions_share_one_cache():
    """Two threads of sessions over one shared Database *and* one shared
    cache: every re-parameterized query computed by any session is a hit
    for every other, and the shared counters stay exact."""
    from repro import VegaPlus
    from repro.backends import create_backend
    from repro.core.cache import ResultCache
    from repro.datagen import generate_flights
    from repro.spec import flights_histogram_spec

    table = generate_flights(2_000)
    backend = create_backend("embedded")
    backend.load_table("flights", table)
    cache = ResultCache(max_entries=256)

    def build_session():
        return VegaPlus(
            flights_histogram_spec(),
            data={"flights": table},
            backend=backend,
            cache=cache,
            latency_ms=0.0,
            tiles=False,
            metrics=False,
        )

    warm = build_session()
    warm.startup()
    maxbins_values = list(range(10, 26))
    for value in maxbins_values:
        warm.interact("maxbins", value)
    hits_before = cache.hits
    misses_before = cache.misses

    failures = []
    barrier = threading.Barrier(4)

    def client(worker_index):
        barrier.wait()
        session = build_session()
        session.startup()
        for value in maxbins_values:
            result = session.interact("maxbins", value)
            if result.cache_misses:
                failures.append(
                    "worker {} missed on warmed maxbins={}".format(
                        worker_index, value))

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, "\n".join(failures[:5])
    # Every query any follower session ran was served from the shared
    # cache: the miss counter did not move.
    assert cache.misses == misses_before
    assert cache.hits > hits_before


def test_metrics_update_overhead_guard():
    """100k labeled metric updates must stay within a fixed budget —
    the always-on plane's analogue of the tracer's no-op span guard
    (tests/test_telemetry.py caps 100k disabled spans at 1.0s)."""
    import time as _time

    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    view = registry.view(session="s1", tenant="acme")
    counter = view.counter("overhead.ticks")
    histogram = view.histogram("overhead.seconds")

    start = _time.perf_counter()
    for step in range(50_000):
        counter.inc()
        histogram.observe(0.001)
    elapsed = _time.perf_counter() - start
    # 100k updates through pre-resolved handles; generous bound (the
    # loop is ~0.15s typical) matching the NOOP guard's slack factor.
    assert elapsed < 2.5, "100k metric updates took {:.3f}s".format(elapsed)

    # The name-resolving convenience path (lock + label merge + dict
    # lookups per call) must stay usable on per-query paths too.
    start = _time.perf_counter()
    for _ in range(10_000):
        view.inc("overhead.resolved", kind="rows")
    elapsed = _time.perf_counter() - start
    assert elapsed < 2.0, \
        "10k resolved metric updates took {:.3f}s".format(elapsed)
