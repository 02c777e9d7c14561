"""E10 — morsel-driven execution in the embedded engine at 1, 2, 4 workers.

Two server-heavy query shapes on a 10M-row table (scaled by
``REPRO_BENCH_SCALE``), each run with 1, 2 and 4 workers:

* ``aggregate`` — scan -> filter -> grouped COUNT/SUM (the fused
  filter+partial-aggregate morsel pipeline with columnar merge);
* ``topn`` — ORDER BY + LIMIT (the per-morsel top-N candidate merge).

There is one executor (``repro.engine.executor``): the ``serial`` column
is that executor with one worker, which runs the same morsel tasks
inline on the calling thread, so ``speedup_vs_serial`` is what the extra
workers buy over the same kernels (about 1.2x on two cores) and nothing
else.  The record's key names (``serial``, ``speedup_vs_serial``,
``serial_fallbacks``) are kept because ``repro.metrics.regress`` reads
them.

Writes the machine-readable perf record ``BENCH_parallel.json`` (git
SHA, timestamp, per-configuration timings and rows/s) via the shared
writer in conftest.  A speedup that close to 1 cannot tell a node that
stopped splitting from noise, so CI's perf-smoke tripwire has two
halves:

* deterministic, at every worker count: no plan node of either query
  gathers its input instead of reducing it per morsel (no ``fallback``
  on any EXPLAIN ANALYZE node), the nodes that split run one task per
  morsel, and the 1-worker and 4-worker runs log the same number of
  morsel tasks per split node;
* the 4-worker aggregate is at least ``REPRO_BENCH_MIN_PARALLEL_SPEEDUP``
  times as fast as one worker (default 1.0: submitting the tasks to a
  pool must cost less than the workers gain).
"""

import os
import time

import numpy as np
import pytest

from conftest import print_header, print_rows, scaled, write_bench_record

from repro.engine import Database, Table

ROWS = 10_000_000
WORKER_COUNTS = (1, 2, 4)
REPEATS = 5

#: the query whose 4-worker speedup the tripwire enforces
TRIPWIRE_QUERY = "aggregate"

#: floor for the other shapes.  Only the per-morsel selection of top-N
#: runs as morsel tasks (under half of the query; the composite key, the
#: concatenation of the projected morsels and the gather do not), so on
#: two cores its 4-worker ratio reads 0.89-1.02 at the CI scale (2 M
#: rows, 15 ms a query) and 1.03-1.08 at full scale (CHANGES.md, PR 15,
#: lists the runs).  A floor of 1.0 sits inside that noise; 0.8 is
#: outside it and bounds what handing the tasks to a pool may cost (the
#: same 0.8 as the ``parallel`` rules of ``repro.metrics.regress``).
POOL_OVERHEAD_FLOOR = 0.8

QUERIES = {
    "aggregate": (
        'SELECT "key", COUNT(*) AS c, SUM("v") AS s FROM "t" '
        'WHERE "v" > -1.0 GROUP BY "key"'
    ),
    "topn": 'SELECT * FROM "t" ORDER BY "v" LIMIT 100',
}


def build_table(num_rows):
    rng = np.random.default_rng(10)
    return Table.from_columns(
        key=rng.integers(0, 128, num_rows).astype(np.float64),
        v=rng.normal(size=num_rows),
    )


def best_seconds(databases, sql, repeats=REPEATS):
    """Best-of-N wall time per worker count.  The worker counts take
    turns inside every round, so a slow spell of the machine lands on all
    of them and the ratios between them stay put; the best of the rounds
    insulates each timing from scheduler noise."""
    best = {}
    for _ in range(repeats):
        for workers, db in databases.items():
            start = time.perf_counter()
            db.execute(sql)
            elapsed = time.perf_counter() - start
            best[workers] = min(elapsed, best.get(workers, elapsed))
    return best


def worker_label(workers):
    return "serial" if workers == 1 else "workers{}".format(workers)


def morsel_report(db, sql):
    """``(fallback reasons, morsel tasks per split node)`` of one
    analyzed execution of ``sql``; the second is a list of
    ``(node label, tasks)`` in plan order."""
    _, nodes = db.explain_analyze_data(sql)
    fallbacks = [node["fallback"] for node in nodes if "fallback" in node]
    tasks = [(node["label"], len(node["morsels"]))
             for node in nodes if node.get("morsels")]
    return fallbacks, tasks


def test_e10_parallel_execution(benchmark):
    num_rows = scaled(ROWS)
    table = build_table(num_rows)

    databases = {}
    for workers in WORKER_COUNTS:
        db = Database(parallelism=workers)
        db.load_table("t", table)
        databases[workers] = db

    results = {"rows": num_rows, "queries": {}}
    display = []
    reference = {}
    for name, sql in QUERIES.items():
        timings = {}
        throughput = {}
        rows_out = None
        best = best_seconds(databases, sql)
        for workers in WORKER_COUNTS:
            seconds = best[workers]
            label = worker_label(workers)
            timings[label] = seconds
            throughput[label] = {
                "rows_per_second": num_rows / max(seconds, 1e-9),
                "rows_per_second_per_worker": (
                    num_rows / max(seconds, 1e-9) / workers
                ),
            }
            out = databases[workers].execute(sql)
            if rows_out is None:
                rows_out = out.num_rows
                reference[name] = out.to_rows()
            else:
                assert out.num_rows == rows_out
        fallbacks = {}
        morsel_tasks = {}
        split_nodes = {}
        for workers in WORKER_COUNTS:
            label = worker_label(workers)
            reasons, split_nodes[label] = morsel_report(
                databases[workers], sql
            )
            fallbacks[label] = len(reasons)
            morsel_tasks[label] = sum(
                tasks for _, tasks in split_nodes[label]
            )
            assert not reasons, (
                "{} with {} workers gathered a node's input instead of "
                "reducing it per morsel: {}".format(name, workers, reasons)
            )
            assert morsel_tasks[label] >= (
                num_rows // databases[workers].morsel_rows
            ), "{} with {} workers ran {} morsel tasks over {} rows".format(
                name, workers, morsel_tasks[label], num_rows
            )
        assert split_nodes["serial"] == split_nodes["workers4"], (
            "{}: one worker and four split the plan differently: {} vs "
            "{}".format(name, split_nodes["serial"], split_nodes["workers4"])
        )
        serial = timings["serial"]
        speedup4 = serial / max(timings["workers4"], 1e-9)
        results["queries"][name] = {
            "sql": sql,
            "rows_out": rows_out,
            "seconds": timings,
            "throughput": throughput,
            "serial_fallbacks": fallbacks,
            "morsel_tasks": morsel_tasks,
            "speedup_vs_serial": {
                "workers2": serial / max(timings["workers2"], 1e-9),
                "workers4": speedup4,
            },
        }
        display.append([
            name, num_rows, rows_out,
            "{:.4f}".format(serial),
            "{:.4f}".format(timings["workers2"]),
            "{:.4f}".format(timings["workers4"]),
            "{:.2f}x".format(speedup4),
        ])

    # Fitted marginal worker utility at 4 workers on the tripwire query,
    # inverting speedup = 1 + (workers - 1) * efficiency.  Feeds the
    # cost model via calibrate.refit_from_report(parallel_speedup=...).
    tripwire_speedup = (
        results["queries"][TRIPWIRE_QUERY]["speedup_vs_serial"]["workers4"]
    )
    results["parallel_efficiency"] = (tripwire_speedup - 1.0) / 3.0

    print_header("E10: morsel-driven parallel execution (best of {})".format(
        REPEATS))
    print_rows(
        ["query", "rows", "out", "1w(s)", "2w(s)", "4w(s)", "speedup4"],
        display,
    )

    write_bench_record("parallel", results)

    # Equivalence spot check: four workers answer exactly what one does
    # (top-N) and within float merge tolerance (SUM).
    for name, sql in QUERIES.items():
        parallel_rows = databases[4].execute(sql).to_rows()
        assert len(parallel_rows) == len(reference[name])
        for serial_row, parallel_row in zip(reference[name], parallel_rows):
            for column, serial_value in serial_row.items():
                parallel_value = parallel_row[column]
                if isinstance(serial_value, float):
                    assert parallel_value == pytest.approx(
                        serial_value, rel=1e-9, abs=1e-9)
                else:
                    assert parallel_value == serial_value

    # The timing half of the tripwire (the deterministic half ran
    # above): handing the aggregate's morsel tasks to a pool must not
    # cost more than the workers gain — one worker runs the same tasks
    # inline, so nothing else separates the two.
    min_speedup = float(
        os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "1.0")
    )
    assert tripwire_speedup >= min_speedup, (
        "{}: 4-worker speedup {:.2f}x is below the {:.2f}x floor "
        "(serial {:.4f}s, workers4 {:.4f}s)".format(
            TRIPWIRE_QUERY, tripwire_speedup, min_speedup,
            results["queries"][TRIPWIRE_QUERY]["seconds"]["serial"],
            results["queries"][TRIPWIRE_QUERY]["seconds"]["workers4"],
        )
    )

    for name, entry in results["queries"].items():
        assert entry["speedup_vs_serial"]["workers4"] >= POOL_OVERHEAD_FLOOR, (
            "{}: four workers cost more than the pool may".format(name)
        )

    # The benchmark statistic: the 4-worker aggregate.
    benchmark.pedantic(
        lambda: databases[4].execute(QUERIES["aggregate"]),
        rounds=3, iterations=1,
    )
