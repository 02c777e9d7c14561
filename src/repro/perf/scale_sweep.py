"""The 1M/10M/100M out-of-core scale sweep over the log workload.

Each scale runs in its **own subprocess** because ``ru_maxrss`` is a
lifetime high-water mark: measuring three scales in one process would
attribute the 100M peak to every row count.  The child generates the
dataset straight onto disk through a :class:`~repro.data.SpillStore`,
runs the dashboard-shaped queries with the chunk-aligned morsel
executor (which releases each morsel's pages as it streams), and
reports rows/s, peak RSS, on-disk bytes, and the consolidation counter
— which must stay at zero during the query phase, proving no layer
silently flattened a column.

CLI::

    python -m repro.perf.scale_sweep --scales 1000000,10000000,100000000
    python -m repro.perf.scale_sweep --child --rows 1000000   # one scale

The parent prints one JSON document (``--out`` writes it to a file):
per scale, the child's record.  ``tests/test_chunked.py`` runs it at
2M rows and asserts zero query consolidations and net RSS under half
the on-disk size.
"""

import argparse
import json
import os
import subprocess
import sys
import time

QUERIES = {
    "severity_breakdown": (
        "SELECT severity, COUNT(*) AS events, AVG(latency_ms) AS avg_ms "
        "FROM logs GROUP BY severity ORDER BY events DESC"
    ),
    "error_sources_topk": (
        "SELECT source, COUNT(*) AS errors FROM logs "
        "WHERE status >= 500 GROUP BY source ORDER BY errors DESC LIMIT 5"
    ),
    "minutely_volume": (
        "SELECT FLOOR(ts / 60.0) AS minute, COUNT(*) AS events, "
        "MAX(latency_ms) AS worst_ms "
        "FROM logs GROUP BY minute ORDER BY minute"
    ),
}

DEFAULT_SCALES = (1_000_000, 10_000_000, 100_000_000)


def run_scale(rows, chunk_rows=None, threads=2, morsel_rows=None,
              spill_dir=None, seed=7):
    """Generate + query one scale in-process and return its record.

    Meant to run in a fresh subprocess (see module docstring); calling
    it directly is fine for tests but taints this process' peak RSS.
    """
    from repro.data import SpillStore
    from repro.data.chunked import consolidation_count
    from repro.datagen.logs import generate_logs
    from repro.engine.database import Database
    from repro.metrics import get_registry, update_process_gauges

    rows = int(rows)
    if chunk_rows is None:
        # Keep generation temporaries proportional at reduced scales: a
        # full default chunk (1M rows) of scratch arrays would dwarf a
        # small dataset and poison the net-RSS/disk criterion.
        chunk_rows = max(min(1 << 20, rows // 16), 4096)
    record = {"rows": rows, "chunk_rows": int(chunk_rows)}
    # Interpreter + library floor, measured before any data exists: the
    # honest out-of-core criterion is (peak - floor) / disk, which stays
    # scale-independent where raw peak RSS is dominated by the ~50MB
    # interpreter at small row counts.
    record["rss_before_bytes"] = update_process_gauges(get_registry())
    with SpillStore(directory=spill_dir, chunk_rows=chunk_rows) as store:
        start = time.perf_counter()
        table = generate_logs(rows, seed=seed, store=store)
        gen_seconds = time.perf_counter() - start
        record["generate"] = {
            "seconds": gen_seconds,
            "rows_per_s": rows / max(gen_seconds, 1e-9),
        }
        record["disk_bytes"] = store.bytes_on_disk()
        store.release_all()

        if morsel_rows is None:
            # Keep the chunk-aligned morsel path engaged at reduced CI
            # scales too (an input below one morsel runs the serial,
            # consolidating path); at full scale this is the default.
            morsel_rows = max(min(65536, rows // 8), 1)
        db = Database(parallelism=threads, morsel_rows=morsel_rows)
        db.load_table("logs", table)
        before = consolidation_count()
        record["queries"] = {}
        for name, sql in QUERIES.items():
            start = time.perf_counter()
            result = db.execute(sql)
            seconds = time.perf_counter() - start
            record["queries"][name] = {
                "seconds": seconds,
                "rows_per_s": rows / max(seconds, 1e-9),
                "output_rows": result.num_rows,
            }
            store.release_all()
        record["query_consolidations"] = consolidation_count() - before

    record["peak_rss_bytes"] = update_process_gauges(get_registry())
    record["rss_over_disk"] = (
        record["peak_rss_bytes"] / record["disk_bytes"]
        if record["disk_bytes"] else None
    )
    net = record["peak_rss_bytes"] - record["rss_before_bytes"]
    record["net_rss_bytes"] = net
    record["net_rss_over_disk"] = (
        net / record["disk_bytes"] if record["disk_bytes"] else None
    )
    return record


def _child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p and p != src]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_scale_subprocess(rows, chunk_rows=None, threads=2,
                         morsel_rows=None, seed=7, timeout=None):
    """One scale in a fresh interpreter; returns its parsed record."""
    command = [
        sys.executable, "-m", "repro.perf.scale_sweep", "--child",
        "--rows", str(int(rows)), "--threads", str(int(threads)),
        "--seed", str(int(seed)),
    ]
    if chunk_rows is not None:
        command += ["--chunk-rows", str(int(chunk_rows))]
    if morsel_rows is not None:
        command += ["--morsel-rows", str(int(morsel_rows))]
    out = subprocess.run(
        command, capture_output=True, text=True, timeout=timeout,
        env=_child_env(),
    )
    if out.returncode != 0:
        raise RuntimeError(
            "scale {} child failed:\n{}".format(rows, out.stderr[-4000:])
        )
    return json.loads(out.stdout)


def sweep(scales=DEFAULT_SCALES, chunk_rows=None, threads=2,
          morsel_rows=None, seed=7, timeout=None, progress=None):
    """Run every scale in its own subprocess; returns the sweep payload."""
    results = {}
    for rows in scales:
        if progress is not None:
            progress("running {:,} rows".format(int(rows)))
        results[str(int(rows))] = run_scale_subprocess(
            rows, chunk_rows=chunk_rows, threads=threads,
            morsel_rows=morsel_rows, seed=seed, timeout=timeout,
        )
    return {
        "scales": results,
        "threads": int(threads),
        "queries": dict(QUERIES),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="out-of-core log-analytics scale sweep"
    )
    parser.add_argument("--child", action="store_true",
                        help="run one scale in-process (internal)")
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--scales", type=str, default=None,
                        help="comma-separated row counts")
    parser.add_argument("--chunk-rows", type=int, default=None)
    parser.add_argument("--morsel-rows", type=int, default=None)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=str, default=None,
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)

    if args.child:
        if args.rows is None:
            parser.error("--child requires --rows")
        record = run_scale(
            args.rows, chunk_rows=args.chunk_rows, threads=args.threads,
            morsel_rows=args.morsel_rows, seed=args.seed,
        )
        json.dump(record, sys.stdout)
        sys.stdout.write("\n")
        return 0

    if args.scales:
        scales = [int(part) for part in args.scales.split(",") if part]
    elif args.rows:
        scales = [args.rows]
    else:
        scales = list(DEFAULT_SCALES)
    payload = sweep(
        scales, chunk_rows=args.chunk_rows, threads=args.threads,
        morsel_rows=args.morsel_rows, seed=args.seed,
        progress=lambda message: print(message, file=sys.stderr),
    )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
