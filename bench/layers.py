"""Layer boundaries and the per-layer metrics derived from their spans.

Every boundary is a public callable of the program, wrapped from outside
by ``recorder.py``.  Each boundary's *self* time goes to exactly one
per-event ``_ms`` metric, so those metrics add up to the measured event
wall (``trace.coverage_share``); ``core.session.self_ms`` is the residual
and also takes the bookkeeping an append does inline (table reload, stats,
re-plan, tile patch), whose inclusive per-call costs are reported as their
own metrics.
"""

from recorder import Boundary, self_seconds

SESSION = "core.session.self_ms"


def _rows_in(args, kwargs, result):
    data = args[3] if len(args) > 3 else kwargs.get("input_data")
    rows = getattr(data, "num_rows", None)
    return rows if rows is not None else len(data)


def _sql_and_rows(args, kwargs, result):
    sql = args[1] if len(args) > 1 else kwargs.get("sql")
    table = getattr(result, "table", None)
    return sql, (table.num_rows if table is not None else 0)


def _result(args, kwargs, result):
    return result


#: (boundary, metric that takes its self time, per-call metric or None)
_TABLE = [
    (Boundary("VegaPlus.interact", "repro.core.session:VegaPlus.interact",
              adopt=lambda a, k: ("session", id(a[0]))), SESSION, None),
    (Boundary("VegaPlus.append_data",
              "repro.core.session:VegaPlus.append_data"),
     SESSION, "core.append.ms"),
    (Boundary("VegaPlus.optimize", "repro.core.session:VegaPlus.optimize"),
     SESSION, "planner.optimize_ms"),
    (Boundary("compile_spec", "repro.compile:compile_spec"),
     SESSION, "compile.spec_ms"),
    (Boundary("compute_stats", "repro.engine:compute_stats"),
     SESSION, "engine.compute_stats_ms"),
    (Boundary("Backend.load_table", "repro.backends.base:Backend.load_table",
              subclasses=True), SESSION, "backends.load_ms"),
    (Boundary("TileIndexManager.on_append",
              "repro.tiles.manager:TileIndexManager.on_append"),
     SESSION, "tiles.delta_ms"),
    (Boundary("TileIndexManager.prewarm",
              "repro.tiles.manager:TileIndexManager.prewarm"),
     SESSION, "tiles.build_ms"),
    (Boundary("TileIndexManager.try_interact",
              "repro.tiles.manager:TileIndexManager.try_interact"),
     "tiles.try_ms", None),
    (Boundary("ServerSegmentRunner.run_segment",
              "repro.core.executors:ServerSegmentRunner.run_segment"),
     "core.segment.self_ms", None),
    (Boundary("ServerSegmentRunner.finalize_sql",
              "repro.core.executors:ServerSegmentRunner.finalize_sql"),
     "sqlgen.finalize_ms", None),
    (Boundary("SqlPipelineBuilder.add_step",
              "repro.sqlgen.compose:SqlPipelineBuilder.add_step"),
     "sqlgen.compose_ms", None),
    (Boundary("SqlPipelineBuilder.value_query",
              "repro.sqlgen.compose:SqlPipelineBuilder.value_query"),
     "sqlgen.compose_ms", None),
    (Boundary("SqlPipelineBuilder.query",
              "repro.sqlgen.compose:SqlPipelineBuilder.query"),
     "sqlgen.compose_ms", None),
    (Boundary("ResultCache.get", "repro.core.cache:ResultCache.get"),
     "core.cache.lookup_ms", None),
    (Boundary("ResultCache.put", "repro.core.cache:ResultCache.put"),
     "core.cache.lookup_ms", None),
    (Boundary("ResultCache.clear", "repro.core.cache:ResultCache.clear"),
     "core.cache.lookup_ms", None),
    (Boundary("Backend.execute", "repro.backends.base:Backend.execute",
              subclasses=True, capture=_sql_and_rows),
     "backends.execute_ms", None),
    (Boundary("Database.execute", "repro.engine.database:Database.execute"),
     "engine.execute_ms", None),
    (Boundary("wire_bytes", "repro.net.payload:wire_bytes", capture=_result),
     "net.wire_encode_ms", None),
    (Boundary("request_bytes", "repro.net.payload:request_bytes",
              capture=_result), "net.wire_encode_ms", None),
    (Boundary("NetworkChannel.request",
              "repro.net.channel:NetworkChannel.request", capture=_result),
     "net.wire_encode_ms", None),
    (Boundary("ClientSuffixRunner.run_suffix",
              "repro.core.executors:ClientSuffixRunner.run_suffix",
              capture=_rows_in), "dataflow.suffix_ms", None),
    (Boundary("AdmissionController.admit",
              "repro.serve.admission:AdmissionController.admit",
              adopt=lambda a, k: ("tenant", a[1])), "serve.admit_ms", None),
    (Boundary("SessionPool.acquire", "repro.serve.pool:SessionPool.acquire",
              adopt=lambda a, k: ("tenant", a[2]),
              publish=lambda a, k, result: ("session", id(result))),
     "serve.pool_acquire_ms", None),
]

BOUNDARIES = [row[0] for row in _TABLE]
SELF_METRIC = {row[0].name: row[1] for row in _TABLE}
PER_CALL_METRIC = {row[0].name: row[2] for row in _TABLE if row[2]}


def metrics_of(boundaries):
    """The metrics that cannot be measured without ``boundaries``."""
    names = {SELF_METRIC[name] for name in boundaries}
    names.update(PER_CALL_METRIC[name] for name in boundaries
                 if name in PER_CALL_METRIC)
    return sorted(names)


#: the metrics that add up to the event wall (serve_hist adds its own two)
SELF_METRICS = sorted(set(SELF_METRIC.values())
                      | {"serve.http_overhead_ms", "serve.interact_ms"})

#: every per-layer metric: name -> (unit, better)
PER_LAYER = {
    "core.session.self_ms": ("ms", "lower"),
    "core.segment.self_ms": ("ms", "lower"),
    "core.cache.lookup_ms": ("ms", "lower"),
    "core.cache.hit_share": ("share", "higher"),
    "core.cache.evictions": ("count", "lower"),
    "core.cache.resident_mb": ("MB", "lower"),
    "core.append.ms": ("ms", "lower"),
    "sqlgen.compose_ms": ("ms", "lower"),
    "sqlgen.finalize_ms": ("ms", "lower"),
    "sqlgen.queries_per_event": ("count", "lower"),
    "engine.execute_ms": ("ms", "lower"),
    "engine.queries_per_event": ("count", "lower"),
    "engine.rows_scanned_per_event": ("rows", "lower"),
    "engine.scan_rows_per_s": ("rows/s", "higher"),
    "engine.rows_scanned_per_row_out": ("ratio", "lower"),
    "engine.compute_stats_ms": ("ms", "lower"),
    "backends.execute_ms": ("ms", "lower"),
    "backends.load_ms": ("ms", "lower"),
    "net.wire_encode_ms": ("ms", "lower"),
    "net.virtual_ms": ("ms", "lower"),
    "net.wire_kb_per_event": ("kB", "lower"),
    "net.round_trips_per_event": ("count", "lower"),
    "dataflow.suffix_ms": ("ms", "lower"),
    "dataflow.rows_in_per_event": ("rows", "lower"),
    "dataflow.rows_per_s": ("rows/s", "higher"),
    "tiles.try_ms": ("ms", "lower"),
    "tiles.hit_share": ("share", "higher"),
    "tiles.build_ms": ("ms", "lower"),
    "tiles.delta_ms": ("ms", "lower"),
    "tiles.resident_kb": ("kB", "lower"),
    "compile.spec_ms": ("ms", "lower"),
    "planner.optimize_ms": ("ms", "lower"),
    "planner.optimize_calls": ("count", "lower"),
    "data.disk_mb": ("MB", "lower"),
    "data.consolidations": ("count", "lower"),
    "datagen.rows_per_s": ("rows/s", "higher"),
    "serve.http_overhead_ms": ("ms", "lower"),
    "serve.admit_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.pool_acquire_ms": ("ms", "lower"),
    "serve.interact_ms": ("ms", "lower"),
    "serve.rejected_share": ("share", "lower"),
    "serve.unaccounted": ("count", "lower"),
    "metrics.overhead_share": ("share", "lower"),
    "trace.overhead_share": ("share", "lower"),
    "trace.recorder_share": ("share", "lower"),
    "trace.coverage_share": ("share", "higher"),
    "host.memcpy_gb_per_s": ("GB/s", "higher"),
    "host.numpy_ref_ms": ("ms", "lower"),
    "host.nproc": ("count", "higher"),
}

UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}

#: how many distinct queries of the timed phase are re-run under
#: EXPLAIN ANALYZE to count the rows their scans read
SCAN_SAMPLE = 8


def span_metrics(spans, events):
    """The span-derived metrics of one traced pass.

    ``spans`` is everything the recorder kept (set-up and timed phase);
    a span belongs to the timed phase when it carries an event id.
    ``events`` is the number of timed events.
    """
    selfs = self_seconds(spans)
    timed = [s for s in spans if s.event is not None and s.name != "event"]
    out = {name: 0.0 for name in set(SELF_METRIC.values())}
    for span in timed:
        out[SELF_METRIC[span.name]] += selfs[id(span)]
    for name in out:
        out[name] = out[name] * 1000.0 / events

    for boundary, metric in PER_CALL_METRIC.items():
        calls = [s.seconds for s in spans if s.name == boundary]
        out[metric] = 1000.0 * sum(calls) / len(calls) if calls else 0.0

    def count(name):
        return sum(1 for s in timed if s.name == name)

    out["sqlgen.queries_per_event"] = \
        count("ServerSegmentRunner.finalize_sql") / events
    out["engine.queries_per_event"] = count("Database.execute") / events
    out["planner.optimize_calls"] = float(count("VegaPlus.optimize"))
    trips = [s.value for s in timed if s.name == "NetworkChannel.request"
             and s.value is not None]
    out["net.round_trips_per_event"] = len(trips) / events
    out["net.virtual_ms"] = 1000.0 * sum(trips) / events
    out["net.wire_kb_per_event"] = sum(
        s.value for s in timed if s.name in ("wire_bytes", "request_bytes")
        and s.value is not None) / 1024.0 / events
    suffixes = [s for s in timed if s.name == "ClientSuffixRunner.run_suffix"]
    rows_in = sum(s.value or 0 for s in suffixes)
    busy = sum(s.seconds for s in suffixes)
    out["dataflow.rows_in_per_event"] = rows_in / events
    out["dataflow.rows_per_s"] = rows_in / busy if busy > 0 else 0.0
    return out


def scan_metrics(backend, spans, events, engine_ms_per_event):
    """Rows examined per result returned: re-run a sample of the timed
    phase's distinct queries under the backend's EXPLAIN ANALYZE (after
    the timed phase, so nothing measured is disturbed) and sum what the
    scan nodes read."""
    executed = [s.value for s in spans
                if s.event is not None and s.name == "Backend.execute"
                and s.value is not None]
    zero = {"engine.rows_scanned_per_event": 0.0,
            "engine.scan_rows_per_s": 0.0,
            "engine.rows_scanned_per_row_out": 0.0}
    if not executed:
        return zero
    distinct = list(dict.fromkeys(sql for sql, _ in executed))
    stride = max(len(distinct) // SCAN_SAMPLE, 1)
    scanned = rows_out = 0
    sample = distinct[::stride][:SCAN_SAMPLE]
    for sql in sample:
        table, nodes = backend.explain_analyze_data(sql)
        scanned += sum(node["rows_in"] for node in nodes
                       if node["label"].startswith("Scan"))
        rows_out += table.num_rows
    per_query = scanned / len(sample)
    per_event = per_query * len(executed) / events
    seconds = engine_ms_per_event / 1000.0
    return {
        "engine.rows_scanned_per_event": per_event,
        "engine.scan_rows_per_s": per_event / seconds if seconds > 0 else 0.0,
        "engine.rows_scanned_per_row_out":
            scanned / rows_out if rows_out else 0.0,
    }


def counter_metrics(delta, after, sink_events):
    """Metrics from the counters the program's objects already expose:
    their change over the traced blocks and their last values.
    ``sink_events`` is how many (event, sink) pairs could have been
    answered by a tile."""
    lookups = delta["cache_hits"] + delta["cache_misses"]
    return {
        "core.cache.hit_share":
            delta["cache_hits"] / lookups if lookups else 0.0,
        "core.cache.evictions": float(delta["cache_evictions"]),
        "core.cache.resident_mb": after["cache_bytes"] / 1e6,
        "tiles.hit_share":
            delta["tile_hits"] / sink_events if sink_events else 0.0,
        "tiles.resident_kb": after["tile_bytes"] / 1024.0,
    }


def coverage(metrics, mean_wall_ms):
    return sum(metrics.get(name, 0.0) for name in SELF_METRICS) / mean_wall_ms
