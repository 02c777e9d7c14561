"""Cost-model calibration: measure the substrates, don't guess.

The optimizer's constants (client/server per-row cost, query overhead)
default to values measured on this codebase, but hardware varies.
``calibrate()`` runs short micro-benchmarks against the actual client
dataflow and the actual backend and returns fitted
:class:`~repro.planner.costmodel.CostParameters` — the "estimated data
sizes and current network latencies" inputs of §2.2, made empirical.
"""

import time

from repro.datagen import generate_flights
from repro.dataflow.transforms import create_transform
from repro.planner.costmodel import CostParameters
from repro.sqlgen import compose_pipeline, merge_query

_CALIBRATION_STEPS = [
    ("filter", {"expr": "datum.dep_delay > 10"}),
    ("bin", {"field": "dep_delay", "extent": [-30, 600], "maxbins": 20}),
    ("aggregate", {"groupby": ["bin0", "bin1"], "ops": ["count"],
                   "as": ["count"]}),
]


def measure_client_row_cost(num_rows=20_000, repeats=3):
    """Seconds per row per (unit-weight) step in the client dataflow."""
    rows = generate_flights(num_rows, as_rows=True)
    best = float("inf")
    for _ in range(repeats):
        current = rows
        start = time.perf_counter()
        for spec_type, params in _CALIBRATION_STEPS:
            transform = create_transform(spec_type, "cal", params, None)
            current = transform.transform(current, params, {})
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    # Approximate rows processed: n + n_filtered + n_filtered.
    processed = num_rows * 2.2
    return best / processed


def measure_server_costs(backend=None, num_rows=100_000, repeats=3):
    """(seconds per row per step, fixed per-query overhead) on a backend."""
    from repro.backends import EmbeddedBackend

    if backend is None:
        backend = EmbeddedBackend()
    table = generate_flights(num_rows)
    backend.load_table("__cal", table)
    sql = merge_query(
        compose_pipeline("__cal", table.column_names, _CALIBRATION_STEPS)
    ).to_sql()

    best = float("inf")
    for _ in range(repeats):
        best = min(best, backend.execute(sql).seconds)

    tiny_sql = "SELECT COUNT(*) AS n FROM __cal WHERE 1 > 2"
    overhead = float("inf")
    for _ in range(repeats):
        overhead = min(overhead, backend.execute(tiny_sql).seconds)

    per_row = max(best - overhead, 1e-9) / (num_rows * 2.2)
    return per_row, overhead


def calibrate(backend=None, client_rows=20_000, server_rows=100_000):
    """Measure both substrates and return fitted CostParameters."""
    client_cost = measure_client_row_cost(client_rows)
    server_cost, overhead = measure_server_costs(backend, server_rows)
    defaults = CostParameters()
    return CostParameters(
        client_row_cost=client_cost,
        server_row_cost=server_cost,
        server_query_overhead=max(overhead, 1e-4),
        client_op_overhead=defaults.client_op_overhead,
        render_row_cost=defaults.render_row_cost,
    )


def refit_from_report(report, base_params=None):
    """Rescale cost constants from a telemetry misprediction report.

    ``report`` is a :class:`repro.telemetry.MispredictionReport` (or any
    object with ``median_ratio(kind)`` returning measured/predicted, kind
    in ``"client-op"``/``"server-segment"``; duck-typed to keep this
    module free of a telemetry import).  Where the micro-benchmarks of
    :func:`calibrate` measure substrates in isolation, this closes the
    loop on a *real session*: if client steps ran 3x slower than
    predicted, the client per-row cost triples.  Kinds with no audit
    entries keep their base value.

    The parallel fields always carry over from ``base_params`` — a refit
    must not silently demote a parallel deployment back to serial
    costing.
    """
    params = base_params or CostParameters()

    def scaled(value, kind):
        ratio = report.median_ratio(kind)
        if ratio is None or ratio <= 0:
            return value
        return value * ratio

    return CostParameters(
        client_row_cost=scaled(params.client_row_cost, "client-op"),
        server_row_cost=scaled(params.server_row_cost, "server-segment"),
        server_query_overhead=params.server_query_overhead,
        client_op_overhead=params.client_op_overhead,
        render_row_cost=params.render_row_cost,
        client_slowdown=params.client_slowdown,
        server_workers=params.server_workers,
        parallel_efficiency=params.parallel_efficiency,
        # Tile costing refits from measured slice times when the audit
        # carries them; the remaining tile fields always carry over so a
        # refit never silently changes the tile-vs-requery policy.
        tile_cell_cost=scaled(params.tile_cell_cost, "tile-slice"),
        tile_slice_overhead=params.tile_slice_overhead,
        tile_build_factor=params.tile_build_factor,
        tile_predicted_events=params.tile_predicted_events,
    )
