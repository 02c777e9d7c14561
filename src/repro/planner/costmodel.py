"""Latency cost model for partition planning.

Charges per-row, per-step costs on each side plus network transfer at the
cut.  The client/server per-row constants are calibrated to this
reproduction's substrates (row-wise Python dataflow vs vectorized
columnar engine) — the same ~1-2 orders-of-magnitude gap as browser
JavaScript vs an analytical DBMS, which is what makes the paper's
crossover behaviour (§2.2: 4M/10M rows) reproducible at smaller scales.
"""

from dataclasses import dataclass

from repro.net.payload import request_bytes
from repro.planner.plans import CostBreakdown

# Default per-row per-step costs, in seconds.  Measured on this codebase:
# the Python dataflow spends ~1-3 us/row/op; the engine ~20-80 ns/row/op.
DEFAULT_CLIENT_ROW_COST = 1.5e-6
DEFAULT_SERVER_ROW_COST = 5.0e-8

# Fixed overheads: per server query (parse/plan/dispatch) and per client
# operator evaluation.
DEFAULT_SERVER_QUERY_OVERHEAD = 2.0e-3
DEFAULT_CLIENT_OP_OVERHEAD = 5.0e-5

# Rendering cost per row reaching the marks (encode + draw).
DEFAULT_RENDER_ROW_COST = 2.0e-6

# Marginal utility of each additional engine worker.  Morsel-driven
# scans are not perfectly scalable (merge steps, the serial grouping
# front half, pool handoff), so N workers buy roughly
# ``1 + (N - 1) * efficiency`` of one worker's throughput.
DEFAULT_PARALLEL_EFFICIENCY = 0.6

# Data-tile costing: answering a brush event from a materialized
# bin-aggregate cube costs a fixed overhead (membership evaluation,
# result assembly) plus a per-cell numpy reduction.
DEFAULT_TILE_CELL_COST = 2.0e-8
DEFAULT_TILE_SLICE_OVERHEAD = 5.0e-4
# Building the cube is roughly one re-query of the same pipeline, at a
# finer grouping granularity (the extra extent query and the wider
# GROUP BY), hence a factor > 1 over the per-event requery estimate.
DEFAULT_TILE_BUILD_FACTOR = 2.0
# How many brush events a built tile is expected to serve; the build
# cost amortizes over this horizon.  Refittable from replayed traces.
DEFAULT_TILE_PREDICTED_EVENTS = 40.0

# Steps that are heavier than a plain row pass (sorts, groupings).
_STEP_WEIGHT = {
    "aggregate": 2.5,
    "joinaggregate": 3.0,
    "window": 3.5,
    "stack": 2.5,
    "collect": 2.0,
    "pivot": 3.0,
    "bin": 1.2,
    "extent": 0.6,
    "filter": 1.0,
    "formula": 1.2,
    "project": 0.8,
    "lookup": 1.5,
    "fold": 1.2,
    "flatten": 1.2,
    "sample": 0.8,
    "countpattern": 3.0,
    "impute": 1.5,
    "identifier": 0.6,
    "sequence": 0.3,
    "timeunit": 2.0,
}


@dataclass
class CostParameters:
    """Tunable cost constants (exposed for calibration and ablations)."""

    client_row_cost: float = DEFAULT_CLIENT_ROW_COST
    server_row_cost: float = DEFAULT_SERVER_ROW_COST
    server_query_overhead: float = DEFAULT_SERVER_QUERY_OVERHEAD
    client_op_overhead: float = DEFAULT_CLIENT_OP_OVERHEAD
    render_row_cost: float = DEFAULT_RENDER_ROW_COST
    #: artificial extra slowdown of the client, for sensitivity studies
    client_slowdown: float = 1.0
    #: engine worker count (1 = serial); candidate-plan costing scales
    #: server step costs by the resulting speedup
    server_workers: int = 1
    #: fraction of an extra worker that translates into throughput
    parallel_efficiency: float = DEFAULT_PARALLEL_EFFICIENCY
    #: per-cube-cell cost of slicing a data tile for one brush event
    tile_cell_cost: float = DEFAULT_TILE_CELL_COST
    #: fixed per-event cost of the tile path (membership eval, assembly)
    tile_slice_overhead: float = DEFAULT_TILE_SLICE_OVERHEAD
    #: tile build cost as a multiple of one direct requery
    tile_build_factor: float = DEFAULT_TILE_BUILD_FACTOR
    #: brush events a tile is expected to serve (amortization horizon)
    tile_predicted_events: float = DEFAULT_TILE_PREDICTED_EVENTS


def step_weight(spec_type):
    return _STEP_WEIGHT.get(spec_type, 1.5)


def tile_slice_cost(params, cells):
    """Estimated latency of answering one brush event from a tile cube
    with ``cells`` cells (brush slots x target groups)."""
    return params.tile_slice_overhead + cells * params.tile_cell_cost


def should_use_tiles(params, requery_seconds, cells):
    """The planner's tile-vs-requery decision for one brushed sink.

    ``requery_seconds`` is the existing cost model's estimate for one
    direct re-execution of the sink's plan (``dataset_plan.estimate
    .total``).  The tile wins when the per-event slice cost plus the
    build cost amortized over the predicted event count undercuts a
    direct requery per event.
    """
    events = max(float(params.tile_predicted_events), 1.0)
    build = requery_seconds * params.tile_build_factor
    return tile_slice_cost(params, cells) + build / events < requery_seconds


def server_speedup(params):
    """Effective server throughput multiplier for the configured worker
    count: ``1 + (workers - 1) * efficiency``, floored at 1."""
    workers = max(int(getattr(params, "server_workers", 1) or 1), 1)
    if workers == 1:
        return 1.0
    efficiency = getattr(params, "parallel_efficiency",
                         DEFAULT_PARALLEL_EFFICIENCY)
    return max(1.0 + (workers - 1) * efficiency, 1.0)


class CostModel:
    """Evaluates the latency of a pipeline cut.

    ``estimates`` is the list of :class:`RelationEstimate` at each pipeline
    position: ``estimates[i]`` is the *input* of step i and
    ``estimates[len(steps)]`` the final output.
    """

    def __init__(self, channel, params=None):
        self.channel = channel
        self.params = params or CostParameters()

    def client_step_cost(self, spec_type, input_rows):
        per_row = (
            self.params.client_row_cost
            * step_weight(spec_type)
            * self.params.client_slowdown
        )
        return self.params.client_op_overhead + input_rows * per_row

    def server_step_cost(self, spec_type, input_rows):
        serial = (
            input_rows * self.params.server_row_cost * step_weight(spec_type)
        )
        return serial / server_speedup(self.params)

    def cut_cost(self, step_types, estimates, cut, merged=True,
                 final_fields=None):
        """Full startup-latency estimate for cutting after ``cut`` steps.

        ``merged=False`` charges one round trip per server step (the
        unmerged baseline of §2.2 step 3).
        """
        breakdown = CostBreakdown()

        # Server side.
        extents = step_types[:cut].count("extent")
        if cut > 0:
            queries = 1 if merged else max(cut, 1)
            # Value transforms (extent) execute as their own scalar query.
            breakdown.server += self.params.server_query_overhead * (
                queries + extents)
            for index in range(cut):
                breakdown.server += self.server_step_cost(
                    step_types[index], estimates[index].rows
                )
            if not merged:
                # Every scalar query is a round trip with a tiny response,
                # and each intermediate result crosses the network.
                breakdown.network += extents * self.channel.round_trip_seconds(
                    request_bytes("value"), 64
                )
                for index in range(1, cut):
                    breakdown.network += self.channel.round_trip_seconds(
                        request_bytes("intermediate"),
                        estimates[index].bytes,
                    )

        # The cut transfer (or the raw table when cut == 0).
        transfer = estimates[cut]
        transfer_bytes = transfer.bytes
        if final_fields and cut == len(step_types):
            # Mark-driven projection pruning of the final payload.
            kept = [
                width
                for name, (width, _) in transfer.columns.items()
                if name in final_fields
            ]
            if kept:
                transfer_bytes = transfer.rows * sum(kept)
        if merged:
            # The segment crosses the link as one request: its scalar
            # results ride in the same response as the rows.
            transfer_bytes += 64 * extents
        breakdown.network += self.channel.round_trip_seconds(
            request_bytes("query"), transfer_bytes
        )

        # Client side.
        for index in range(cut, len(step_types)):
            breakdown.client += self.client_step_cost(
                step_types[index], estimates[index].rows
            )

        # Rendering at the sink.
        breakdown.render += (
            estimates[len(step_types)].rows * self.params.render_row_cost
        )
        return breakdown, transfer
