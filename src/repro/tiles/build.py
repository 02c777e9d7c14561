"""Cube construction: one server-side pass builds every partial.

The build composes the candidate's static prefix, one *widened* bin step
per brush axis (the brush grid), the chart's own bin step, and a single
decomposed aggregate grouped by (brush bins x target keys) — all through
the existing SQL translation/merge/rewrite path, so the columnar and
parallel engine optimizations apply to the build for free.  The result
batch is then scattered into dense numpy arrays (:class:`TileCube`).
"""

import numpy as np

from repro.core.executors import ServerSegmentRunner
from repro.data import ColumnBatch
from repro.dataflow.transforms.aggregate import group_batch
from repro.tiles.cube import BrushGrid, TileCube

#: slots per brush axis (before widening); the grid snaps to nice steps
#: like the chart's own bins, so brush edges land on slot edges.
TILE_RESOLUTION = 48

#: component column names in the build query
COUNT = "__tc"

#: partial-state kind (:mod:`repro.data.grouping`) per component prefix
_STATE_KINDS = {"__tv_": "count", "__ts_": "sum", "__tn_": "min",
                "__tx_": "max"}


class TileBuildError(Exception):
    """The cube could not be built; the sink falls back to requery."""


def component_plan(measures):
    """The decomposed aggregate for the build query.

    Returns (ops, fields, names): always a total count, plus per measure
    field the partials its op needs (sum, valid count, min, max)."""
    ops, fields, names = ["count"], [None], [COUNT]
    seen = {COUNT}

    def need(op, measure_field, name):
        if name not in seen:
            seen.add(name)
            ops.append(op)
            fields.append(measure_field)
            names.append(name)

    for op, measure_field, _out in measures:
        if measure_field is None or op == "count":
            continue
        if op in ("sum", "mean", "average"):
            need("sum", measure_field, "__ts_" + measure_field)
        if op in ("mean", "average", "valid", "missing"):
            need("valid", measure_field, "__tv_" + measure_field)
        if op == "min":
            need("min", measure_field, "__tn_" + measure_field)
        if op == "max":
            need("max", measure_field, "__tx_" + measure_field)
    return ops, fields, names


def component_state(name):
    """``(kind, measure field)`` of a component column: the partial
    state it holds (``count_star`` for the total count)."""
    if name == COUNT:
        return "count_star", None
    return _STATE_KINDS[name[:5]], name[5:]


def build_cube(session, candidate):
    """(cube, runner) for a tile candidate.

    The whole build is one program — per brush axis an extent and the
    grid bin the server derives from it, then the aggregate — so it
    crosses the link as one request of its own.  The runner is returned
    for accounting: its ``server_seconds`` / ``network_seconds`` /
    ``queries`` describe what the build cost."""
    runner = ServerSegmentRunner(
        session.backend, session.channel, session.signals,
        cache=None, merge=session.merge_queries, rewrite=session.rewrite_sql,
        tracer=session.tracer, dataset=candidate.sink + ":tiles",
    )
    base_columns = session.tables[candidate.root].column_names
    chain = list(candidate.prefix)
    if candidate.bin_step is not None:
        chain.append(candidate.bin_step)
    axis_names = ["__tb{}".format(position)
                  for position in range(len(candidate.axes))]
    ops, fields, names = component_plan(candidate.measures)
    try:
        program = runner.program(
            candidate.root, base_columns, chain, len(chain))
        axis_steps = []
        for name, axis in zip(axis_names, candidate.axes):
            axis_steps.append({"type": "extent", "name": name + "_extent",
                               "params": {"field": axis.field}})
            axis_steps.append({"type": "bin",
                               "grid": [name + "_extent", TILE_RESOLUTION],
                               "params": {"field": axis.field, "nice": False,
                                          "as": [name, name + "_hi"]}})
        at = len(candidate.prefix)
        program.steps[at:at] = axis_steps
        program.steps.append({"type": "aggregate", "params": {
            "groupby": axis_names + list(candidate.groupby),
            "ops": ops,
            "fields": fields,
            "as": names,
        }})
        batch, _ = runner.run(program)
        runner.close("tiles")
        grids = [
            BrushGrid.from_extent(
                program.values[name + "_extent"], TILE_RESOLUTION)
            for name in axis_names
        ]
    except Exception as exc:
        raise TileBuildError(str(exc)) from exc
    try:
        cube = _ingest(batch, grids, axis_names, candidate, names)
    except TileBuildError:
        raise
    except Exception as exc:
        raise TileBuildError(str(exc)) from exc
    return cube, runner


def _ingest(batch, grids, axis_names, candidate, component_names):
    """Scatter the build query's result rows into the cube arrays."""
    groupby = list(candidate.groupby)
    gid, _, keys = group_batch(batch, groupby)
    group_keys = None
    if groupby:
        group_keys = ColumnBatch()
        for name, column in zip(groupby, keys):
            group_keys.add_column(name, column)
    cube = TileCube(grids, group_keys, groupby)

    # slot per row per brush axis
    slot_arrays = []
    for grid, name in zip(grids, axis_names):
        column = batch.columns.get(name)
        if column is None:
            raise TileBuildError("missing brush bin column " + name)
        data = column.data
        valid = column.valid
        slots = np.full(batch.num_rows, grid.null_slot, dtype=np.int64)
        if batch.num_rows:
            index = np.round((data - grid.start) / grid.step).astype(np.int64)
            on_edge = (
                valid
                & (index >= 0)
                & (index < grid.n_bins)
            )
            exact = np.zeros(batch.num_rows, dtype=np.bool_)
            safe = np.where(on_edge, index, 0)
            exact[on_edge] = (
                grid.start + safe[on_edge] * grid.step == data[on_edge]
            )
            if bool((valid & ~exact).any()):
                raise TileBuildError("bin output off the brush grid")
            slots[valid] = index[valid]
        slot_arrays.append(slots)
    index_tuple = tuple(slot_arrays) + (gid,)

    for name in component_names:
        column = batch.columns.get(name)
        if column is None:
            raise TileBuildError("missing component column " + name)
        kind, _ = component_state(name)
        values = np.where(column.valid, column.data, 0.0)
        if kind in ("count_star", "count"):
            cube.add_int(name)
            rounded = np.round(values).astype(np.int64)
            if bool((np.abs(values - rounded) > 0).any()):
                raise TileBuildError("non-integral count partial")
            cube.components[name].array[index_tuple] = rounded
        elif kind == "sum":
            cube.add_float(name)
            cube.components[name].array[index_tuple] = values
        else:
            cube.add_minmax(name, kind)
            cube.components[name].array[index_tuple] = values
            cube.components[name].present[index_tuple] = column.valid
    return cube
