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
from repro.dataflow.transforms.aggregate import (
    _effective_valid,
    _group_ids,
    _key_column,
)
from repro.tiles.cube import BrushGrid, TileCube

#: slots per brush axis (before widening); the grid snaps to nice steps
#: like the chart's own bins, so brush edges land on slot edges.
TILE_RESOLUTION = 48

#: component column names in the build query
COUNT = "__tc"


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


def build_cube(session, candidate, resolution=TILE_RESOLUTION):
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
                               "grid": [name + "_extent", resolution],
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
            BrushGrid.from_extent(program.values[name + "_extent"], resolution)
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


def group_key_tuple(columns, valids, row):
    """The hashable target-group key of one row (NaN folded to NULL),
    consistent between build ingestion and delta patching."""
    key = []
    for column, valid in zip(columns, valids):
        if column is None or not valid[row]:
            key.append(None)
        else:
            value = column.data[row]
            key.append(value if isinstance(value, str) else
                       value.item() if hasattr(value, "item") else value)
    return tuple(key)


def _ingest(batch, grids, axis_names, candidate, component_names):
    """Scatter the build query's result rows into the cube arrays."""
    groupby = list(candidate.groupby)
    gid, n_groups, first_rows = _group_ids(batch, groupby)
    if groupby:
        group_keys = ColumnBatch()
        for name in groupby:
            group_keys.add_column(name, _key_column(batch, name, first_rows))
        columns = [batch.columns.get(name) for name in groupby]
        valids = [
            None if c is None else _effective_valid(c) for c in columns
        ]
        group_index = {}
        for position, row in enumerate(first_rows.tolist()):
            group_index[group_key_tuple(columns, valids, row)] = position
    else:
        group_keys = None
        group_index = {(): 0}

    cube = TileCube(grids, group_keys, group_index, groupby)

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
        if name == COUNT or name.startswith("__tv_"):
            cube.add_int(name)
            values = np.where(column.valid, column.data, 0.0)
            rounded = np.round(values).astype(np.int64)
            if bool((np.abs(values - rounded) > 0).any()):
                raise TileBuildError("non-integral count partial")
            cube.components[name].array[index_tuple] = rounded
        elif name.startswith("__ts_"):
            cube.add_float(name)
            cube.components[name].array[index_tuple] = np.where(
                column.valid, column.data, 0.0)
        else:
            kind = "min" if name.startswith("__tn_") else "max"
            cube.add_minmax(name, kind)
            cube.components[name].array[index_tuple] = np.where(
                column.valid, column.data, 0.0)
            cube.components[name].present[index_tuple] = column.valid
    return cube
