"""Tile lifecycle: decide, build, slice, patch, invalidate.

The manager sits between :meth:`VegaPlus.interact` and the requery path.
Per sink it caches an eligibility verdict (:mod:`repro.tiles.detect`),
consults the cost model (build cost amortized over the predicted event
count), builds the cube on the first qualifying brush event, and answers
later events by slicing.  Cubes live in the session's
:class:`~repro.core.cache.ResultCache` under synthetic keys, so the
ordinary byte budget and LRU eviction govern tile storage; an evicted
cube simply rebuilds on the next event.  Append-only streaming inserts
patch cubes in place (a delta pulse through the static prefix) instead of
rebuilding.
"""

import time

import numpy as np

from repro.core.cache import CacheEntry
from repro.core.executors import ClientSuffixRunner
from repro.data import Column, ColumnBatch, SQLType, concat_batches
from repro.data.grouping import aggregate_states, factorize_rows_first
from repro.dataflow.transforms.aggregate import value_column
from repro.expr.evaluator import Evaluator, _boolean, _number
from repro.metrics import NULL as NULL_METRICS
from repro.planner.costmodel import should_use_tiles
from repro.planner.plans import CostBreakdown
from repro.tiles.build import (
    TILE_RESOLUTION,
    TileBuildError,
    build_cube,
    component_state,
)
from repro.tiles.cube import slice_result
from repro.tiles.detect import detect_candidate


class _TileState:
    """Per-sink tile bookkeeping."""

    __slots__ = ("candidate", "reason", "cube", "cache_key", "decision",
                 "decision_reason", "dead", "build_seconds", "slices")

    def __init__(self, candidate, reason):
        self.candidate = candidate
        self.reason = reason
        self.cube = None
        self.cache_key = None
        #: cost-model verdict (None = not yet decided)
        self.decision = None
        self.decision_reason = ""
        #: a build failed; stop trying for this sink
        self.dead = False
        self.build_seconds = 0.0
        self.slices = 0


class TileIndexManager:
    """Owns every tile cube of one session."""

    def __init__(self, mode="auto", metrics=None):
        #: "auto" = cost-model gated, "force" = always tile when eligible
        self.mode = mode
        #: always-on plane; the session passes its labeled MetricsView.
        #: It may be off, so the manager keeps its own integer counters
        #: for stats()/explain()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._states = {}
        self._generation = 0
        self.builds = 0
        self.build_failures = 0
        self.hits = 0
        self.aligned = 0
        self.unaligned = 0
        self.invalidations = 0
        self.deltas = 0
        self.evicted_rebuilds = 0
        self.bytes_built = 0

    # -- interaction hook ----------------------------------------------------

    def state_for(self, session, sink, sink_state):
        entry = self._states.get(sink)
        if entry is None:
            candidate, reason = detect_candidate(session, sink, sink_state)
            entry = _TileState(candidate, reason)
            self._states[sink] = entry
        return entry

    def try_interact(self, session, sink, sink_state, dataset_plan,
                     changed, result):
        """Rows for one brush event answered from the tile, or None to
        fall through to the ordinary requery/partial path."""
        entry = self.state_for(session, sink, sink_state)
        candidate = entry.candidate
        if candidate is None or entry.dead:
            return None
        if changed & candidate.static_deps:
            # a baked-in signal moved: the cube's contents are stale
            self._invalidate(session, entry)
            return None
        if not (changed & candidate.brush_signals):
            # Not a brush event for this sink; the normal path handles it
            # (it may be a pure client-suffix change).
            return None
        if not self._decide(session, entry, dataset_plan):
            return None
        cube = self._ensure_cube(session, entry, result)
        if cube is None:
            return None

        start = time.perf_counter()
        memberships = self._memberships(session, candidate, cube)
        if memberships is None:
            self.unaligned += 1
            self.metrics.inc("tiles.unaligned")
            return None
        # the counterpart of tiles.unaligned: brush bounds that landed on
        # the grid (organically or via a snap hint), so the ratio of the
        # two counters measures how well clients exploit snapping
        self.aligned += 1
        self.metrics.inc("tiles.aligned")
        batch = slice_result(
            cube, memberships, candidate.measures, candidate.groupby)
        if candidate.post_steps:
            client = ClientSuffixRunner(
                session.signals,
                data_resolver=session._resolve_cross_dataset,
                tracer=session.tracer, columnar=session.columnar,
            )
            out = client.run_suffix(candidate.post_steps, 0, batch, {})
            rows = out.rows
        else:
            rows = batch.to_rows()
        if dataset_plan.cut >= len(sink_state.steps):
            # the full-server plan projects the transfer to the mark's
            # fields; mirror it so tiled rows are shaped identically
            final_fields = session.compiled.spec.mark_fields(sink)
            if final_fields:
                rows = [
                    {k: v for k, v in row.items() if k in final_fields}
                    for row in rows
                ]
        elapsed = time.perf_counter() - start

        if candidate.first_brush_index < dataset_plan.cut:
            # the cached server transfer embeds the *previous* brush
            # values; it must not satisfy a later client-partial
            sink_state.transfer = None
            sink_state.value_results = {}
            sink_state.cut_executed = None
        self.hits += 1
        entry.slices += 1
        self.metrics.inc("tiles.hit")
        self.metrics.observe("tiles.slice_seconds", elapsed)
        result.breakdown = result.breakdown + CostBreakdown(
            client=elapsed,
            render=len(rows) * session.cost_params.render_row_cost,
        )
        return rows

    def _decide(self, session, entry, dataset_plan):
        if entry.decision is not None:
            return entry.decision
        if self.mode == "force":
            entry.decision = True
            entry.decision_reason = "forced"
            return True
        cells = self._estimated_cells(entry.candidate, dataset_plan)
        entry.decision = should_use_tiles(
            session.cost_params, dataset_plan.estimate.total, cells)
        entry.decision_reason = (
            "cost model: slice+amortized build {} requery".format(
                "beats" if entry.decision else "loses to"))
        return entry.decision

    def _estimated_cells(self, candidate, dataset_plan):
        slots = 1
        for _axis in candidate.axes:
            slots *= TILE_RESOLUTION + 1
        groups = max(1, min(int(dataset_plan.transfer_rows or 1), 4096))
        return slots * groups

    # -- cube residency ------------------------------------------------------

    def _ensure_cube(self, session, entry, result):
        if entry.cube is not None:
            cached = session.cache.peek(entry.cache_key)
            if cached is not None and cached.value is entry.cube:
                return entry.cube
            # evicted under byte pressure: rebuild on demand
            entry.cube = None
            entry.cache_key = None
            self.evicted_rebuilds += 1
            self.metrics.inc("tiles.evicted")
        start = time.perf_counter()
        try:
            cube, runner = build_cube(session, entry.candidate)
        except TileBuildError:
            entry.dead = True
            self.build_failures += 1
            self.metrics.inc("tiles.build_failed")
            return None
        entry.build_seconds = time.perf_counter() - start
        self.builds += 1
        self.metrics.inc("tiles.build")
        self.metrics.observe("tiles.build_seconds", entry.build_seconds)
        size = cube.nbytes()
        self.bytes_built += size
        self.metrics.inc("tiles.bytes_built", size)
        self._generation += 1
        entry.cache_key = "tiles:{}#{}".format(
            entry.candidate.sink, self._generation)
        session.cache.put(
            entry.cache_key, CacheEntry(rows=[], wire_bytes=size, value=cube))
        entry.cube = cube
        if result is not None:
            result.queries.extend(runner.queries)
            ingest = max(
                entry.build_seconds
                - runner.server_seconds - runner.network_seconds,
                0.0,
            )
            result.breakdown = result.breakdown + CostBreakdown(
                server=runner.server_seconds,
                network=runner.network_seconds,
                client=ingest,
            )
        if session.cache.peek(entry.cache_key) is None:
            # larger than the whole cache budget: unusable
            entry.cube = None
            entry.cache_key = None
            entry.decision = False
            entry.decision_reason = "cube exceeds the cache byte budget"
            return None
        return entry.cube

    # -- membership ----------------------------------------------------------

    def _memberships(self, session, candidate, cube):
        """One bool vector per brush axis under the current signal values,
        or None when a brush bound splits a slot (fall back to requery)."""
        evaluator = Evaluator(signals=session.signals)
        memberships = []
        for grid, axis in zip(cube.grids, candidate.axes):
            for comparison in axis.comparisons:
                try:
                    # the datum side is DOUBLE/NULL, so _compare always
                    # takes its numeric branch: the bound's effective
                    # value is its JS number coercion
                    bound = _number(evaluator.evaluate(comparison.bound))
                except Exception:
                    return None
                if not grid.aligned(bound, comparison.op):
                    return None
            mask = np.zeros(grid.n_slots, dtype=np.bool_)
            try:
                for index in range(grid.n_bins):
                    datum = {axis.field: grid.edge(index)}
                    mask[index] = all(
                        _boolean(evaluator.evaluate(node, datum=datum))
                        for node in axis.exprs
                    )
                datum = {axis.field: None}
                mask[grid.null_slot] = all(
                    _boolean(evaluator.evaluate(node, datum=datum))
                    for node in axis.exprs
                )
            except Exception:
                return None
            memberships.append(mask)
        return memberships

    # -- streaming appends ---------------------------------------------------

    def on_append(self, session, name, incoming):
        """Patch every live cube rooted at ``name`` with the appended
        batch; anything the delta path cannot absorb invalidates."""
        for sink, entry in self._states.items():
            if entry.cube is None or entry.candidate is None:
                continue
            if entry.candidate.root != name:
                continue
            # NB: append_data clears the whole result cache before this
            # hook runs, so the manager's own reference is authoritative
            # here; a successful patch re-puts the entry below.
            try:
                patched = self._apply_delta(session, entry, incoming)
            except Exception:
                patched = False
            if patched:
                self.deltas += 1
                self.metrics.inc("tiles.delta")
                session.cache.put(entry.cache_key, CacheEntry(
                    rows=[], wire_bytes=entry.cube.nbytes(),
                    value=entry.cube,
                ))
            else:
                self._invalidate(session, entry)

    def _apply_delta(self, session, entry, incoming):
        candidate = entry.candidate
        cube = entry.cube
        steps = list(candidate.prefix)
        if candidate.bin_step is not None:
            steps.append(candidate.bin_step)
        if steps:
            client = ClientSuffixRunner(
                session.signals,
                data_resolver=session._resolve_cross_dataset,
                columnar=session.columnar,
            )
            pulse = client.run_suffix(steps, 0, incoming, {})
            batch = pulse.batch
            if batch is None:
                batch = ColumnBatch.from_rows(pulse.rows)
        else:
            batch = incoming
        if batch.num_rows == 0:
            return True

        slot_arrays = []
        for grid, axis in zip(cube.grids, candidate.axes):
            column = value_column(batch, axis.field)
            slots, in_grid = grid.slots_of_values(column.data, column.valid)
            if not in_grid:
                return False  # outside the measured extent: rebuild
            slot_arrays.append(slots)
        slot_arrays.append(_delta_groups(cube, batch))

        # reduce the delta per cube cell, then merge the partial states
        flat = np.ravel_multi_index(slot_arrays, cube.shape)
        cells, cell_ids = np.unique(flat, return_inverse=True)
        for name in cube.components:
            kind, field = component_state(name)
            column = None
            if field is not None:
                # the cube holds DOUBLE partials, as the build query does
                column = value_column(batch, field)
                column = Column(SQLType.DOUBLE, column.data, column.valid)
            cube.merge(name, cells, aggregate_states(
                kind, column, cell_ids, len(cells)))
        return True

    # -- invalidation / lifecycle -------------------------------------------

    def _invalidate(self, session, entry):
        if entry.cube is None:
            return
        if entry.cache_key is not None:
            session.cache.discard(entry.cache_key)
        entry.cube = None
        entry.cache_key = None
        entry.decision = None  # data/signals moved; re-decide
        self.invalidations += 1
        self.metrics.inc("tiles.invalidated")

    def reset(self):
        """Forget everything (spec replaced)."""
        self._states = {}

    def prewarm(self, session):
        """Eagerly build cubes for every eligible, cost-approved sink
        (e.g. during idle time before the first brush).  Returns the
        number of cubes built."""
        if session.plan is None:
            return 0
        built = 0
        for sink, dataset_plan in session.plan.datasets.items():
            sink_state = session._sink_state(sink)
            entry = self.state_for(session, sink, sink_state)
            if entry.candidate is None or entry.dead:
                continue
            if not self._decide(session, entry, dataset_plan):
                continue
            already = entry.cube is not None
            if self._ensure_cube(session, entry, None) is not None \
                    and not already:
                built += 1
        return built

    # -- introspection -------------------------------------------------------

    def grid_hints(self, sink):
        """Snap-to-grid hints for a sink with a live cube: one entry per
        brush axis with the field name, the grid layout, and the grid
        object itself (whose :meth:`~repro.tiles.cube.BrushGrid.snap`
        pre-aligns a brush bound).  None when the sink has no cube —
        there is no grid to snap to until the first build.
        """
        entry = self._states.get(sink)
        if entry is None or entry.cube is None or entry.candidate is None:
            return None
        hints = []
        for grid, axis in zip(entry.cube.grids, entry.candidate.axes):
            hint = {"field": axis.field, "grid": grid}
            hint.update(grid.describe())
            hints.append(hint)
        return hints

    def stats(self):
        return {
            "mode": self.mode,
            "resolution": TILE_RESOLUTION,
            "builds": self.builds,
            "build_failures": self.build_failures,
            "hits": self.hits,
            "aligned_slices": self.aligned,
            "unaligned_fallbacks": self.unaligned,
            "invalidations": self.invalidations,
            "deltas": self.deltas,
            "evicted_rebuilds": self.evicted_rebuilds,
            "bytes_built": self.bytes_built,
            "live_cubes": sum(
                1 for entry in self._states.values()
                if entry.cube is not None
            ),
        }

    def explain_lines(self, session):
        """EXPLAIN lines describing the per-sink tile decision."""
        lines = []
        if session.plan is None:
            return lines
        for sink in session.plan.datasets:
            entry = self._states.get(sink)
            if entry is None:
                sink_state = session._sink_state(sink)
                entry = self.state_for(session, sink, sink_state)
            if entry.candidate is None:
                lines.append(
                    "tile[{}]: requery ({})".format(sink, entry.reason))
            elif entry.dead:
                lines.append(
                    "tile[{}]: requery (build failed)".format(sink))
            elif entry.decision is False:
                lines.append("tile[{}]: requery ({})".format(
                    sink, entry.decision_reason))
            elif entry.cube is not None:
                dims = "x".join(
                    str(grid.n_slots) for grid in entry.cube.grids)
                lines.append(
                    "tile[{}]: tiled {} slots x {} groups, {} bytes, "
                    "build {:.4f}s, {} slices".format(
                        sink, dims, entry.cube.n_groups,
                        entry.cube.nbytes(), entry.build_seconds,
                        entry.slices,
                    ))
            else:
                lines.append(
                    "tile[{}]: eligible (brush over {}), not built "
                    "yet".format(
                        sink,
                        ", ".join(a.field
                                  for a in entry.candidate.axes)))
        return lines


def _delta_groups(cube, batch):
    """The cube group of every delta row.  Like the engine's merge of
    morsel groups, the cube's keys and the delta's are factorized
    together; keys the cube has not seen grow its group axis in
    first-seen order."""
    if not cube.groupby:
        return np.zeros(batch.num_rows, dtype=np.int64)
    delta_keys = ColumnBatch()
    for field in cube.groupby:
        delta_keys.add_column(field, value_column(batch, field))
    keys = concat_batches([cube.group_keys, delta_keys])
    known = cube.n_groups
    ids, count, first = factorize_rows_first(
        [keys.columns[field] for field in cube.groupby], keys.num_rows)
    group_of = np.empty(count, dtype=np.int64)
    group_of[ids[:known]] = np.arange(known)
    unseen = np.sort(first[first >= known])
    group_of[ids[unseen]] = known + np.arange(len(unseen))
    cube.extend_groups(keys.take(unseen))
    return group_of[ids[known:]]
