"""The tile cube: a brush-bin x target-group aggregate array.

The cube is a dense numpy array per aggregate component, indexed by one
or two *brush axes* (one slot per brush bin, plus a NULL slot for rows
whose brush value is NULL) and a final *group axis* (one slot per target
group of the sink's own aggregate).  Answering a brush event reduces the
brush axes over the slots the brush selects — O(bins x groups), never
O(rows).  Integer components (count/valid) keep exact integer partials
and a cached prefix-sum along the first axis so contiguous 1-D ranges
reduce in O(groups).
"""

import math

import numpy as np

from repro.data import Column, ColumnBatch, SQLType, concat_batches
from repro.data.grouping import merge_states
from repro.dataflow.transforms.bin import bin_params


class BrushGrid:
    """The slot layout of one brush axis.

    ``n_bins`` real slots cover ``[start, start + n_bins * step)`` in
    uniform ``step``-wide bins; slot ``n_bins`` is the NULL slot.  The
    grid is *widened* by one bin past the niced data extent so the value
    sitting exactly on the top edge gets its own half-open slot — no
    top-edge clamping, hence every slot is exactly ``[edge, edge+step)``
    and a single representative value per slot decides membership for the
    whole slot.
    """

    __slots__ = ("start", "step", "n_bins")

    def __init__(self, start, step, n_bins):
        self.start = float(start)
        self.step = float(step)
        self.n_bins = int(n_bins)

    @classmethod
    def from_extent(cls, extent, resolution):
        """Grid for a measured data extent (an ``extent`` query result).

        A NULL extent (no numeric values at all) yields a trivial grid:
        every row lands in the NULL slot regardless.
        """
        if (
            extent is None
            or len(extent) != 2
            or extent[0] is None
            or extent[1] is None
        ):
            return cls(0.0, 1.0, 1)
        start, stop, step = bin_params(
            [float(extent[0]), float(extent[1])],
            maxbins=resolution, nice=True,
        )
        n_bins = int(round((stop - start) / step)) + 1  # +1: top-edge slot
        return cls(start, step, n_bins)

    @property
    def n_slots(self):
        return self.n_bins + 1  # + the NULL slot

    @property
    def null_slot(self):
        return self.n_bins

    def edge(self, index):
        """The left edge (= representative value) of slot ``index``."""
        return self.start + index * self.step

    @property
    def top(self):
        """The exclusive upper edge of the last real slot."""
        return self.edge(self.n_bins)

    def slot_of_edge(self, value):
        """Slot index for a value that must be exactly a bin left edge
        (a ``bin0`` output of the widened bin step); None when it is not
        on the grid."""
        index = int(round((value - self.start) / self.step))
        if 0 <= index < self.n_bins and self.edge(index) == value:
            return index
        return None

    def slots_of_values(self, data, valid):
        """(slots, in_grid) for raw values: vectorized binning of a delta
        batch.  ``in_grid`` is False when any valid value falls outside
        ``[start, top)`` (including NaN) — the cube cannot absorb it."""
        slots = np.full(len(data), self.null_slot, dtype=np.int64)
        if not len(data):
            return slots, True
        with np.errstate(invalid="ignore"):
            raw = np.floor((np.asarray(data, dtype=np.float64) - self.start)
                           / self.step)
        finite = valid & np.isfinite(raw)
        index = np.where(finite, raw, 0.0).astype(np.int64)
        inside = finite & (index >= 0) & (index < self.n_bins)
        if bool((valid & ~inside).any()):
            return slots, False
        slots[inside] = index[inside]
        return slots, True

    def aligned(self, bound, op):
        """Whether a brush bound keeps every slot's membership constant.

        For the closed-on-the-edge operators (``>=`` and ``<``) any bound
        sitting exactly on a grid edge (or outside the grid entirely)
        splits no slot.  For ``>`` and ``<=`` an interior edge *does*
        split its slot (the edge value itself flips), so only bounds
        strictly outside the covered range are constant.  NaN bounds make
        the comparison uniformly false, hence always aligned.
        """
        if math.isnan(bound):
            return True
        if op in (">=", "<"):
            if bound <= self.start or bound >= self.top:
                return True
            index = int(round((bound - self.start) / self.step))
            return 0 <= index <= self.n_bins and self.edge(index) == bound
        return bound < self.start or bound >= self.top

    def snap(self, bound, op=">="):
        """The nearest bound for which :meth:`aligned` holds — the
        snap-to-grid hint a client applies to a brush bound *before*
        dispatching, turning a would-be unaligned fallback into a tile
        slice.

        For the closed-on-the-edge operators (``>=``/``<``) this is the
        nearest grid edge, clamped into ``[start, top]``.  For ``>`` and
        ``<=`` no interior edge is constant-membership, so the bound
        snaps just outside the covered range (whichever side is closer:
        below ``start`` it selects everything / nothing exactly as the
        raw bound nearly did, at ``top`` nothing / everything).  NaN is
        already aligned and returned unchanged.
        """
        if math.isnan(bound):
            return bound
        if op in (">=", "<"):
            if bound <= self.start:
                return self.start
            if bound >= self.top:
                return self.top
            index = int(round((bound - self.start) / self.step))
            return self.edge(max(0, min(index, self.n_bins)))
        if bound < self.start:
            return bound
        if bound >= self.top:
            return bound
        mid = self.start + (self.top - self.start) / 2.0
        return self.start - self.step if bound < mid else self.top

    def describe(self):
        """The grid as plain data (the hint payload a client renders a
        snapping slider from)."""
        return {
            "start": self.start,
            "step": self.step,
            "n_bins": self.n_bins,
            "top": self.top,
        }


class _Component:
    """One aggregate component array of the cube."""

    __slots__ = ("kind", "array", "present")

    def __init__(self, kind, array, present=None):
        self.kind = kind  # "int" | "float" | "min" | "max"
        self.array = array
        self.present = present  # bool mask for min/max

    def nbytes(self):
        total = self.array.nbytes
        if self.present is not None:
            total += self.present.nbytes
        return total


class TileCube:
    """Materialized partial aggregates for one tileable sink."""

    def __init__(self, grids, group_keys, groupby):
        self.grids = list(grids)
        #: ColumnBatch of target group key values in first-seen order
        #: (None for a global aggregate)
        self.group_keys = group_keys
        self.groupby = list(groupby)
        self.n_groups = (
            group_keys.num_rows if group_keys is not None else 1
        )
        self.components = {}
        self._prefix = {}  # component name -> cumsum along axis 0

    # -- construction --------------------------------------------------------

    @property
    def shape(self):
        return tuple(g.n_slots for g in self.grids) + (self.n_groups,)

    def add_int(self, name):
        self.components[name] = _Component(
            "int", np.zeros(self.shape, dtype=np.int64))

    def add_float(self, name):
        self.components[name] = _Component(
            "float", np.zeros(self.shape, dtype=np.float64))

    def add_minmax(self, name, kind):
        self.components[name] = _Component(
            kind,
            np.zeros(self.shape, dtype=np.float64),
            np.zeros(self.shape, dtype=np.bool_),
        )

    def nbytes(self):
        total = sum(c.nbytes() for c in self.components.values())
        if self.group_keys is not None:
            total += self.group_keys.nbytes()
        return total

    # -- slicing -------------------------------------------------------------

    def _prefix_of(self, name):
        cached = self._prefix.get(name)
        if cached is None:
            array = self.components[name].array
            cached = np.concatenate(
                [np.zeros((1,) + array.shape[1:], dtype=array.dtype),
                 np.cumsum(array, axis=0)]
            )
            self._prefix[name] = cached
        return cached

    def slice(self, memberships):
        """Reduce the brush axes over the selected slots.

        ``memberships`` is one boolean vector per brush axis (length
        ``n_slots``).  Returns ``{component: (values, present)}`` where
        ``values`` has shape ``(n_groups,)`` and ``present`` is None for
        sum-like components (always defined) or a bool mask for min/max.
        """
        indices = [np.flatnonzero(m) for m in memberships]
        empty = any(idx.size == 0 for idx in indices)
        one_d = len(indices) == 1
        contiguous = (
            one_d and indices[0].size > 0
            and indices[0][-1] - indices[0][0] + 1 == indices[0].size
        )
        out = {}
        for name, component in self.components.items():
            if empty:
                values = np.zeros(self.n_groups, dtype=component.array.dtype)
                if component.kind in ("min", "max"):
                    out[name] = (
                        np.zeros(self.n_groups, dtype=np.float64),
                        np.zeros(self.n_groups, dtype=np.bool_),
                    )
                else:
                    out[name] = (values, None)
                continue
            if component.kind in ("int", "float"):
                if component.kind == "int" and contiguous:
                    prefix = self._prefix_of(name)
                    lo = int(indices[0][0])
                    hi = int(indices[0][-1]) + 1
                    out[name] = (prefix[hi] - prefix[lo], None)
                    continue
                sub = component.array[indices[0]]
                if not one_d:
                    sub = sub[:, indices[1]]
                axes = tuple(range(sub.ndim - 1))
                out[name] = (sub.sum(axis=axes), None)
                continue
            # min / max
            sentinel = np.inf if component.kind == "min" else -np.inf
            data = component.array[indices[0]]
            mask = component.present[indices[0]]
            if not one_d:
                data = data[:, indices[1]]
                mask = mask[:, indices[1]]
            axes = tuple(range(data.ndim - 1))
            guarded = np.where(mask, data, sentinel)
            reduced = (
                guarded.min(axis=axes)
                if component.kind == "min"
                else guarded.max(axis=axes)
            )
            present = mask.any(axis=axes)
            out[name] = (np.where(present, reduced, 0.0), present)
        return out

    # -- incremental updates -------------------------------------------------

    def extend_groups(self, new_keys):
        """Grow the group axis for ``new_keys`` (a ColumnBatch of key
        values, appended in first-seen order)."""
        added = new_keys.num_rows
        if not added:
            return
        self.group_keys = concat_batches([self.group_keys, new_keys])
        self.n_groups += added
        pad = tuple(g.n_slots for g in self.grids) + (added,)
        for component in self.components.values():
            component.array = np.concatenate(
                [component.array,
                 np.zeros(pad, dtype=component.array.dtype)],
                axis=-1,
            )
            if component.present is not None:
                component.present = np.concatenate(
                    [component.present, np.zeros(pad, dtype=np.bool_)],
                    axis=-1,
                )
        self._prefix.clear()

    def merge(self, name, cells, state):
        """Merge a delta's partial state (:mod:`repro.data.grouping`) into
        component ``name``, as the engine merges two morsels' states.

        ``cells`` holds distinct flat cell indices and ``state`` is
        aligned to them: ``(counts,)`` or ``(sums, ...)`` for the
        additive components, ``(values, present)`` for min/max."""
        component = self.components[name]
        size = len(cells)
        ids = np.tile(np.arange(size), 2)
        if component.present is None:
            old = (component.array.flat[cells],)
            merged = merge_states("sum", [old, state[:1]], ids, size)
        else:
            old = (component.array.flat[cells], component.present.flat[cells])
            merged = merge_states(component.kind, [old, state], ids, size)
            component.present.flat[cells] = merged[1]
        component.array.flat[cells] = merged[0]
        self._prefix.pop(name, None)


def slice_result(cube, memberships, measures, groupby):
    """Assemble the aggregate's output batch for one brush selection,
    replicating the dataflow aggregate's semantics exactly (first-seen
    group order, empty-group dropping, one-row global aggregates)."""
    sliced = cube.slice(memberships)
    sizes = sliced["__tc"][0]
    if groupby:
        keep = np.flatnonzero(sizes > 0)
    else:
        keep = np.zeros(1, dtype=np.int64)  # global: always one row
    out = ColumnBatch()
    for name in groupby:
        out.set_column(name, cube.group_keys.columns[name].take(keep))
    for op, measure_field, name in measures:
        out.set_column(
            name, _measure_from_slices(sliced, op, measure_field, keep))
    if not out.columns:
        out._num_rows = len(keep)
    return out


def _measure_from_slices(sliced, op, measure_field, keep):
    sizes = sliced["__tc"][0]
    if op == "count":
        return Column(SQLType.DOUBLE, sizes[keep].astype(np.float64))
    valid = sliced["__tv_" + measure_field][0] \
        if ("__tv_" + measure_field) in sliced else None
    if op == "valid":
        return Column(SQLType.DOUBLE, valid[keep].astype(np.float64))
    if op == "missing":
        return Column(
            SQLType.DOUBLE, (sizes - valid)[keep].astype(np.float64))
    if op == "sum":
        return Column(
            SQLType.DOUBLE, sliced["__ts_" + measure_field][0][keep])
    if op in ("mean", "average"):
        sums = sliced["__ts_" + measure_field][0][keep]
        counts = valid[keep]
        present = counts > 0
        means = np.where(present, sums / np.maximum(counts, 1), 0.0)
        return Column(SQLType.DOUBLE, means, present)
    if op in ("min", "max"):
        prefix = "__tn_" if op == "min" else "__tx_"
        data, present = sliced[prefix + measure_field]
        return Column(SQLType.DOUBLE, data[keep], present[keep])
    raise ValueError("unsupported tile measure {!r}".format(op))
