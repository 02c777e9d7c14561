"""Layer-neutral grouped-reduction kernels.

Both execution substrates — the client dataflow's columnar transforms
(:mod:`repro.dataflow.transforms`) and the embedded engine's morsel
executor (:mod:`repro.engine.executor`) — reduce values per dense group
id.  These kernels implement the shared segmented-reduction idiom
(``bincount`` and ``ufunc.at`` scatter passes over the group ids) once,
over plain numpy arrays, so the two layers cannot drift apart.

All kernels take ``(data, gid, n_groups, valid)`` where ``gid`` assigns
each row a dense group id in ``[0, n_groups)`` and ``valid`` masks the
rows that contribute.  They release the GIL inside numpy, which is what
makes them usable as per-morsel work units.
"""

import numpy as np

__all__ = [
    "Unvectorizable",
    "grouped_counts",
    "grouped_sums",
    "grouped_minmax",
]


class Unvectorizable(Exception):
    """This expression/transform cannot be evaluated columnar; the caller
    must fall back to the row-at-a-time path (which either computes the
    result or raises exactly the error the row semantics call for)."""


def grouped_counts(gid, n_groups, valid=None):
    """Per-group count of contributing rows as float64."""
    if valid is not None:
        gid = gid[valid]
    return np.bincount(gid, minlength=n_groups).astype(np.float64)


def grouped_sums(gid, n_groups, data, valid=None):
    """Per-group sum over the valid slots as float64 (groups with no
    valid value sum to 0.0 — pair with :func:`grouped_counts` to tell
    empty groups apart)."""
    if valid is not None:
        gid = gid[valid]
        data = data[valid]
    if data.dtype != np.float64:
        data = data.astype(np.float64)
    return np.bincount(gid, weights=data, minlength=n_groups)


def grouped_minmax(data, gid, n_groups, valid, reducer):
    """Per-group min/max over the valid slots; groups with no valid value
    come back with ``present=False``.

    ``reducer`` is ``np.minimum`` or ``np.maximum``.  Numeric arrays
    reduce in one unordered scatter pass (``reducer.at``); object
    (string) arrays take a stable sort by group and a per-segment Python
    reduction — ufuncs over object dtype are not dependable.

    Returns ``(out_data, present)``.
    """
    if valid is not None:
        gid = gid[valid]
        data = data[valid]
    present = np.zeros(n_groups, dtype=np.bool_)
    present[gid] = True
    out_data = np.empty(n_groups, dtype=data.dtype)
    if data.dtype != np.object_:
        # Seed every occurring group with one of its own values (any:
        # min/max do not care which), then fold the rest in.
        out_data[:] = 0
        out_data[gid] = data
        reducer.at(out_data, gid, data)
        return out_data, present
    if gid.size == 0:
        return out_data, present
    order = np.argsort(gid, kind="stable")
    sorted_groups = gid[order]
    sorted_values = data[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_groups[1:] != sorted_groups[:-1]])
    bounds = list(starts) + [len(sorted_values)]
    python_reducer = min if reducer is np.minimum else max
    out_data[sorted_groups[starts]] = [
        python_reducer(sorted_values[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    return out_data, present
