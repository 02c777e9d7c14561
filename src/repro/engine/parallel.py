"""Morsel and worker-pool machinery of the engine's executor.

The executor (:mod:`repro.engine.executor`) follows the morsel-driven
design of Leis et al.: the rows flowing into a data-parallel operator
are cut into fixed-size *morsels*, one task runs the operator's kernel
per morsel, and a merge step combines the partial results.  This module
holds what that needs and no operator logic: the morsel row ranges
(aligned to storage chunks, so a morsel's slice of a chunked column is
one zero-copy view), the frame slicing / page release / ordered
concatenation around a task, and the process-wide thread pools the
tasks run on when there is more than one worker (numpy releases the GIL
inside the kernels).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.eval import Frame
from repro.engine.table import concat_columns

#: default rows per morsel
DEFAULT_MORSEL_ROWS = 65536

# --------------------------------------------------------------------------
# Shared worker pools
#
# One process-wide pool per worker count: hundreds of short-lived
# Database instances (the fuzzer builds one per case) must not each spawn
# their own threads.  Pool threads are named ``repro-morsel<N>_<i>`` so a
# morsel can attribute itself to worker ``i``.
# --------------------------------------------------------------------------

_POOL_LOCK = threading.Lock()
_POOLS = {}


def shared_pool(workers):
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-morsel{}".format(workers),
            )
            _POOLS[workers] = pool
        return pool


def worker_index():
    """Index of the current pool worker (from its thread name)."""
    name = threading.current_thread().name
    _, _, suffix = name.rpartition("_")
    try:
        return int(suffix)
    except ValueError:
        return 0


def morsel_bounds(num_rows, step, cuts=None):
    """Morsel row ranges over ``num_rows`` rows, ``step`` rows each.

    An input of at most one morsel is one range, whatever its storage.
    With ``cuts`` (chunk boundaries), morsels subdivide each chunk but
    never span two — every morsel's slice of a chunked column is then a
    single zero-copy chunk view."""
    if num_rows <= step:
        return [(0, num_rows)]
    if cuts is None:
        return [
            (lo, min(lo + step, num_rows))
            for lo in range(0, num_rows, step)
        ]
    bounds = []
    for chunk_lo, chunk_hi in zip(cuts, cuts[1:]):
        chunk_hi = min(chunk_hi, num_rows)
        for lo in range(chunk_lo, chunk_hi, step):
            bounds.append((lo, min(lo + step, chunk_hi)))
    return bounds


def slice_frame(frame, lo, hi):
    """Rows ``[lo, hi)`` of ``frame`` — zero-copy for contiguous (and
    memmap) columns; chunked columns materialize only the covered rows."""
    entries = [
        (qualifier, name, c.slice(lo, hi))
        for qualifier, name, c in frame.entries
    ]
    return Frame(entries, num_rows=hi - lo)


def frame_chunk_cuts(frame):
    """Union of every entry column's declared chunk boundaries, or None
    when no column declares any.  Morsels aligned to these cuts never
    cross a chunk edge, so per-morsel slices stay zero-copy."""
    cuts = None
    for _qualifier, _name, column in frame.entries:
        offsets = column.chunk_offsets()
        if offsets is not None:
            if cuts is None:
                cuts = {0, frame.num_rows}
            cuts.update(offsets)
    if cuts is None:
        return None
    return sorted(cuts)


def release_frame(frame, lo, hi):
    """Tell every disk-backed column of ``frame`` that rows ``[lo, hi)``
    were streamed past (safe no-op for RAM columns)."""
    for _qualifier, _name, column in frame.entries:
        column.release(lo, hi)


def concat_frame_parts(parts):
    """Ordered concatenation of per-morsel frames (morsel order = row
    order, so the result matches the unsplit operator exactly)."""
    if len(parts) == 1:
        return parts[0]
    num_rows = sum(part.num_rows for part in parts)
    columns = zip(*[[column for _, _, column in part.entries]
                    for part in parts])
    entries = [
        (qualifier, name, concat_columns(pieces))
        for (qualifier, name, _), pieces in zip(parts[0].entries, columns)
    ]
    return Frame(entries, num_rows=num_rows)
