"""Morsel-driven parallel execution of logical plans.

The serial interpreter in :mod:`repro.engine.executor` evaluates every
plan node on one thread.  This module adds the morsel-driven design of
Leis et al.: the rows flowing into a data-parallel operator are split
into fixed-size *morsels*, a shared :class:`ThreadPoolExecutor` runs the
operator's vectorized kernel per morsel (numpy releases the GIL inside
those kernels), and a merge step combines the partial results into an
answer canonically identical to the serial path:

* **Filter / Project** — embarrassingly parallel; per-morsel outputs are
  concatenated in morsel order, so row order is bit-identical to serial.
  Adjacent Filter/Project nodes fuse into one morsel pipeline (no
  intermediate materialization) outside of EXPLAIN ANALYZE.
* **Aggregate** — two-phase hash aggregation with the serial executor's
  own kernels (:mod:`repro.engine.kernels`): each morsel factorizes its
  group keys locally and reduces them to partial states; the merge
  re-factorizes the concatenated local key rows and merges the states.
  Group order equals the serial path because
  factorization order depends only on the distinct key values, and each
  group's key bytes come from its globally first row.  Floating-point
  SUM/AVG may differ from serial in the last bits (summation order);
  everything else is byte-identical.  Non-decomposable aggregates
  (MEDIAN, STDDEV, VARIANCE, QUANTILE, COUNT DISTINCT) fall back to the
  serial kernel.
* **Sort** — per-morsel stable argsort over a dense composite order code
  plus a final merge sort of the gathered runs (timsort exploits the
  presorted runs), reproducing the serial stable order exactly.  With a
  ``limit_hint`` and one key, the canonical top-N path selects per-morsel
  candidate pools instead.
* **Join** — equi-joins build shared dense key codes over both inputs,
  index the right side once, and probe left-side morsels in parallel;
  match emission order equals the serial hash join.
* **Window** — partitions are independent, so they are sharded across
  the pool; each shard runs the exact serial partition kernel against
  disjoint rows of the shared output arrays.
* **Distinct** — per-morsel local first-occurrence candidates, then one
  small global re-factorization over the surviving rows.

Operators that cannot use a parallel kernel fall back to the serial
applier and record a reason (surfaced as ``engine.fallback.<reason>``
telemetry counters and on EXPLAIN ANALYZE nodes):

=========================== ==============================================
reason                      trigger
=========================== ==============================================
``aggregate_nondecomposable``  an aggregate without mergeable partials
``aggregate_type``             SUM/AVG over VARCHAR (serial raises)
``sort_key_width``             composite sort code would overflow int64
``join_type_mismatch``         VARCHAR joined against a numeric key
``join_key_width``             composite join code would overflow int64
``window_single_partition``    nothing to shard (one or zero partitions)
=========================== ==============================================

Opt-in: ``Database(parallelism=4)`` or ``REPRO_THREADS=4``.  The default
is serial, so existing behaviour is unchanged.
"""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine.errors import ExecutionError, PlanError
from repro.engine.eval import Frame, evaluate
from repro.engine.executor import (
    _aggregate_inputs,
    _concat_frames,
    _equi_keys,
    _topn_composite,
    _topn_select,
    apply_aggregate,
    apply_derived,
    apply_distinct,
    apply_filter,
    apply_join,
    apply_limit,
    apply_project,
    apply_scan,
    apply_sort,
    apply_window,
    window_inputs,
    window_partition_kernel,
)
from repro.engine.kernels import (
    MAX_CODE_WIDTH,
    aggregate_states,
    factorize_column,
    factorize_rows_first,
    merge_states,
    partial_kind,
    state_column,
)
from repro.engine.logical import (
    Aggregate,
    Derived,
    Distinct,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    Window,
)
from repro.engine.table import Column, concat_columns
from repro.engine.types import SQLType

#: default rows per morsel; override with ``REPRO_MORSEL_ROWS``
DEFAULT_MORSEL_ROWS = 65536

THREADS_ENV = "REPRO_THREADS"
MORSEL_ENV = "REPRO_MORSEL_ROWS"

class SerialFallback(Exception):
    """A parallel kernel declined this input; run the serial applier.

    ``reason`` is a stable identifier recorded per plan node and counted
    as ``engine.fallback.<reason>``.
    """

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def resolve_parallelism(value=None):
    """Worker count: explicit value wins, then ``REPRO_THREADS``, then 1."""
    if value is None:
        value = os.environ.get(THREADS_ENV)
    if value in (None, ""):
        return 1
    workers = int(value)
    if workers < 1:
        raise ValueError("parallelism must be >= 1, got {}".format(workers))
    return workers


def resolve_morsel_rows(value=None):
    """Morsel size: explicit value wins, then ``REPRO_MORSEL_ROWS``."""
    if value is None:
        value = os.environ.get(MORSEL_ENV)
    if value in (None, ""):
        return DEFAULT_MORSEL_ROWS
    rows = int(value)
    if rows < 1:
        raise ValueError("morsel size must be >= 1, got {}".format(rows))
    return rows


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


def _worker_index():
    """Index of the current pool worker (from its thread name)."""
    name = threading.current_thread().name
    _, _, suffix = name.rpartition("_")
    try:
        return int(suffix)
    except ValueError:
        return 0


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
    order, so the result matches the serial operator exactly)."""
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


def _apply_chain(frame, ops):
    """Apply a fused Filter/Project chain (bottom-to-top order)."""
    for op in ops:
        if isinstance(op, Filter):
            frame = apply_filter(op, frame)
        else:
            frame = apply_project(op, frame)
    return frame


# --------------------------------------------------------------------------
# Composite order / join codes
# --------------------------------------------------------------------------


def _order_codes(plan, table):
    """One dense int64 code per row whose ascending stable order equals
    the serial ``_sorted_indices`` order for ``plan.keys``.

    Per key column: valid values get their rank among the distinct
    (possibly negated for DESC) values — NaN collapses to the highest
    rank, like every numpy sort — and NULL gets a dedicated code before
    or after the value range per the requested placement.  Codes combine
    mixed-radix across columns.
    """
    combined = np.zeros(table.num_rows, dtype=np.int64)
    width = 1
    for name, descending, nulls_first in plan.keys:
        column = table.column(name)
        if column.type is SQLType.VARCHAR:
            codes, _ = factorize_column(column)
            values = codes.astype(np.float64)
        else:
            values = column.data.astype(np.float64)
        if descending:
            values = -values
        values = np.where(column.valid, values, 0.0)
        uniques, inverse = np.unique(values, return_inverse=True)
        value_code = inverse.astype(np.int64)
        null_first = descending if nulls_first is None else bool(nulls_first)
        if null_first:
            code = np.where(column.valid, value_code + 1, np.int64(0))
        else:
            code = np.where(column.valid, value_code, np.int64(len(uniques)))
        cardinality = len(uniques) + 1
        width *= cardinality
        if width > MAX_CODE_WIDTH:
            raise SerialFallback("sort_key_width")
        combined = combined * np.int64(cardinality) + code
    return combined


def _join_codes(left_keys, right_keys, left_rows, right_rows):
    """Shared dense int64 codes for eligible join rows of both sides.

    Both columns of a key pair factorize against the union of their
    distinct values, so equal values get equal codes across sides —
    exactly the matches the serial hash join's python-value dictionary
    produces (booleans compare equal to 0.0/1.0; NULL and NaN keys are
    already excluded from ``left_rows``/``right_rows``).
    """
    left_combined = np.zeros(len(left_rows), dtype=np.int64)
    right_combined = np.zeros(len(right_rows), dtype=np.int64)
    width = 1
    for left_column, right_column in zip(left_keys, right_keys):
        if left_column.type is SQLType.VARCHAR:
            left_values = left_column.data[left_rows]
            right_values = right_column.data[right_rows]
        else:
            left_values = left_column.data.astype(np.float64)[left_rows]
            right_values = right_column.data.astype(np.float64)[right_rows]
        uniques = np.unique(np.concatenate([left_values, right_values]))
        left_code = np.searchsorted(uniques, left_values).astype(np.int64)
        right_code = np.searchsorted(uniques, right_values).astype(np.int64)
        cardinality = max(len(uniques), 1)
        width *= cardinality
        if width > MAX_CODE_WIDTH:
            raise SerialFallback("join_key_width")
        left_combined = left_combined * np.int64(cardinality) + left_code
        right_combined = right_combined * np.int64(cardinality) + right_code
    return left_combined, right_combined


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------


class MorselExecutor:
    """Executes logical plans with morsel-driven parallelism.

    Splitting only engages when an operator's input holds at least two
    morsels; smaller inputs (and inputs a parallel kernel declines via
    :class:`SerialFallback`) run the exact serial appliers, so every
    branch is equivalence-preserving by construction.
    """

    def __init__(self, workers, morsel_rows=None, pool=None):
        self.workers = max(int(workers), 1)
        self.morsel_rows = resolve_morsel_rows(morsel_rows)
        self.pool = pool if pool is not None else shared_pool(self.workers)

    def execute(self, plan, catalog):
        """Execute ``plan`` and return the result Table."""
        run = _ParallelRun(self, catalog, collect_stats=False)
        return run.execute(plan).to_table()

    def execute_with_stats(self, plan, catalog):
        """Like :func:`repro.engine.executor.execute_with_stats`, plus a
        per-node morsel log and serial-fallback reasons.

        Returns ``(table, stats, morsels, fallbacks)``: ``stats`` maps
        ``id(node)`` to ``(output_rows, seconds)`` (child-inclusive,
        like EXPLAIN ANALYZE); ``morsels`` maps ``id(node)`` to a list
        of per-morsel records (index, op, worker, rows_in, rows_out,
        seconds) for nodes that actually split; ``fallbacks`` maps
        ``id(node)`` to the reason a parallel kernel declined the node.
        Unlike the serial path this keeps all state per-call, so
        concurrent queries on one Database are safe.
        """
        run = _ParallelRun(self, catalog, collect_stats=True)
        frame = run.execute(plan)
        morsels = {
            node_id: sorted(records, key=lambda record: record["index"])
            for node_id, records in run.morsels.items()
        }
        return frame.to_table(), run.stats, morsels, run.fallbacks


def _task_thunk(task, lo, hi):
    def thunk():
        return task(lo, hi)

    return thunk


class _ParallelRun:
    """State of one plan execution: per-node stats, morsel logs, and
    serial-fallback reasons.

    Outside of stats collection (``Database.execute``), adjacent
    Filter/Project nodes fuse into their consumer's morsel tasks so a
    scan -> filter -> aggregate pipeline touches each morsel once.
    EXPLAIN ANALYZE disables fusion to keep per-node cardinalities and
    timings exact.
    """

    def __init__(self, executor, catalog, collect_stats):
        self.executor = executor
        self.catalog = catalog
        self.collect_stats = collect_stats
        self.stats = {}
        self.morsels = {}
        self.fallbacks = {}
        self.fallback_counts = {}
        self._fuse = not collect_stats
        self._lock = threading.Lock()

    # -- plan walk ---------------------------------------------------------

    def execute(self, plan):
        if not self.collect_stats:
            return self._execute_node(plan)
        start = time.perf_counter()
        frame = self._execute_node(plan)
        self.stats[id(plan)] = (frame.num_rows, time.perf_counter() - start)
        return frame

    def _execute_node(self, plan):
        if isinstance(plan, Scan):
            return apply_scan(plan, self.catalog)
        if isinstance(plan, Derived):
            return apply_derived(plan, self.execute(plan.child))
        if isinstance(plan, (Filter, Project)):
            return self._execute_chain(plan)
        if isinstance(plan, Aggregate):
            return self._execute_aggregate(plan)
        if isinstance(plan, Window):
            return self._execute_window(plan, self.execute(plan.child))
        if isinstance(plan, Distinct):
            return self._execute_distinct(plan, self.execute(plan.child))
        if isinstance(plan, Sort):
            return self._execute_sort(plan, self.execute(plan.child))
        if isinstance(plan, Limit):
            return apply_limit(plan, self.execute(plan.child))
        if isinstance(plan, Join):
            return self._execute_join(
                plan, self.execute(plan.left), self.execute(plan.right)
            )
        raise ExecutionError("unsupported plan node {!r}".format(plan))

    def _record_fallback(self, node, reason):
        self.fallbacks[id(node)] = reason
        with self._lock:
            self.fallback_counts[reason] = (
                self.fallback_counts.get(reason, 0) + 1
            )
        # Always-on plane: fallbacks are a fleet-level signal (a new query
        # shape silently losing parallelism), so they land in the process
        # registry as a labeled counter regardless of tracing.
        from repro.metrics import get_registry

        get_registry().inc("engine.fallback", reason=reason)

    # -- morsel machinery --------------------------------------------------

    def _should_split(self, num_rows):
        return num_rows > self.executor.morsel_rows

    def _bounds(self, num_rows, cuts=None):
        """Morsel row ranges.  With ``cuts`` (chunk boundaries), morsels
        subdivide each chunk but never span two — every morsel's slice of
        a chunked column is then a single zero-copy chunk view."""
        step = self.executor.morsel_rows
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

    def _run_tasks(self, node, op, tasks):
        """Run ``tasks`` — a list of ``(rows_in, thunk)`` where
        ``thunk() -> (result, rows_out)`` — on the shared pool; returns
        results in task order."""
        futures = [
            self.executor.pool.submit(
                self._run_task, node, op, index, rows_in, thunk
            )
            for index, (rows_in, thunk) in enumerate(tasks)
        ]
        return [future.result() for future in futures]

    def _run_task(self, node, op, index, rows_in, thunk):
        start = time.perf_counter()
        result, rows_out = thunk()
        seconds = time.perf_counter() - start
        if self.collect_stats:
            record = {
                "index": index,
                "op": op,
                "worker": _worker_index(),
                "rows_in": int(rows_in),
                "rows_out": int(rows_out),
                "seconds": seconds,
            }
            with self._lock:
                self.morsels.setdefault(id(node), []).append(record)
        return result

    def _map_morsels(self, node, op, num_rows, task, cuts=None):
        """Run ``task(lo, hi) -> (result, rows_out)`` for every morsel on
        the shared pool; returns results in morsel order."""
        tasks = [
            (hi - lo, _task_thunk(task, lo, hi))
            for lo, hi in self._bounds(num_rows, cuts)
        ]
        return self._run_tasks(node, op, tasks)

    # -- fused filter/project chains ---------------------------------------

    def _gather_chain(self, node):
        """Fusable Filter/Project nodes below (and including) ``node``,
        bottom-to-top, plus the base node feeding the chain.  Descends
        only while fusion is enabled (i.e. never under EXPLAIN
        ANALYZE)."""
        ops = [node]
        node = node.child
        while self._fuse and isinstance(node, (Filter, Project)):
            ops.append(node)
            node = node.child
        ops.reverse()
        return ops, node

    def _execute_chain(self, plan):
        ops, base_node = self._gather_chain(plan)
        base = self.execute(base_node)
        return self._chain_result(plan, ops, base)

    def _chain_result(self, top, ops, base):
        if not self._should_split(base.num_rows):
            return _apply_chain(base, ops)

        def task(lo, hi):
            out = _apply_chain(slice_frame(base, lo, hi), ops)
            return out, out.num_rows

        op = "filter" if isinstance(top, Filter) else "project"
        parts = self._map_morsels(
            top, op, base.num_rows, task, cuts=frame_chunk_cuts(base)
        )
        return concat_frame_parts(parts)

    # -- aggregate ---------------------------------------------------------

    def _execute_aggregate(self, plan):
        ops = []
        node = plan.child
        while self._fuse and isinstance(node, (Filter, Project)):
            ops.append(node)
            node = node.child
        ops.reverse()
        base = self.execute(node)

        if not self._should_split(base.num_rows):
            return apply_aggregate(plan, _apply_chain(base, ops))

        kinds = [partial_kind(call) for call, _ in plan.aggregates]
        if not all(kind is not None for kind in kinds):
            self._record_fallback(plan, "aggregate_nondecomposable")
            return apply_aggregate(plan, self._materialize_chain(ops, base))

        # Probe a zero-row slice through the chain for the output schema
        # (key and result types) without touching any data.
        probe = _apply_chain(slice_frame(base, 0, 0), ops)
        try:
            key_types = [
                evaluate(expr, probe).type for expr, _ in plan.groups
            ]
            inputs = [
                _aggregate_inputs(call, probe) for call, _ in plan.aggregates
            ]
            for kind, (_, arg_column, _) in zip(kinds, inputs):
                if kind in ("sum", "avg") and (
                    arg_column.type is SQLType.VARCHAR
                ):
                    raise SerialFallback("aggregate_type")
        except SerialFallback as fallback:
            self._record_fallback(plan, fallback.reason)
            return apply_aggregate(plan, self._materialize_chain(ops, base))
        except (ExecutionError, PlanError):
            # The serial path raises (or handles) the error identically.
            return apply_aggregate(plan, self._materialize_chain(ops, base))
        result_types = [result_type for _, _, result_type in inputs]

        def task(lo, hi):
            frame = _apply_chain(slice_frame(base, lo, hi), ops)
            key_columns = [evaluate(expr, frame) for expr, _ in plan.groups]
            group_ids, group_count, first = factorize_rows_first(
                key_columns, frame.num_rows
            )
            if group_count == 0:
                release_frame(base, lo, hi)
                return None, 0
            local_keys = [column.take(first) for column in key_columns]
            states = []
            for kind, (call, _) in zip(kinds, plan.aggregates):
                _, arg_column, _ = _aggregate_inputs(call, frame)
                states.append(
                    aggregate_states(kind, arg_column, group_ids, group_count)
                )
            # Partial states and gathered keys are copies, so the morsel's
            # source pages can be dropped: this is what keeps a streaming
            # aggregate over a memmap column at O(morsel) resident bytes.
            release_frame(base, lo, hi)
            return (local_keys, states, group_count), group_count

        results = self._map_morsels(
            plan, "aggregate", base.num_rows, task,
            cuts=frame_chunk_cuts(base),
        )
        parts = [result for result in results if result is not None]
        if not parts:
            return self._empty_aggregate(plan, key_types, kinds, result_types)
        return self._merge_aggregate(plan, kinds, result_types, parts)

    def _materialize_chain(self, ops, base):
        if not ops:
            return base
        return self._chain_result(ops[-1], ops, base)

    def _empty_aggregate(self, plan, key_types, kinds, result_types):
        """Every morsel came up empty: replicate the serial executor's
        empty-input edge cases exactly."""
        if plan.groups:
            entries = [
                (None, name, Column.from_values([], key_type))
                for key_type, (_, name) in zip(key_types, plan.groups)
            ]
            for _, name in plan.aggregates:
                entries.append(
                    (None, name, Column.from_values([], SQLType.DOUBLE))
                )
            return Frame(entries, num_rows=0)
        entries = []
        for kind, result_type, (_, name) in zip(
            kinds, result_types, plan.aggregates
        ):
            value = 0.0 if kind in ("count", "count_star") else None
            entries.append(
                (None, name, Column.from_values([value], result_type))
            )
        return Frame(entries, num_rows=1)

    def _merge_aggregate(self, plan, kinds, result_types, parts):
        """Associative columnar merge of the per-morsel partial states.

        Concatenating each morsel's local group keys (in morsel order)
        and re-factorizing yields the serial group order — factorization
        order depends only on the distinct key values — and each group's
        first concatenated row is its globally first input row, so the
        key bytes match the serial output exactly.
        """
        cat_keys = [
            concat_columns([part[0][position] for part in parts])
            for position in range(len(plan.groups))
        ]
        total = sum(part[2] for part in parts)
        group_ids, group_count, first = factorize_rows_first(cat_keys, total)
        entries = [
            (None, name, cat_keys[position].take(first))
            for position, (_, name) in enumerate(plan.groups)
        ]
        for position, ((_, name), kind, result_type) in enumerate(
            zip(plan.aggregates, kinds, result_types)
        ):
            state = merge_states(
                kind, [part[1][position] for part in parts],
                group_ids, group_count,
            )
            entries.append((None, name, state_column(kind, state, result_type)))
        return Frame(entries, num_rows=group_count)

    # -- sort --------------------------------------------------------------

    def _execute_sort(self, plan, child):
        table = child.to_table()
        num_rows = table.num_rows
        if not self._should_split(num_rows):
            return apply_sort(plan, child)
        limit = plan.limit_hint
        if (
            limit is not None
            and len(plan.keys) == 1
            and 0 < limit < num_rows // 4
        ):
            return self._sort_topn(plan, table, limit)
        try:
            combined = _order_codes(plan, table)
        except SerialFallback as fallback:
            self._record_fallback(plan, fallback.reason)
            return apply_sort(plan, child)

        def task(lo, hi):
            run = np.argsort(combined[lo:hi], kind="stable") + lo
            return run, hi - lo

        runs = np.concatenate(
            self._map_morsels(plan, "sort", num_rows, task)
        )
        # Stable argsort over the gathered runs is the k-way merge: equal
        # codes keep their run (= row) order, so this equals the serial
        # stable sort exactly; timsort exploits the presorted runs.
        order = runs[np.argsort(combined[runs], kind="stable")]
        if self._fuse and limit is not None:
            # limit_hint is only set when a Limit consumes this Sort
            # directly; rows past limit+offset can never be observed.
            order = order[:limit]
        return _sorted_result(plan, table, order)

    def _sort_topn(self, plan, table, limit):
        name, descending, nulls_first = plan.keys[0]
        composite = _topn_composite(
            (table.column(name), descending, nulls_first)
        )

        def task(lo, hi):
            candidates = _topn_select(composite, np.arange(lo, hi), limit)
            return candidates, len(candidates)

        parts = self._map_morsels(plan, "sort", table.num_rows, task)
        pool = np.concatenate(parts)
        ordered = _topn_select(composite, pool, limit)
        if self._fuse:
            order = ordered
        else:
            rest = np.setdiff1d(
                np.arange(table.num_rows), ordered, assume_unique=False
            )
            order = np.concatenate([ordered, rest])
        return _sorted_result(plan, table, order)

    # -- join --------------------------------------------------------------

    def _execute_join(self, plan, left, right):
        if not self._should_split(left.num_rows):
            return apply_join(plan, left, right)
        try:
            return self._join_parallel(plan, left, right)
        except SerialFallback as fallback:
            self._record_fallback(plan, fallback.reason)
            return apply_join(plan, left, right)

    def _join_parallel(self, plan, left, right):
        left_exprs, right_exprs = _equi_keys(plan.condition, left, right)
        left_keys = [evaluate(expr, left) for expr in left_exprs]
        right_keys = [evaluate(expr, right) for expr in right_exprs]

        left_ok = np.ones(left.num_rows, dtype=np.bool_)
        right_ok = np.ones(right.num_rows, dtype=np.bool_)
        for left_column, right_column in zip(left_keys, right_keys):
            left_str = left_column.type is SQLType.VARCHAR
            right_str = right_column.type is SQLType.VARCHAR
            if left_str != right_str:
                raise SerialFallback("join_type_mismatch")
            left_ok &= left_column.valid
            right_ok &= right_column.valid
            if not left_str:
                # NaN keys never match in the serial hash join (NaN !=
                # NaN as a python dict key), so they are ineligible.
                with np.errstate(invalid="ignore"):
                    if left_column.type is SQLType.DOUBLE:
                        left_ok &= ~np.isnan(left_column.data)
                    if right_column.type is SQLType.DOUBLE:
                        right_ok &= ~np.isnan(right_column.data)
        left_rows = np.flatnonzero(left_ok)
        right_rows = np.flatnonzero(right_ok)

        left_codes, right_codes = _join_codes(
            left_keys, right_keys, left_rows, right_rows
        )

        # Build side: group eligible right rows by code, preserving row
        # order within each code (= the serial dict's insertion order).
        build_order = np.argsort(right_codes, kind="stable")
        right_sorted_rows = right_rows[build_order]
        sorted_codes = right_codes[build_order]
        if len(sorted_codes):
            starts = np.flatnonzero(
                np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
            )
            unique_codes = sorted_codes[starts]
            counts = np.diff(np.r_[starts, len(sorted_codes)])
        else:
            starts = np.zeros(0, dtype=np.int64)
            unique_codes = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)

        left_join = plan.kind == "LEFT"

        def task(lo, hi):
            begin = np.searchsorted(left_rows, lo)
            end = np.searchsorted(left_rows, hi)
            rows = left_rows[begin:end]
            codes = left_codes[begin:end]
            if len(unique_codes):
                positions = np.searchsorted(unique_codes, codes)
                positions = np.clip(positions, 0, len(unique_codes) - 1)
                match = unique_codes[positions] == codes
            else:
                positions = np.zeros(len(codes), dtype=np.int64)
                match = np.zeros(len(codes), dtype=np.bool_)
            per_row = np.where(match, counts[positions], 0)
            left_idx = np.repeat(rows, per_row)
            matched_positions = positions[match]
            match_counts = counts[matched_positions]
            segment_base = np.repeat(starts[matched_positions], match_counts)
            total = int(match_counts.sum())
            offsets = np.arange(total) - np.repeat(
                np.cumsum(match_counts) - match_counts, match_counts
            )
            right_idx = right_sorted_rows[segment_base + offsets]
            if left_join:
                unmatched = np.setdiff1d(
                    np.arange(lo, hi), rows[match], assume_unique=True
                )
            else:
                unmatched = np.zeros(0, dtype=np.int64)
            return (left_idx, right_idx, unmatched), total + len(unmatched)

        parts = self._map_morsels(plan, "join", left.num_rows, task)
        left_idx = np.concatenate([part[0] for part in parts])
        right_idx = np.concatenate([part[1] for part in parts])
        unmatched = np.concatenate([part[2] for part in parts])

        matched_left = left.take(left_idx)
        matched_right = right.take(right_idx)
        entries = list(matched_left.entries) + list(matched_right.entries)
        result = Frame(entries, num_rows=len(left_idx))

        if left_join and len(unmatched):
            pad_left = left.take(unmatched)
            pad_entries = list(pad_left.entries)
            for qualifier, column_name, column in right.entries:
                pad_entries.append(
                    (
                        qualifier,
                        column_name,
                        Column.nulls(column.type, len(unmatched)),
                    )
                )
            pad_frame = Frame(pad_entries, num_rows=len(unmatched))
            result = _concat_frames(result, pad_frame)
        return result

    # -- window ------------------------------------------------------------

    def _execute_window(self, plan, child):
        if not self._should_split(child.num_rows):
            return apply_window(plan, child)
        entries = list(child.entries)
        for window, name in plan.items:
            entries.append((None, name, self._window_column(plan, window, child)))
        return Frame(entries, num_rows=child.num_rows)

    def _window_column(self, node, window, frame):
        func_name, groups, order_keys, arg_column, out, out_valid = (
            window_inputs(window, frame)
        )
        if len(groups) <= 1:
            self._record_fallback(node, "window_single_partition")
            for indices in groups:
                window_partition_kernel(
                    window, func_name, order_keys, arg_column, indices,
                    out, out_valid,
                )
            return Column(SQLType.DOUBLE, out, out_valid)

        chunks = np.array_split(
            np.arange(len(groups)),
            min(len(groups), self.executor.workers * 4),
        )

        def shard_thunk(chunk):
            def thunk():
                rows = 0
                for group_index in chunk:
                    indices = groups[group_index]
                    window_partition_kernel(
                        window, func_name, order_keys, arg_column, indices,
                        out, out_valid,
                    )
                    rows += len(indices)
                return None, rows

            return thunk

        tasks = [
            (
                sum(len(groups[group_index]) for group_index in chunk),
                shard_thunk(chunk),
            )
            for chunk in chunks
            if len(chunk)
        ]
        self._run_tasks(node, "window", tasks)
        return Column(SQLType.DOUBLE, out, out_valid)

    # -- distinct ----------------------------------------------------------

    def _execute_distinct(self, plan, child):
        if not self._should_split(child.num_rows):
            return apply_distinct(plan, child)
        columns = [column for _, _, column in child.entries]

        def task(lo, hi):
            part = [c.slice(lo, hi) for c in columns]
            _, _, first = factorize_rows_first(part, hi - lo)
            candidates = np.sort(first) + lo
            return candidates, len(candidates)

        parts = self._map_morsels(
            plan, "distinct", child.num_rows, task,
            cuts=frame_chunk_cuts(child),
        )
        # Candidates are globally ascending (sorted per morsel, morsels in
        # order), so each value's first candidate is its globally first
        # row — re-factorizing the survivors reproduces the serial output
        # byte-for-byte, including row order.
        candidates = np.concatenate(parts)
        survivors = child.take(candidates)
        _, _, first = factorize_rows_first(
            [column for _, _, column in survivors.entries],
            survivors.num_rows,
        )
        return survivors.take(first)


def _sorted_result(plan, table, order):
    """Shared tail of the Sort paths: gather + drop hidden key columns
    (mirrors :func:`repro.engine.executor.apply_sort`)."""
    sorted_frame = Frame.from_table(table.take(order))
    if plan.drop:
        entries = [
            (qualifier, name, column)
            for qualifier, name, column in sorted_frame.entries
            if name not in plan.drop
        ]
        return Frame(entries, num_rows=sorted_frame.num_rows)
    return sorted_frame
