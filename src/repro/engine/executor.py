"""Physical execution of logical plans against a catalog.

One executor answers every query: :class:`MorselExecutor` walks the
plan once per execution (:class:`_PlanRun` holds that execution's
state), and each operator's input decides how it runs.  An input of at
most one morsel runs the operator's vectorized kernel once; a larger
one is cut into morsels (:mod:`repro.engine.parallel`), the kernel runs
per morsel, and a merge step combines the partial results into the same
bytes the unsplit kernel produces.  The worker count only decides
*where* morsel tasks run — inline on the calling thread with one
worker, on the shared pool with more — never which code computes the
answer.

* **Filter / Project** — per-morsel outputs concatenate in morsel
  order.  Adjacent Filter/Project nodes fuse into their consumer's
  morsel tasks (no intermediate materialization) outside of EXPLAIN
  ANALYZE.
* **Aggregate** — two-phase: each morsel factorizes its group keys and
  reduces them to partial states (:mod:`repro.data.grouping`); the
  merge re-factorizes the concatenated local key rows and merges the
  states.  Group order is the unsplit one because factorization order
  depends only on the distinct key values, and each group's key bytes
  come from its globally first row.  Floating-point SUM/AVG may differ
  in the last bits between split and unsplit execution (summation
  order); everything else is byte-identical.
* **Sort** — one dense order code per row (:func:`order_codes`), a
  stable argsort per morsel, and a stable merge of the runs.  Under a
  Limit only the rows the Limit can reach are gathered, and a
  single-key sort selects them without sorting the rest.
* **Join** — equi-joins build shared dense key codes over both inputs,
  index the right side once, and probe the left side per morsel.
* **Window** — partitions are independent, so they are sharded; every
  shard writes disjoint rows of the shared output arrays.
* **Distinct** — per-morsel first-occurrence candidates, then one small
  re-factorization over the survivors.

Three inputs have no per-morsel form and are gathered, then reduced by
the unsplit kernel; the reason is recorded per plan node (EXPLAIN
ANALYZE ``fallback``) and counted as ``engine.fallback{reason=}``:

=========================== ==============================================
reason                      trigger
=========================== ==============================================
``aggregate_nondecomposable``  MEDIAN / QUANTILE / STDDEV / VARIANCE /
                               COUNT DISTINCT: no mergeable partial state
``aggregate_type``             SUM/AVG over VARCHAR (the kernel raises)
``window_single_partition``    one or zero partitions: nothing to shard
=========================== ==============================================
"""

import threading
import time
from functools import partial

import numpy as np

from repro.data import Column, SQLType, concat_columns
from repro.data.grouping import (
    MAX_CODE_WIDTH,
    aggregate_states,
    factorize_column,
    factorize_rows,
    factorize_rows_first,
    group_row_indices,
    merge_states,
)
from repro.engine import sqlast
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.eval import Frame, evaluate, predicate_mask
from repro.engine.functions import aggregate_function
from repro.engine.kernels import partial_kind, state_column
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
from repro.engine.parallel import (
    DEFAULT_MORSEL_ROWS,
    concat_frame_parts,
    frame_chunk_cuts,
    morsel_bounds,
    release_frame,
    shared_pool,
    slice_frame,
    worker_index,
)


class MorselExecutor:
    """Executes logical plans, one :class:`_PlanRun` per call.

    ``workers`` threads share the morsel tasks of a query; one worker
    runs them inline on the calling thread (no pool, no futures).  All
    execution state is per call, so concurrent queries on one executor
    are safe at any worker count.
    """

    def __init__(self, workers=1, morsel_rows=None):
        workers = int(workers)
        if workers < 1:
            raise ValueError(
                "parallelism must be >= 1, got {}".format(workers)
            )
        if morsel_rows is None:
            morsel_rows = DEFAULT_MORSEL_ROWS
        morsel_rows = int(morsel_rows)
        if morsel_rows < 1:
            raise ValueError(
                "morsel size must be >= 1, got {}".format(morsel_rows)
            )
        self.workers = workers
        self.morsel_rows = morsel_rows
        self.pool = shared_pool(workers) if workers > 1 else None

    def execute(self, plan, catalog):
        """Execute ``plan`` and return the result Table."""
        run = _PlanRun(self, catalog, collect_stats=False)
        return run.execute(plan).to_table()

    def execute_with_stats(self, plan, catalog):
        """Execute ``plan`` collecting per-node statistics.

        Returns ``(table, stats, morsels, fallbacks)``: ``stats`` maps
        ``id(node)`` to ``(output_rows, seconds)`` (child-inclusive,
        like EXPLAIN ANALYZE); ``morsels`` maps ``id(node)`` to a list
        of per-morsel records (index, op, worker, rows_in, rows_out,
        seconds) for nodes that actually split; ``fallbacks`` maps
        ``id(node)`` to the reason a node's input was gathered instead
        of reduced per morsel.
        """
        run = _PlanRun(self, catalog, collect_stats=True)
        frame = run.execute(plan)
        morsels = {
            node_id: sorted(records, key=lambda record: record["index"])
            for node_id, records in run.morsels.items()
        }
        return frame.to_table(), run.stats, morsels, run.fallbacks


def annotate_stats(plan, raw_stats, catalog=None):
    """Enrich raw ``execute_with_stats`` output into per-node dicts.

    Returns a mapping ``id(node) -> {"label", "rows_in", "rows_out",
    "seconds", "self_seconds"}``.  ``rows_in`` is the sum of the node's
    children's output rows (for Scan, the base table's row count when a
    catalog is given); ``self_seconds`` subtracts child-inclusive time.
    """
    annotated = {}

    def visit(node):
        children = node.children()
        for child in children:
            visit(child)
        raw = raw_stats.get(id(node))
        if raw is None:
            return
        rows_out, seconds = raw
        if children:
            rows_in = sum(
                raw_stats[id(child)][0]
                for child in children
                if id(child) in raw_stats
            )
            child_seconds = sum(
                raw_stats[id(child)][1]
                for child in children
                if id(child) in raw_stats
            )
        else:
            child_seconds = 0.0
            rows_in = rows_out
            if isinstance(node, Scan) and catalog is not None:
                try:
                    rows_in = catalog.get(node.table).num_rows
                except Exception:
                    pass
        annotated[id(node)] = {
            "label": node.label(),
            "rows_in": int(rows_in),
            "rows_out": int(rows_out),
            "seconds": seconds,
            "self_seconds": max(seconds - child_seconds, 0.0),
        }

    visit(plan)
    return annotated


def stats_preorder(plan, annotated):
    """Flatten annotated stats into a pre-order list with depths —
    the structured EXPLAIN ANALYZE rows (one dict per plan node)."""
    rows = []

    def visit(node, depth, parent_index):
        entry = dict(annotated.get(id(node), {"label": node.label()}))
        entry["depth"] = depth
        entry["parent"] = parent_index
        index = len(rows)
        rows.append(entry)
        for child in node.children():
            visit(child, depth + 1, index)

    visit(plan, 0, None)
    return rows


# --------------------------------------------------------------------------
# The plan walk
# --------------------------------------------------------------------------


class _PlanRun:
    """State of one plan execution: per-node stats, morsel logs, and
    gather-then-reduce reasons.

    Outside of stats collection (``Database.execute``), adjacent
    Filter/Project nodes fuse into their consumer's morsel tasks so a
    scan -> filter -> aggregate pipeline touches each morsel once, and a
    Sort under a Limit gathers only the rows the Limit can reach.
    EXPLAIN ANALYZE disables both to keep per-node cardinalities and
    timings exact.
    """

    def __init__(self, executor, catalog, collect_stats):
        self.executor = executor
        self.catalog = catalog
        self.collect_stats = collect_stats
        self.stats = {}
        self.morsels = {}
        self.fallbacks = {}
        self._fuse = not collect_stats
        self._lock = threading.Lock()

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
        # Always-on plane: a query shape that cannot be reduced per
        # morsel is a fleet-level signal, so it lands in the process
        # registry as a labeled counter regardless of tracing.
        from repro.metrics import get_registry

        get_registry().inc("engine.fallback", reason=reason)

    # -- morsel machinery --------------------------------------------------

    def _should_split(self, num_rows):
        return num_rows > self.executor.morsel_rows

    def _run_tasks(self, node, op, tasks):
        """Run ``tasks`` — a list of ``(rows_in, thunk)`` where
        ``thunk() -> (result, rows_out)`` — and return the results in
        task order.  A single task means nothing was split: it runs in
        place and leaves no morsel log."""
        if len(tasks) == 1:
            return [tasks[0][1]()[0]]
        pool = self.executor.pool
        if pool is None:
            return [
                self._run_task(node, op, index, rows_in, thunk)
                for index, (rows_in, thunk) in enumerate(tasks)
            ]
        futures = [
            pool.submit(self._run_task, node, op, index, rows_in, thunk)
            for index, (rows_in, thunk) in enumerate(tasks)
        ]
        return [future.result() for future in futures]

    def _run_task(self, node, op, index, rows_in, thunk):
        if not self.collect_stats:
            return thunk()[0]
        start = time.perf_counter()
        result, rows_out = thunk()
        record = {
            "index": index,
            "op": op,
            "worker": worker_index() if self.executor.pool is not None else 0,
            "rows_in": int(rows_in),
            "rows_out": int(rows_out),
            "seconds": time.perf_counter() - start,
        }
        with self._lock:
            self.morsels.setdefault(id(node), []).append(record)
        return result

    def _map_morsels(self, node, op, num_rows, task, cuts=None):
        """Run ``task(lo, hi) -> (result, rows_out)`` for every morsel of
        ``num_rows`` rows; returns the results in morsel order."""
        bounds = morsel_bounds(num_rows, self.executor.morsel_rows, cuts)
        tasks = [(hi - lo, partial(task, lo, hi)) for lo, hi in bounds]
        return self._run_tasks(node, op, tasks)

    # -- fused filter/project chains ---------------------------------------

    def _gather_chain(self, node):
        """Fusable Filter/Project nodes below ``node``, bottom-to-top,
        plus the base node feeding them.  Descends only while fusion is
        enabled (i.e. never under EXPLAIN ANALYZE)."""
        ops = []
        node = node.child
        while self._fuse and isinstance(node, (Filter, Project)):
            ops.append(node)
            node = node.child
        ops.reverse()
        return ops, node

    def _execute_chain(self, plan):
        ops, base_node = self._gather_chain(plan)
        return self._chain_result(ops + [plan], self.execute(base_node))

    def _chain_result(self, ops, base):
        if not ops or not self._should_split(base.num_rows):
            return _apply_chain(base, ops)

        def task(lo, hi):
            out = _apply_chain(slice_frame(base, lo, hi), ops)
            return out, out.num_rows

        top = ops[-1]
        op = "filter" if isinstance(top, Filter) else "project"
        parts = self._map_morsels(
            top, op, base.num_rows, task, cuts=frame_chunk_cuts(base)
        )
        return concat_frame_parts(parts)

    # -- aggregate ---------------------------------------------------------

    def _execute_aggregate(self, plan):
        ops, base_node = self._gather_chain(plan)
        base = self.execute(base_node)

        if not self._should_split(base.num_rows):
            return apply_aggregate(plan, _apply_chain(base, ops))

        def gathered(reason=None):
            """No per-morsel form: the chain still runs per morsel, the
            unsplit kernel reduces its gathered output."""
            if reason is not None:
                self._record_fallback(plan, reason)
            return apply_aggregate(plan, self._chain_result(ops, base))

        kinds = [partial_kind(call) for call, _ in plan.aggregates]
        if None in kinds:
            return gathered("aggregate_nondecomposable")
        # A zero-row slice through the chain gives the output schema
        # (argument and result types) without touching any data.
        probe = _apply_chain(slice_frame(base, 0, 0), ops)
        try:
            inputs = [
                _aggregate_inputs(call, probe) for call, _ in plan.aggregates
            ]
        except (ExecutionError, PlanError):
            return gathered()  # the unsplit kernel raises it identically
        if any(
            kind in ("sum", "avg") and arg_column.type is SQLType.VARCHAR
            for kind, (_, arg_column, _) in zip(kinds, inputs)
        ):
            return gathered("aggregate_type")
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
            # Every morsel came up empty: the empty-input edge cases are
            # the unsplit kernel's.
            return apply_aggregate(plan, probe)
        return self._merge_aggregate(plan, kinds, result_types, parts)

    def _merge_aggregate(self, plan, kinds, result_types, parts):
        """Associative columnar merge of the per-morsel partial states.

        Concatenating each morsel's local group keys (in morsel order)
        and re-factorizing yields the unsplit group order —
        factorization order depends only on the distinct key values —
        and each group's first concatenated row is its globally first
        input row, so the key bytes match the unsplit output exactly.
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
        keys = [
            (table.column(name), descending, nulls_first)
            for name, descending, nulls_first in plan.keys
        ]
        # limit_hint is only set when a Limit consumes this Sort directly;
        # rows past limit+offset can never be observed.
        limit = plan.limit_hint
        if limit is not None and len(keys) == 1 and 0 < limit < num_rows // 4:
            order = self._topn_order(plan, keys[0], num_rows, limit)
        else:
            order = self._full_order(plan, keys, num_rows)
            if self._fuse and limit is not None:
                order = order[:limit]
        sorted_frame = Frame.from_table(table.take(order))
        if plan.drop:
            entries = [
                (qualifier, name, column)
                for qualifier, name, column in sorted_frame.entries
                if name not in plan.drop
            ]
            return Frame(entries, num_rows=sorted_frame.num_rows)
        return sorted_frame

    def _full_order(self, plan, keys, num_rows):
        codes = order_codes(keys, num_rows)

        def task(lo, hi):
            return np.argsort(codes[lo:hi], kind="stable") + lo, hi - lo

        runs = self._map_morsels(plan, "sort", num_rows, task)
        if len(runs) == 1:
            return runs[0]
        # Stable argsort over the gathered runs is the k-way merge: equal
        # codes keep their run (= row) order, so this equals the unsplit
        # stable sort exactly; timsort exploits the presorted runs.
        runs = np.concatenate(runs)
        return runs[np.argsort(codes[runs], kind="stable")]

    def _topn_order(self, plan, key, num_rows, limit):
        """The first ``limit`` positions of the stable sort by one key,
        without sorting the rest: each morsel contributes its canonical
        top-``limit`` candidates and the same selection runs over their
        union."""
        composite = _topn_composite(key)

        def task(lo, hi):
            candidates = _topn_select(composite, np.arange(lo, hi), limit)
            return candidates, len(candidates)

        parts = self._map_morsels(plan, "sort", num_rows, task)
        ordered = _topn_select(composite, np.concatenate(parts), limit)
        if self._fuse:
            return ordered
        rest = np.ones(num_rows, dtype=np.bool_)
        rest[ordered] = False
        return np.concatenate([ordered, np.flatnonzero(rest)])

    # -- join --------------------------------------------------------------

    def _execute_join(self, plan, left, right):
        left_exprs, right_exprs = _equi_keys(plan.condition, left, right)
        left_keys = [evaluate(expr, left) for expr in left_exprs]
        right_keys = [evaluate(expr, right) for expr in right_exprs]
        left_rows, right_rows = _join_eligible(left_keys, right_keys)
        left_codes, right_codes = _join_codes(
            left_keys, right_keys, left_rows, right_rows
        )

        # Build side: group eligible right rows by code, preserving row
        # order within each code, so every left row meets its matches in
        # right-row order.
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
                # No build row can match (empty or all NULL/NaN keys).
                positions = np.zeros(len(codes), dtype=np.int64)
                match = np.zeros(len(codes), dtype=np.bool_)
            matched_rows = rows[match]
            matched_positions = positions[match]
            match_counts = counts[matched_positions]
            left_idx = np.repeat(matched_rows, match_counts)
            segment_base = np.repeat(starts[matched_positions], match_counts)
            total = int(match_counts.sum())
            offsets = np.arange(total) - np.repeat(
                np.cumsum(match_counts) - match_counts, match_counts
            )
            right_idx = right_sorted_rows[segment_base + offsets]
            if left_join:
                unmatched = np.setdiff1d(
                    np.arange(lo, hi), matched_rows, assume_unique=True
                )
            else:
                unmatched = np.zeros(0, dtype=np.int64)
            return (left_idx, right_idx, unmatched), total + len(unmatched)

        parts = self._map_morsels(plan, "join", left.num_rows, task)
        left_idx = np.concatenate([part[0] for part in parts])
        right_idx = np.concatenate([part[1] for part in parts])
        unmatched = np.concatenate([part[2] for part in parts])

        entries = left.take(left_idx).entries + right.take(right_idx).entries
        if len(unmatched):
            # LEFT join: unmatched left rows follow the matches, in row
            # order, padded with NULLs on the right.
            pads = left.take(unmatched).entries + [
                (qualifier, name, Column.nulls(column.type, len(unmatched)))
                for qualifier, name, column in right.entries
            ]
            entries = [
                (qualifier, name, concat_columns([column, pad]))
                for (qualifier, name, column), (_, _, pad)
                in zip(entries, pads)
            ]
        return Frame(entries, num_rows=len(left_idx) + len(unmatched))

    # -- window ------------------------------------------------------------

    def _execute_window(self, plan, child):
        entries = list(child.entries)
        for window, name in plan.items:
            entries.append(
                (None, name, self._window_column(plan, window, child))
            )
        return Frame(entries, num_rows=child.num_rows)

    def _window_column(self, node, window, frame):
        groups, kernel, out, out_valid = _window_kernel(window, frame)
        # Partitions write disjoint rows of the shared output arrays, so
        # they can be sharded (four shards per worker, for balance); one
        # worker, one partition or one morsel of input is one shard.
        shards = 1
        if self._should_split(frame.num_rows):
            if len(groups) <= 1:
                self._record_fallback(node, "window_single_partition")
            elif self.executor.workers > 1:
                shards = min(len(groups), self.executor.workers * 4)

        def shard_task(chunk):
            rows = sum(len(groups[group_index]) for group_index in chunk)

            def thunk():
                for group_index in chunk:
                    kernel(groups[group_index])
                return None, rows

            return rows, thunk

        chunks = np.array_split(np.arange(len(groups)), shards)
        self._run_tasks(
            node, "window", [shard_task(chunk) for chunk in chunks]
        )
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
        # row — re-factorizing the survivors reproduces the unsplit output
        # byte-for-byte, including row order.
        survivors = child.take(np.concatenate(parts))
        return apply_distinct(plan, survivors)


# --------------------------------------------------------------------------
# Operator kernels
#
# Each takes already-executed child Frames and computes the operator over
# the whole of its input: the plan walk above calls them once on an
# input of at most one morsel, and per morsel (or over the gathered
# survivors) on a larger one.
# --------------------------------------------------------------------------


def apply_scan(plan, catalog):
    table = catalog.get(plan.table)
    if plan.columns is not None:
        table = table.select(plan.columns)
    return Frame.from_table(table, qualifier=plan.alias or plan.table)


def apply_derived(plan, child):
    table = child.to_table()
    return Frame.from_table(table, qualifier=plan.alias)


def apply_filter(plan, child):
    keep = predicate_mask(plan.predicate, child)
    return child.mask(keep)


def apply_project(plan, child):
    entries = [
        (None, name, evaluate(expr, child)) for expr, name in plan.items
    ]
    return Frame(entries, num_rows=child.num_rows)


def _apply_chain(frame, ops):
    """Apply a fused Filter/Project chain (bottom-to-top order)."""
    for op in ops:
        if isinstance(op, Filter):
            frame = apply_filter(op, frame)
        else:
            frame = apply_project(op, frame)
    return frame


def apply_distinct(plan, child):
    columns = [column for _, _, column in child.entries]
    _, _, first = factorize_rows_first(columns, child.num_rows)
    return child.take(first)


def apply_limit(plan, child):
    start = plan.offset
    stop = child.num_rows if plan.limit is None else start + plan.limit
    indices = np.arange(start, min(stop, child.num_rows))
    return child.take(indices)


# --------------------------------------------------------------------------
# Aggregate
# --------------------------------------------------------------------------


def apply_aggregate(plan, child):
    key_columns, group_ids, group_count, first, early = _aggregate_setup(
        plan, child
    )
    if early is not None:
        return early

    entries = []
    for column, (_, name) in zip(key_columns, plan.groups):
        entries.append((None, name, column.take(first)))

    groups = None
    for call, name in plan.aggregates:
        fn, arg_column, result_type = _aggregate_inputs(call, child)
        kind = partial_kind(call)
        if kind in ("sum", "avg") and arg_column.type is SQLType.VARCHAR:
            kind = None  # the per-group function raises what it always did
        if kind is not None:
            state = aggregate_states(kind, arg_column, group_ids, group_count)
            column = state_column(kind, state, result_type)
        else:
            # MEDIAN / QUANTILE / STDDEV / VARIANCE / COUNT(DISTINCT) need
            # each group's values side by side: no mergeable partial state.
            if groups is None:
                groups = _aggregate_groups(child, group_ids, group_count)
            column = Column.from_values(
                [fn(arg_column.take(indices)) for indices in groups],
                result_type,
            )
        entries.append((None, name, column))

    return Frame(entries, num_rows=group_count)


def _aggregate_setup(plan, child):
    """Shared grouping front half of Aggregate execution.

    Returns ``(key_columns, group_ids, group_count, first, early)``;
    when ``early`` is a Frame the caller must return it as-is
    (empty-input edge cases), otherwise ``group_count >= 1``,
    ``group_ids`` index into ``[0, group_count)`` in global
    factorization order, and ``first`` is each group's first occurrence
    row index.
    """
    key_columns = [evaluate(expr, child) for expr, _ in plan.groups]
    group_ids, group_count, first = factorize_rows_first(
        key_columns, child.num_rows
    )

    if group_count == 0 and plan.groups:
        # No input rows and explicit grouping: empty result.
        entries = [
            (None, name, Column.from_values([], column.type))
            for (explicit, name), column in zip(plan.groups, key_columns)
        ]
        for call, name in plan.aggregates:
            entries.append((None, name, Column.from_values([], SQLType.DOUBLE)))
        return (
            key_columns, group_ids, group_count, first,
            Frame(entries, num_rows=0),
        )

    if group_count == 0:
        group_count = 1  # global aggregate over empty input: one group
        group_ids = np.zeros(0, dtype=np.int64)
        first = np.zeros(1, dtype=np.int64)

    return key_columns, group_ids, group_count, first, None


def _aggregate_groups(child, group_ids, group_count):
    """Per-group row-index arrays in group-id order."""
    if child.num_rows == 0:
        return [np.zeros(0, dtype=np.int64)] * group_count
    groups = group_row_indices(group_ids)
    if len(groups) != group_count:
        raise ExecutionError("internal grouping inconsistency")
    return groups


def _aggregate_inputs(call, frame):
    """Resolve one aggregate call against a frame.

    Returns ``(fn, arg_column, result_type)`` — the aggregate function,
    the evaluated argument column (synthetic ones for ``COUNT(*)``), and
    the output column type.
    """
    star = len(call.args) == 1 and isinstance(call.args[0], sqlast.Star)
    extra_literal = None
    if call.name.upper() == "QUANTILE":
        if len(call.args) != 2 or not isinstance(call.args[1], sqlast.Literal):
            raise PlanError("QUANTILE(expr, fraction) requires a literal fraction")
        extra_literal = call.args[1].value
    fn = aggregate_function(
        call.name, distinct=call.distinct, star=star, extra_literal=extra_literal
    )
    if star:
        arg_column = Column(
            SQLType.DOUBLE,
            np.zeros(frame.num_rows),
            np.ones(frame.num_rows, dtype=np.bool_),
        )
    else:
        if not call.args:
            raise PlanError("{}() requires an argument".format(call.name))
        arg_column = evaluate(call.args[0], frame)
    result_type = (
        SQLType.VARCHAR
        if arg_column.type is SQLType.VARCHAR
        and call.name.upper() in ("MIN", "MAX")
        else SQLType.DOUBLE
    )
    return fn, arg_column, result_type


# --------------------------------------------------------------------------
# Window
# --------------------------------------------------------------------------

_WINDOW_RANKERS = {"ROW_NUMBER", "RANK", "DENSE_RANK"}
_WINDOW_AGGREGATES = {"SUM", "COUNT", "AVG", "MIN", "MAX"}
_WINDOW_OFFSETS = {"LAG", "LEAD"}


def _window_kernel(window, frame):
    """Set up one window item: evaluates partition and order expressions
    plus the function argument against the full frame.

    Returns ``(groups, kernel, out, out_valid)``.  ``groups`` is the
    per-partition row-index list and ``kernel(indices)`` computes the
    item over one partition, writing into the shared output arrays; only
    rows in ``indices`` are touched, so partitions are independent.
    """
    num_rows = frame.num_rows
    partition_columns = [evaluate(expr, frame) for expr in window.partition_by]
    group_ids, _ = factorize_rows(partition_columns, num_rows)
    groups = group_row_indices(group_ids) if num_rows else []

    order_keys = [
        (evaluate(item.expr, frame), item.descending, item.nulls_first)
        for item in window.order_by
    ]
    # Ranks over the whole frame order every partition's rows.
    codes = order_codes(order_keys, num_rows) if order_keys else None

    func_name = window.func.name.upper()
    out = np.zeros(num_rows, dtype=np.float64)
    out_valid = np.ones(num_rows, dtype=np.bool_)

    arg_column = None
    if window.func.args and not isinstance(window.func.args[0], sqlast.Star):
        arg_column = evaluate(window.func.args[0], frame)

    def kernel(indices):
        ordered = indices
        if codes is not None:
            ordered = indices[np.argsort(codes[indices], kind="stable")]
        if func_name in _WINDOW_RANKERS:
            _window_rank(func_name, ordered, order_keys, out)
        elif func_name in _WINDOW_AGGREGATES:
            _window_aggregate(
                func_name, ordered, arg_column, bool(order_keys),
                out, out_valid,
            )
        elif func_name in _WINDOW_OFFSETS:
            _window_offset(
                func_name, window.func, ordered, arg_column, out, out_valid
            )
        else:
            raise ExecutionError(
                "unsupported window function {}()".format(window.func.name)
            )

    return groups, kernel, out, out_valid


def _window_rank(func_name, ordered, order_keys, out):
    if func_name == "ROW_NUMBER" or not order_keys:
        out[ordered] = np.arange(1, len(ordered) + 1, dtype=np.float64)
        return
    rank = 0
    dense = 0
    previous = None
    for position, row in enumerate(ordered):
        key = tuple(column.value_at(row) for column, _, _ in order_keys)
        if key != previous:
            dense += 1
            rank = position + 1
            previous = key
        out[row] = float(rank if func_name == "RANK" else dense)


def _window_aggregate(func_name, ordered, arg_column, running, out, out_valid):
    if arg_column is None:  # COUNT(*)
        values = np.ones(len(ordered), dtype=np.float64)
        valid = np.ones(len(ordered), dtype=np.bool_)
    else:
        taken = arg_column.take(ordered)
        values = taken.data.astype(np.float64)
        valid = taken.valid

    masked = np.where(valid, values, 0.0)
    if func_name == "COUNT":
        series = np.cumsum(valid.astype(np.float64))
    elif func_name == "SUM":
        series = np.cumsum(masked)
    elif func_name == "AVG":
        counts = np.cumsum(valid.astype(np.float64))
        with np.errstate(invalid="ignore", divide="ignore"):
            series = np.where(counts > 0, np.cumsum(masked) / counts, 0.0)
    elif func_name == "MIN":
        series = np.minimum.accumulate(np.where(valid, values, np.inf))
    else:  # MAX
        series = np.maximum.accumulate(np.where(valid, values, -np.inf))

    if not running:
        series = np.full(len(ordered), series[-1] if len(ordered) else 0.0)

    any_valid = np.cumsum(valid.astype(np.int64)) > 0
    if not running:
        any_valid = np.full(len(ordered), bool(valid.any()))
    if func_name in ("SUM", "AVG", "MIN", "MAX"):
        out_valid[ordered] = any_valid
    out[ordered] = np.where(np.isfinite(series), series, 0.0)


def _window_offset(func_name, call, ordered, arg_column, out, out_valid):
    offset = 1
    if len(call.args) > 1:
        literal = call.args[1]
        if not isinstance(literal, sqlast.Literal):
            raise PlanError("LAG/LEAD offset must be a literal")
        offset = int(literal.value)
    if arg_column is None:
        raise PlanError("LAG/LEAD require an argument")
    taken = arg_column.take(ordered)
    shift = offset if func_name == "LAG" else -offset
    for position, row in enumerate(ordered):
        source = position - shift
        if 0 <= source < len(ordered):
            value = taken.value_at(source)
            if value is None:
                out_valid[row] = False
            else:
                out[row] = float(value)
        else:
            out_valid[row] = False


# --------------------------------------------------------------------------
# Sort orders
# --------------------------------------------------------------------------


def order_codes(keys, num_rows):
    """One dense int64 code per row whose ascending stable order is the
    ordering by ``keys`` — ``(column, descending, nulls_first)`` triples
    in priority order; Postgres NULL placement by default (NULLs sort as
    larger than every value).

    Per key column: valid values get their rank among the distinct
    (possibly negated for DESC) values — NaN collapses to the highest
    rank, like every numpy sort — and NULL gets a dedicated code before
    or after the value range per the requested placement.  Codes combine
    mixed-radix across columns; the running code is re-densified
    (order-preserving) whenever one more column would take it past
    :data:`MAX_CODE_WIDTH`.
    """
    combined = np.zeros(num_rows, dtype=np.int64)
    width = 1
    for column, descending, nulls_first in keys:
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
        if width * cardinality > MAX_CODE_WIDTH:
            dense, combined = np.unique(combined, return_inverse=True)
            width = len(dense)
        combined = combined * np.int64(cardinality) + code
        width *= cardinality
    return combined


def _topn_composite(key):
    """Single float sort key: value sign-flipped for DESC, NULLs mapped
    to +/-inf per the requested (or Postgres-default) placement."""
    column, descending, nulls_first = key
    if column.type is SQLType.VARCHAR:
        codes, _ = factorize_column(column)
        values = codes.astype(np.float64)
        values = np.where(column.valid, values, 0.0)
    else:
        values = column.data.astype(np.float64)
    if descending:
        values = -values
    if nulls_first is None:
        null_first = descending  # Postgres: NULLs largest
    else:
        null_first = nulls_first
    return np.where(
        column.valid, values,
        -np.inf if null_first else np.inf,
    )


def _topn_select(composite, candidates, limit):
    """Canonical top-``limit`` of ``candidates`` by (composite, index).

    Ties at the selection boundary always resolve to the lowest row
    index, so the result equals the first ``limit`` rows of a stable
    full sort — regardless of candidate order.  That makes per-morsel
    partial top-N selections mergeable: the union of each morsel's
    canonical top-N contains the global canonical top-N.
    """
    values = composite[candidates]
    if limit >= len(candidates):
        return candidates[np.lexsort((candidates, values))]
    kth = np.partition(values, limit - 1)[limit - 1]
    keep = values <= kth
    pool = candidates[keep]
    order = np.lexsort((pool, values[keep]))
    return pool[order[:limit]]


# --------------------------------------------------------------------------
# Join keys
# --------------------------------------------------------------------------


def _join_eligible(left_keys, right_keys):
    """Row indices of each side that can match at all: every key part
    is neither NULL nor NaN (NaN never equals NaN).  A VARCHAR key never
    equals a numeric one, so a pair of mixed types leaves no row
    eligible on either side."""
    left_ok = np.ones(len(left_keys[0]), dtype=np.bool_)
    right_ok = np.ones(len(right_keys[0]), dtype=np.bool_)
    for left_column, right_column in zip(left_keys, right_keys):
        left_str = left_column.type is SQLType.VARCHAR
        if left_str != (right_column.type is SQLType.VARCHAR):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        left_ok &= left_column.valid
        right_ok &= right_column.valid
        if not left_str:
            with np.errstate(invalid="ignore"):
                if left_column.type is SQLType.DOUBLE:
                    left_ok &= ~np.isnan(left_column.data)
                if right_column.type is SQLType.DOUBLE:
                    right_ok &= ~np.isnan(right_column.data)
    return np.flatnonzero(left_ok), np.flatnonzero(right_ok)


def _join_codes(left_keys, right_keys, left_rows, right_rows):
    """Shared dense int64 codes for the eligible join rows of both sides.

    Both columns of a key pair factorize against the union of their
    distinct values, so equal values get equal codes across sides
    (booleans compare equal to 0.0/1.0).  Codes combine mixed-radix
    across key pairs; both sides are re-densified together whenever one
    more pair would take the code past :data:`MAX_CODE_WIDTH`.
    """
    left_combined = np.zeros(len(left_rows), dtype=np.int64)
    right_combined = np.zeros(len(right_rows), dtype=np.int64)
    if not len(left_rows) or not len(right_rows):
        return left_combined, right_combined
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
        cardinality = len(uniques)
        if width * cardinality > MAX_CODE_WIDTH:
            dense, inverse = np.unique(
                np.concatenate([left_combined, right_combined]),
                return_inverse=True,
            )
            left_combined = inverse[:len(left_rows)]
            right_combined = inverse[len(left_rows):]
            width = len(dense)
        left_combined = left_combined * np.int64(cardinality) + left_code
        right_combined = right_combined * np.int64(cardinality) + right_code
        width *= cardinality
    return left_combined, right_combined


def _equi_keys(condition, left, right):
    """Decompose an AND-tree of equality conditions into left/right keys."""
    pairs = []

    def visit(node):
        if isinstance(node, sqlast.BinaryOp) and node.op.upper() == "AND":
            visit(node.left)
            visit(node.right)
            return
        if isinstance(node, sqlast.BinaryOp) and node.op == "=":
            sides = []
            for operand in (node.left, node.right):
                sides.append(_binds_to(operand, left, right))
            if sides[0] == "left" and sides[1] == "right":
                pairs.append((node.left, node.right))
                return
            if sides[0] == "right" and sides[1] == "left":
                pairs.append((node.right, node.left))
                return
        raise PlanError(
            "only equi-join conditions are supported: {}".format(
                condition.to_sql()
            )
        )

    visit(condition)
    if not pairs:
        raise PlanError("join condition has no equality predicates")
    left_exprs = [pair[0] for pair in pairs]
    right_exprs = [pair[1] for pair in pairs]
    return left_exprs, right_exprs


def _binds_to(expr, left, right):
    """Which side an expression's column references resolve against."""
    refs = [
        node for node in sqlast.walk_expr(expr)
        if isinstance(node, sqlast.ColumnRef)
    ]
    if not refs:
        raise PlanError("join key must reference a column")
    sides = set()
    for ref in refs:
        on_left = _resolvable(left, ref)
        on_right = _resolvable(right, ref)
        if on_left and on_right:
            raise PlanError(
                "ambiguous join key {!r}; qualify it".format(ref.name)
            )
        if on_left:
            sides.add("left")
        elif on_right:
            sides.add("right")
        else:
            raise PlanError("unknown join key column {!r}".format(ref.name))
    if len(sides) != 1:
        raise PlanError("join key mixes both sides")
    return sides.pop()


def _resolvable(frame, ref):
    try:
        frame.resolve(ref.name, ref.table)
    except PlanError:
        return False
    return True
