"""Hybrid plan execution: server segments via SQL, client suffixes via the
reactive dataflow.

The middleware "evaluates the dataflow and handles communication across
the client and server components" (§2).  For each sink dataset the
executor walks the planned cut: translatable prefix steps compose into
server SQL (value transforms like extent run as scalar queries mid-
composition), the result crosses the simulated network once, and the
remaining steps execute in a per-segment client dataflow.
"""

import time

from repro.data import ColumnBatch
from repro.dataflow import Dataflow, DataRef, DataSource, OperatorRef, SignalRef
from repro.dataflow.pulse import Pulse
from repro.dataflow.transforms import create_transform
from repro.dataflow.transforms.base import ValueTransform
from repro.expr.evaluator import Evaluator
from repro.expr.parser import parse
from repro.net.payload import request_bytes, wire_bytes
from repro.core.cache import CacheEntry
from repro.core.results import QueryLogEntry
from repro.metrics import NULL as NULL_METRICS
from repro.sqlgen.compose import SqlPipelineBuilder
from repro.sqlgen.dialect import render
from repro.sqlgen.merge import merge_query
from repro.sqlgen.rewrite import rewrite_query
from repro.telemetry.tracer import NOOP


class ExecutorError(Exception):
    """Hybrid execution failed."""


class ServerSegmentRunner:
    """Runs the server-assigned prefix of one chain."""

    def __init__(self, backend, channel, signals, cache=None,
                 merge=True, rewrite=True, tracer=None, dataset="",
                 metrics=None):
        self.backend = backend
        self.channel = channel
        self.signals = signals
        self.cache = cache
        self.merge = merge
        self.rewrite = rewrite
        self.tracer = tracer or NOOP
        #: always-on plane; the session passes its labeled MetricsView
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: sink dataset this segment computes (tags query log entries)
        self.dataset = dataset
        #: the cut currently executing (slow-query log context)
        self.active_cut = None
        self.queries = []
        self.server_seconds = 0.0
        self.network_seconds = 0.0

    def finalize_sql(self, select):
        if not self.tracer.enabled:
            if self.merge:
                select = merge_query(select)
            if self.rewrite:
                select = rewrite_query(select)
            return render(select, self.backend.name)
        with self.tracer.span("sql.translate", dataset=self.dataset) as span:
            if self.merge:
                select = merge_query(select)
            if self.rewrite:
                select = rewrite_query(select)
            sql = render(select, self.backend.name)
            span.set(sql=sql, merged=self.merge, rewritten=self.rewrite)
        return sql

    def run_segment(self, root_table, base_columns, steps, cut,
                    final_fields=None, prefetch=False):
        """Execute steps[0:cut] on the server.

        Returns (batch, value_results, out_columns): the transfer result
        as a :class:`ColumnBatch` (it stays columnar into the cache and
        the client suffix), plus ``value_results`` mapping value-operator
        names to their computed values (extent results), needed both by
        later server steps and by the client suffix.
        """
        if not self.tracer.enabled:
            return self._run_segment(root_table, base_columns, steps, cut,
                                     final_fields, prefetch)
        with self.tracer.span("server.segment", dataset=self.dataset,
                              root=root_table, cut=cut,
                              prefetch=prefetch) as span:
            out = self._run_segment(root_table, base_columns, steps, cut,
                                    final_fields, prefetch)
            span.set(transfer_rows=out[0].num_rows)
            return out

    def _run_segment(self, root_table, base_columns, steps, cut,
                     final_fields=None, prefetch=False):
        self.active_cut = cut
        builder = SqlPipelineBuilder(root_table, base_columns)
        value_results = {}
        for step in steps[:cut]:
            params = self._resolve_params(step.operator, value_results)
            if isinstance(step.operator, ValueTransform):
                translation = builder.value_query(
                    step.spec_type, params, self.signals
                )
                sql = self.finalize_sql(translation.select)
                batch = self._execute(sql, kind="value", prefetch=prefetch)
                value = self._extract_value(step.spec_type, batch)
                value_results[step.operator.name] = value
            else:
                builder.add_step(step.spec_type, params, self.signals)

        project = final_fields if cut >= len(steps) else None
        final = builder.query(project_fields=project)
        sql = self.finalize_sql(final)
        batch = self._execute(sql, kind="rows", prefetch=prefetch)
        columns = batch.column_names or list(builder.columns)
        return batch, value_results, columns

    def execute_value(self, builder, spec_type, params):
        """Run one value transform (extent) as a scalar query against the
        pipeline composed in ``builder`` and return its value.  Used by
        the tile builder, which needs the computed value *between* steps
        (the brush grid derives from the measured extent)."""
        translation = builder.value_query(spec_type, params, self.signals)
        sql = self.finalize_sql(translation.select)
        batch = self._execute(sql, kind="value")
        return self._extract_value(spec_type, batch)

    def execute_rows(self, builder, project_fields=None):
        """Run the rows query of the pipeline composed in ``builder`` and
        return the result batch (with caching and network accounting)."""
        sql = self.finalize_sql(builder.query(project_fields=project_fields))
        return self._execute(sql, kind="rows")

    def segment_cached(self, root_table, base_columns, steps, cut,
                       final_fields=None):
        """True when every query of this segment (value queries plus the
        final rows query) is already in the cache — the "cache state"
        input to interaction-time plan choice (§2.2 step 4).

        Purely a peek: nothing executes, nothing is recorded.
        """
        if self.cache is None:
            return False
        builder = SqlPipelineBuilder(root_table, base_columns)
        value_results = {}
        for step in steps[:cut]:
            params = self._resolve_params(step.operator, value_results)
            if isinstance(step.operator, ValueTransform):
                translation = builder.value_query(
                    step.spec_type, params, self.signals
                )
                sql = self.finalize_sql(translation.select)
                # peek, not get: a cache probe must not count as a hit
                # (neither on the integer counters nor the metrics plane)
                entry = self.cache.peek(sql)
                if entry is None:
                    return False
                value_results[step.operator.name] = self._extract_value(
                    step.spec_type, entry.as_batch()
                )
            else:
                builder.add_step(step.spec_type, params, self.signals)
        project = final_fields if cut >= len(steps) else None
        sql = self.finalize_sql(builder.query(project_fields=project))
        return self.cache.contains(sql)

    def run_segment_per_op(self, root_table, base_columns, steps, cut,
                           final_fields=None):
        """The unmerged baseline: one round trip per server operator.

        Each step's result returns to the client and is re-uploaded as a
        temp table for the next step — the "unnecessary network round
        trips for data transfers" that node merging (§2.2 step 3) avoids.
        """
        self.active_cut = cut
        current_table = root_table
        current_columns = list(base_columns)
        value_results = {}
        batch = None
        temp_index = 0
        for step in steps[:cut]:
            params = self._resolve_params(step.operator, value_results)
            builder = SqlPipelineBuilder(current_table, current_columns)
            if isinstance(step.operator, ValueTransform):
                translation = builder.value_query(
                    step.spec_type, params, self.signals
                )
                sql = self.finalize_sql(translation.select)
                value_batch = self._execute(sql, kind="value")
                value_results[step.operator.name] = self._extract_value(
                    step.spec_type, value_batch
                )
                continue
            builder.add_step(step.spec_type, params, self.signals)
            sql = self.finalize_sql(builder.query())
            batch = self._execute(sql, kind="rows")
            current_columns = builder.columns
            # Ship the intermediate back up as a temp table (upload cost);
            # the batch goes back verbatim, no row round-trip.
            temp_index += 1
            current_table = "__seg_{}".format(temp_index)
            self.backend.load_table(current_table, batch)
            upload_bytes = wire_bytes(batch)
            self.network_seconds += self.channel.request(
                upload_bytes, 64, label="upload"
            )

        # Final fetch (either the last intermediate or the raw table).
        if batch is None:
            builder = SqlPipelineBuilder(current_table, current_columns)
            project = final_fields if cut >= len(steps) else None
            sql = self.finalize_sql(builder.query(project_fields=project))
            batch = self._execute(sql, kind="rows")
        return batch, value_results, current_columns

    def _execute(self, sql, kind, prefetch=False):
        """Run one query with caching and network accounting.

        Returns the result as a :class:`ColumnBatch` — the batch flows
        from the backend through the cache to the caller without ever
        materializing dict rows on this path.
        """
        tracer = self.tracer
        metrics = self.metrics
        if self.cache is not None:
            entry = self.cache.get(sql)
            if entry is not None:
                if tracer.enabled:
                    tracer.measured_span(
                        "sql.cached", 0.0, kind=kind, rows=entry.num_rows,
                        dataset=self.dataset, sql=sql,
                    )
                if metrics.enabled:
                    metrics.inc("sql.queries", kind=kind, cached="true")
                self.queries.append(
                    QueryLogEntry(sql=sql, rows=entry.num_rows,
                                  server_seconds=0.0, network_seconds=0.0,
                                  cached=True, kind=kind,
                                  dataset=self.dataset)
                )
                return entry.as_batch()
        if tracer.enabled:
            with tracer.span("sql.execute", kind=kind, sql=sql,
                             dataset=self.dataset,
                             backend=self.backend.name) as span:
                result, nodes = self.backend.execute_with_node_stats(sql)
                span.set(rows=result.table.num_rows,
                         server_seconds=result.seconds)
                if nodes:
                    _graft_plan_nodes(tracer, nodes)
        else:
            result = self.backend.execute(sql)
        batch = result.table
        response_bytes = wire_bytes(batch)
        network = self.channel.request(
            request_bytes(sql), response_bytes,
            label="prefetch" if prefetch else kind,
        )
        if not prefetch:
            self.server_seconds += result.seconds
            self.network_seconds += network
        if metrics.enabled:
            metrics.inc("sql.queries",
                        kind="prefetch" if prefetch else kind,
                        cached="false")
            metrics.observe("sql.server_seconds", result.seconds)
            metrics.slowlog.maybe_record(
                result.seconds + network, sql=sql,
                server_seconds=result.seconds, network_seconds=network,
                kind="prefetch" if prefetch else kind,
                dataset=self.dataset, backend=self.backend.name,
                cut=self.active_cut, rows=batch.num_rows,
                response_bytes=response_bytes, cached=False,
                session=metrics.labels.get("session", ""),
                tenant=metrics.labels.get("tenant", ""),
            )
        self.queries.append(
            QueryLogEntry(
                sql=sql, rows=batch.num_rows, server_seconds=result.seconds,
                network_seconds=network, cached=False,
                kind="prefetch" if prefetch else kind,
                dataset=self.dataset,
            )
        )
        if self.cache is not None:
            self.cache.put(
                sql, CacheEntry(batch=batch, wire_bytes=response_bytes)
            )
        return batch

    def _extract_value(self, spec_type, batch):
        if spec_type == "extent":
            if batch.num_rows == 0:
                return [None, None]
            row = batch.row(0)
            return [row.get("min"), row.get("max")]
        raise ExecutorError(
            "unknown value transform {!r}".format(spec_type)
        )

    def _resolve_params(self, operator, value_results):
        evaluator = Evaluator(signals=self.signals)

        def resolve(value):
            if isinstance(value, SignalRef):
                return evaluator.evaluate(parse(value.expression))
            if isinstance(value, OperatorRef):
                name = value.operator.name
                if name not in value_results:
                    raise ExecutorError(
                        "server step references {!r} which was not computed "
                        "on the server".format(name)
                    )
                return value_results[name]
            if isinstance(value, DataRef):
                marker = _lookup_table_for(value.operator, self.backend)
                if marker is None:
                    raise ExecutorError(
                        "cross-dataset reference {!r} is not a server-"
                        "resident base table".format(value.operator.name)
                    )
                return marker
            if isinstance(value, dict):
                return {key: resolve(item) for key, item in value.items()}
            if isinstance(value, list):
                return [resolve(item) for item in value]
            return value

        return {key: resolve(value) for key, value in operator.params.items()}


def _graft_plan_nodes(tracer, nodes):
    """Graft engine EXPLAIN ANALYZE nodes into the span tree as measured
    child spans of the currently open (sql.execute) span.

    Node times are inclusive of children, so a child span laid at its
    parent's start always fits; siblings (join inputs) are laid out
    sequentially, each starting on the very float its predecessor ended
    on, so the single-lane nesting stays valid however an exporter
    rounds.  A node that gathered its input before reducing carries the
    reason as a ``fallback`` attribute, and nodes the morsel-driven
    executor split additionally get one ``engine:morsel`` child span per
    morsel.
    """
    anchor = tracer.current_span()
    spans = []
    cursors = {}
    for node in nodes:
        parent_index = node.get("parent")
        parent = anchor if parent_index is None else spans[parent_index]
        start = cursors.get(id(parent))
        if start is None:
            start = parent.start if parent is not None else 0.0
        seconds = node.get("seconds", 0.0)
        span = tracer.measured_span(
            "engine:" + node.get("label", "node").split()[0],
            seconds,
            start=start,
            parent=parent,
            label=node.get("label", ""),
            rows_in=node.get("rows_in"),
            rows_out=node.get("rows_out"),
            self_seconds=node.get("self_seconds"),
        )
        cursors[id(parent)] = span.end
        spans.append(span)
        fallback = node.get("fallback")
        if fallback:
            span.set(fallback=fallback)
        morsels = node.get("morsels") or ()
        if morsels:
            _graft_morsels(tracer, span, seconds, morsels)
    return spans


def _graft_morsels(tracer, node_span, node_seconds, morsels):
    """Per-morsel child spans under one engine node span.

    Morsels ran concurrently, so their summed wall time can exceed the
    node's wall time; on the single-lane trace they are laid out
    sequentially, compressed to fit inside the node span when needed
    (each morsel's true duration stays in its ``morsel_seconds``
    attribute, the thread that ran it in ``worker``).  Each starts where
    its predecessor ended and none ends after the node.
    """
    total = sum(record.get("seconds", 0.0) for record in morsels)
    scale = 1.0 if total <= node_seconds or total <= 0.0 else (
        node_seconds / total
    )
    cursor = node_span.start
    for record in morsels:
        seconds = record.get("seconds", 0.0)
        span = tracer.measured_span(
            "engine:morsel",
            seconds * scale,
            start=cursor,
            parent=node_span,
            op=record.get("op"),
            index=record.get("index"),
            worker=record.get("worker", 0),
            rows_in=record.get("rows_in"),
            rows_out=record.get("rows_out"),
            morsel_seconds=seconds,
        )
        cursor = span.end = min(span.end, node_span.end)


def _lookup_table_for(operator, backend):
    """LookupTable marker when ``operator`` sources a transform-free root
    dataset that is loaded in the backend."""
    from repro.dataflow.transforms.base import DataSource
    from repro.sqlgen.translate import LookupTable

    if not isinstance(operator, DataSource):
        return None
    name = operator.name
    if not name.endswith(":source"):
        return None
    table = name[: -len(":source")]
    if table not in backend.table_names():
        return None
    types = ()
    schema = backend.table_schema(table)
    if schema:
        kind_map = {"DOUBLE": "num", "VARCHAR": "str", "BOOLEAN": "bool"}
        types = tuple(
            (column, kind_map.get(getattr(sql_type, "name", str(sql_type)),
                                  "other"))
            for column, sql_type in schema
        )
    return LookupTable(table, types=types)


class ClientSuffixRunner:
    """Runs the client-assigned suffix of one chain in a fresh dataflow.

    ``columnar=False`` forces every cloned transform onto the
    row-at-a-time path (the pre-columnar behavior) — the fuzz oracle
    uses this to difference the two execution paths.
    """

    def __init__(self, signals, data_resolver=None, tracer=None,
                 columnar=True):
        self.signals = signals
        self.data_resolver = data_resolver
        self.tracer = tracer or NOOP
        self.columnar = columnar
        self.client_seconds = 0.0
        #: per-operator wall time of the last suffix run (dashboard data:
        #: "tooltips showing the details behind the nodes", §1)
        self.op_seconds = {}

    def run_suffix(self, steps, cut, input_data, value_results):
        """Execute steps[cut:] over ``input_data`` (a ColumnBatch or a
        row list); returns the output :class:`Pulse` — still columnar
        when every suffix transform kept the batch form."""
        suffix = steps[cut:]
        if not suffix:
            if isinstance(input_data, ColumnBatch):
                return Pulse(batch=input_data, changed=True)
            return Pulse(rows=list(input_data), changed=True)

        flow = Dataflow()
        flow.tracer = self.tracer
        for name, value in self.signals.items():
            flow.add_signal(name, value)
        source = flow.add(DataSource("__input", input_data))
        current = source
        clones = {}
        for step in suffix:
            params = self._clone_params(step.operator, value_results, clones)
            clone = flow.add(
                create_transform(
                    step.spec_type, "c:" + step.operator.name, params,
                    source=current,
                )
            )
            clone.columnar = self.columnar
            clones[step.operator.name] = clone
            current = clone

        input_rows = (
            input_data.num_rows if isinstance(input_data, ColumnBatch)
            else len(input_data)
        )
        start = time.perf_counter()
        if self.tracer.enabled:
            with self.tracer.span("client.suffix", cut=cut,
                                  input_rows=input_rows,
                                  steps=len(suffix)):
                flow.run()
        else:
            flow.run()
        self.client_seconds += time.perf_counter() - start
        for original_name, clone in clones.items():
            self.op_seconds[original_name] = clone.eval_seconds
        pulse = current.last_pulse
        return pulse if pulse is not None else Pulse(rows=[], changed=True)

    def _clone_params(self, operator, value_results, clones):
        def clone(value):
            if isinstance(value, OperatorRef):
                name = value.operator.name
                if name in clones:
                    return OperatorRef(clones[name])
                if name in value_results:
                    return value_results[name]
                raise ExecutorError(
                    "client step references {!r} which is neither in the "
                    "suffix nor computed on the server".format(name)
                )
            if isinstance(value, DataRef):
                if self.data_resolver is None:
                    raise ExecutorError("no resolver for cross-dataset data")
                return self.data_resolver(value.operator)
            if isinstance(value, dict):
                return {key: clone(item) for key, item in value.items()}
            if isinstance(value, list):
                return [clone(item) for item in value]
            return value

        return {key: clone(value) for key, value in operator.params.items()}
