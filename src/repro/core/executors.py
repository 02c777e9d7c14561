"""Hybrid plan execution: server segments via SQL, client suffixes via the
reactive dataflow.

The middleware "evaluates the dataflow and handles communication across
the client and server components" (§2).  For each sink dataset the
executor walks the planned cut: translatable prefix steps compose into
server SQL (value transforms like extent run as scalar queries mid-
composition) and the remaining steps execute in a per-segment client
dataflow.  What crosses the simulated network is the *interaction*, not
the statement: a segment's statements are answered from the client cache
for as long as their SQL text can be computed there, and from the first
miss on the segment travels as one :class:`SegmentProgram` whose
dependent values (extent -> bin parameters) the server resolves itself.
Every program of a run joins one exchange, charged as one round trip.
"""

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.data import ColumnBatch
from repro.dataflow import Dataflow, DataRef, DataSource, OperatorRef, SignalRef
from repro.dataflow.pulse import Pulse
from repro.dataflow.transforms import create_transform
from repro.dataflow.transforms.base import ValueTransform
from repro.expr.evaluator import Evaluator
from repro.net.channel import Exchange
from repro.net.payload import wire_bytes
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


@dataclass
class SegmentProgram:
    """One server segment as it crosses the link: all the server half
    needs to compose and run the segment's statements, as plain JSON.

    ``steps`` are ``{"type", "params"}`` dicts in chain order.  A value
    transform's step also has a ``"name"``: its result is kept under it
    in ``values``, where the ``{"$value": name}`` placeholders in later
    steps' params find it.  ``{"$table": name}`` stands for a server-
    resident lookup table, and a step's ``"grid": [name, resolution]``
    takes the step's bin extent and step from the tile brush grid over
    the named extent.  ``values`` starts as what the client already
    holds (its cache hits); the walker adds what it computes.
    """

    root: str
    columns: list
    steps: list
    #: the signal values the steps read
    signals: dict
    #: final output fields (mark-driven projection), or None for all
    project: Optional[list] = None
    values: dict = field(default_factory=dict)
    merge: bool = True
    rewrite: bool = True

    def encode(self):
        return json.dumps(vars(self), separators=(",", ":"))


class ServerSegmentRunner:
    """Runs the server-assigned prefixes of one run's chains and owns the
    run's exchange: :meth:`close` charges the one round trip."""

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
        #: sink dataset of the segment being run (tags query log entries)
        self.dataset = dataset
        #: the cut currently executing (slow-query log context)
        self.active_cut = None
        self.queries = []
        self.server_seconds = 0.0
        self.network_seconds = 0.0
        #: the segment being walked, until its first miss sends it
        self._program = None
        self._prefetch = False
        #: opened by the run's first miss; an all-hit run never has one
        self._exchange = None
        #: (entry, cut) of every statement awaiting its share of the charge
        self._inflight = []

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

    def program(self, root_table, base_columns, steps, cut,
                final_fields=None):
        """The :class:`SegmentProgram` of ``steps[:cut]`` under the current
        signal values; ``final_fields`` project a segment that runs the
        whole chain."""
        evaluator = Evaluator(signals=self.signals)
        read = set()
        compiled = []
        for step in steps[:cut]:
            read |= step.signal_names(self.signals)
            entry = {
                "type": step.spec_type,
                "params": self._resolve_params(step.operator, evaluator),
            }
            if isinstance(step.operator, ValueTransform):
                entry["name"] = step.operator.name
            compiled.append(entry)
        return SegmentProgram(
            root=root_table, columns=list(base_columns), steps=compiled,
            signals={name: self.signals[name] for name in read},
            project=sorted(final_fields)
            if final_fields and cut >= len(steps) else None,
            merge=self.merge, rewrite=self.rewrite,
        )

    def walk(self, program, fetch):
        """The one step walker: compose ``program``'s steps into SQL in
        chain order and ask ``fetch(sql, kind)`` for the batch of each
        statement — every value transform's scalar query as it is
        reached, the rows query last.  Returns (rows batch, output
        columns), or (None, None) as soon as ``fetch`` has no answer;
        computed values land in ``program.values``.
        """
        builder = SqlPipelineBuilder(program.root, program.columns)
        values = program.values
        signals = program.signals
        for step in program.steps:
            params = _bind(step["params"], values, self.backend)
            if "grid" in step:
                from repro.tiles.cube import BrushGrid

                extent, resolution = step["grid"]
                grid = BrushGrid.from_extent(values[extent], resolution)
                params.update(extent=[grid.start, grid.top], step=grid.step)
            name = step.get("name")
            if name is None:
                builder.add_step(step["type"], params, signals)
            elif name not in values:
                translation = builder.value_query(
                    step["type"], params, signals
                )
                batch = fetch(self.finalize_sql(translation.select), "value")
                if batch is None:
                    return None, None
                values[name] = _extract_value(step["type"], batch)
        sql = self.finalize_sql(builder.query(project_fields=program.project))
        return fetch(sql, "rows"), builder.columns

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
        self._prefetch = prefetch
        program = self.program(root_table, base_columns, steps, cut,
                               final_fields)
        batch, columns = self.run(program)
        return batch, program.values, batch.column_names or list(columns)

    def run(self, program):
        """Walk ``program`` with the cache in front of the server; returns
        (rows batch, output columns)."""
        self._program = program
        return self.walk(program, self._fetch)

    def segment_cached(self, root_table, base_columns, steps, cut,
                       final_fields=None):
        """True when every query of this segment (value queries plus the
        final rows query) is already in the cache — the "cache state"
        input to interaction-time plan choice (§2.2 step 4).

        Purely a peek: nothing executes, nothing is recorded.
        """
        if self.cache is None:
            return False

        def peek(sql, kind):
            # peek, not get: a cache probe must not count as a hit
            # (neither on the integer counters nor the metrics plane);
            # of the rows only their presence is asked, nothing is read
            if kind == "rows":
                return self.cache.contains(sql) or None
            entry = self.cache.peek(sql)
            return None if entry is None else entry.as_batch()

        program = self.program(root_table, base_columns, steps, cut,
                               final_fields)
        return self.walk(program, peek)[0] is not None

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
        program = self.program(root_table, base_columns, steps, cut,
                               final_fields)
        values = program.values
        batch = None
        temp_index = 0
        for step in program.steps:
            params = _bind(step["params"], values, self.backend)
            builder = SqlPipelineBuilder(current_table, current_columns)
            if "name" in step:
                translation = builder.value_query(
                    step["type"], params, program.signals
                )
                value_batch = self._round_trip(
                    self.finalize_sql(translation.select), "value")
                values[step["name"]] = _extract_value(
                    step["type"], value_batch)
                continue
            builder.add_step(step["type"], params, program.signals)
            batch = self._round_trip(
                self.finalize_sql(builder.query()), "rows")
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
            sql = self.finalize_sql(
                builder.query(project_fields=program.project))
            batch = self._round_trip(sql, "rows")
        return batch, values, current_columns

    def _round_trip(self, sql, kind):
        """One statement as a request of its own (the per-operator path)."""
        self._send(sql)
        batch = self._execute(sql, kind)
        self.close(kind)
        return batch

    def _send(self, text):
        """``text`` joins the run's exchange, opening it if need be."""
        if self._exchange is None:
            self._exchange = Exchange(self.channel)
        self._exchange.programs.append(text)
        self._exchange.sinks.append(self.dataset)

    def _fetch(self, sql, kind):
        """One statement of the segment being walked: from the client
        cache for as long as the segment's keys can be computed there,
        from the server — the segment's program joining the exchange —
        from the first miss on.

        Returns the result as a :class:`ColumnBatch` — the batch flows
        from the backend through the cache to the caller without ever
        materializing dict rows on this path.
        """
        program = self._program
        if self.cache is not None:
            if program is None:
                # the text depends on a value only the server has yet
                self.cache.miss()
            else:
                entry = self.cache.get(sql)
                if entry is not None:
                    if self.tracer.enabled:
                        self.tracer.measured_span(
                            "sql.cached", 0.0, kind=kind,
                            rows=entry.num_rows, dataset=self.dataset,
                            sql=sql,
                        )
                    self._log(sql, kind, entry.num_rows, 0.0, cached=True)
                    return entry.as_batch()
        if program is not None:
            self._program = None
            self._send(program.encode())
        return self._execute(sql, kind)

    def _log(self, sql, kind, rows, server_seconds, cached):
        if self.metrics.enabled:
            self.metrics.inc("sql.queries", kind=kind,
                             cached="true" if cached else "false")
        entry = QueryLogEntry(
            sql=sql, rows=rows, server_seconds=server_seconds,
            network_seconds=0.0, cached=cached, kind=kind,
            dataset=self.dataset,
        )
        self.queries.append(entry)
        return entry

    def _execute(self, sql, kind):
        """Run one statement on the server; its batch is part of the
        exchange's response and is cached under its SQL text."""
        tracer = self.tracer
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
        self._exchange.responses.append(response_bytes)
        self.server_seconds += result.seconds
        if self.metrics.enabled:
            self.metrics.observe("sql.server_seconds", result.seconds)
        entry = self._log(sql, "prefetch" if self._prefetch else kind,
                          batch.num_rows, result.seconds, cached=False)
        self._inflight.append((entry, self.active_cut))
        if self.cache is not None:
            self.cache.put(
                sql, CacheEntry(batch=batch, wire_bytes=response_bytes)
            )
        return batch

    def close(self, label=""):
        """Charge the run's exchange — one round trip for everything its
        segments fetched, none when every statement hit — and give each
        fetched statement its share: the transfer time of its own bytes,
        the first also the latency."""
        exchange, self._exchange = self._exchange, None
        if exchange is None:
            return
        inflight, self._inflight = self._inflight, []
        metrics = self.metrics
        for (entry, cut), response_bytes, seconds in zip(
                inflight, exchange.responses, exchange.close(label)):
            entry.network_seconds = seconds
            self.network_seconds += seconds
            if metrics.enabled:
                metrics.slowlog.maybe_record(
                    entry.server_seconds + seconds, sql=entry.sql,
                    server_seconds=entry.server_seconds,
                    network_seconds=seconds, kind=entry.kind,
                    dataset=entry.dataset, backend=self.backend.name,
                    cut=cut, rows=entry.rows,
                    response_bytes=response_bytes, cached=False,
                    session=metrics.labels.get("session", ""),
                    tenant=metrics.labels.get("tenant", ""),
                )

    def _resolve_params(self, operator, evaluator):
        """``operator``'s params as they go into a program: signal
        expressions evaluated, live references as placeholders."""
        def resolve(value):
            if isinstance(value, SignalRef):
                return evaluator.evaluate(value.ast)
            if isinstance(value, OperatorRef):
                return {"$value": value.operator.name}
            if isinstance(value, DataRef):
                table = _server_table(value.operator, self.backend)
                if table is None:
                    raise ExecutorError(
                        "cross-dataset reference {!r} is not a server-"
                        "resident base table".format(value.operator.name)
                    )
                return {"$table": table}
            if isinstance(value, dict):
                return {key: resolve(item) for key, item in value.items()}
            if isinstance(value, list):
                return [resolve(item) for item in value]
            return value

        return {key: resolve(value) for key, value in operator.params.items()}


def _extract_value(spec_type, batch):
    if spec_type == "extent":
        if batch.num_rows == 0:
            return [None, None]
        row = batch.row(0)
        return [row.get("min"), row.get("max")]
    raise ExecutorError("unknown value transform {!r}".format(spec_type))


def _bind(value, values, backend):
    """Program params with their placeholders filled in."""
    if isinstance(value, dict):
        if "$value" in value:
            name = value["$value"]
            if name not in values:
                raise ExecutorError(
                    "server step references {!r} which was not computed "
                    "on the server".format(name)
                )
            return values[name]
        if "$table" in value:
            return _lookup_table(value["$table"], backend)
        return {key: _bind(item, values, backend)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_bind(item, values, backend) for item in value]
    return value


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


def _server_table(operator, backend):
    """Name of the backend table ``operator`` sources — a transform-free
    root dataset that is loaded in the backend — or None."""
    if not isinstance(operator, DataSource):
        return None
    name = operator.name
    if not name.endswith(":source"):
        return None
    table = name[: -len(":source")]
    return table if table in backend.table_names() else None


def _lookup_table(table, backend):
    """LookupTable marker (with column kinds) for a backend table."""
    from repro.sqlgen.translate import LookupTable

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
