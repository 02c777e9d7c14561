"""The VegaPlus session: the public API of this reproduction.

A session owns the compiled spec, the backend with loaded data, the
simulated network channel, the partition optimizer, the result cache, and
the prefetcher — the full middleware stack of Figure 1.  Typical use::

    from repro import VegaPlus
    from repro.datagen import generate_flights
    from repro.spec import flights_histogram_spec

    session = VegaPlus(
        flights_histogram_spec(),
        data={"flights": generate_flights(100_000)},
        backend="embedded",
        latency_ms=20,
    )
    startup = session.startup()          # optimizer-chosen hybrid plan
    baseline = session.run_client_only() # the Vega baseline
    result = session.interact("maxbins", 30)
"""

import collections
import itertools
import time

from repro.backends import Backend, create_backend
from repro.compile import compile_spec
from repro.core.cache import ResultCache
from repro.core.executors import ClientSuffixRunner, ServerSegmentRunner
from repro.core.prefetch import Prefetcher
from repro.core.results import RunResult
from repro.engine import Table, compute_stats
from repro.net import NetworkChannel
from repro.planner import (
    CostParameters,
    PartitionOptimizer,
    PartitionPlan,
    interaction_plans,
    resolve_chain,
    signal_frontier,
)
from repro.metrics import NULL as NULL_METRICS, resolve_metrics
from repro.planner.plans import CostBreakdown, DatasetPlan
from repro.telemetry.tracer import as_tracer

#: process-wide source of default session ids (the ``session=`` label)
_SESSION_IDS = itertools.count(1)

#: how many of the most recent RunResults a session keeps (each holds
#: every sink's rows, and a pooled serving session lives for days)
HISTORY_RESULTS = 32


class SessionError(Exception):
    """Misuse of the session API."""


class _SinkState:
    """Cached execution state for one sink dataset."""

    def __init__(self, root, steps):
        self.root = root
        self.steps = steps
        #: the server segment's result batch (columnar), reused by
        #: client-partial re-executions
        self.transfer = None
        self.value_results = {}
        self.rows = None
        #: the cut the cached transfer corresponds to; a client-partial
        #: re-execution is only valid when the plan's cut matches it
        self.cut_executed = None


class VegaPlus:
    """A VegaPlus middleware session over one specification."""

    def __init__(self, spec, data=None, backend="embedded", channel=None,
                 latency_ms=20.0, bandwidth_mbps=100.0, cost_params=None,
                 merge_queries=True, rewrite_sql=True, cache_entries=64,
                 prefetch_budget=3, validate=True,
                 per_operator_roundtrips=False, dynamic_replan=False,
                 trace=False, parallelism=None, columnar=True,
                 tiles=True, metrics=True, tenant=None, session_id=None,
                 cache=None):
        #: telemetry: False/None = off (no-op tracer), True = record, or
        #: pass a :class:`repro.telemetry.Tracer` to share one across
        #: sessions.
        self.tracer = as_tracer(trace)
        #: always-on metrics plane: True (default) = the process-wide
        #: registry, False/None = off, or pass a
        #: :class:`repro.metrics.MetricsRegistry` to isolate.  Every
        #: metric this session emits carries ``session=`` (and, when
        #: given, ``tenant=``) labels, so concurrent sessions on one
        #: registry aggregate exactly.
        registry = resolve_metrics(metrics)
        self.session_id = session_id or "s{}".format(next(_SESSION_IDS))
        self.tenant = tenant
        if registry is None:
            self.metrics = NULL_METRICS
        else:
            labels = {"session": self.session_id}
            if tenant is not None:
                labels["tenant"] = tenant
            self.metrics = registry.view(**labels)
        #: when False, every transform runs row-at-a-time (the
        #: pre-columnar client path); the fuzz oracle differences the
        #: two modes
        self.columnar = columnar
        self.tables = {}
        rows_by_name = {}
        for name, value in (data or {}).items():
            if isinstance(value, Table):
                self.tables[name] = value
                rows_by_name[name] = None  # lazily materialized
            else:
                rows = list(value)
                self.tables[name] = Table.from_rows(rows)
                rows_by_name[name] = rows
        self._rows_cache = rows_by_name

        with self.tracer.span("compile") as span:
            self.compiled = compile_spec(
                spec,
                data_tables=self._compile_data_tables(),
                validate=validate,
            )
            span.set(
                datasets=len(self.compiled.pipelines),
                operators=len(self.compiled.flow.operators),
            )
        self.compiled.flow.tracer = self.tracer
        self._apply_columnar_mode()
        self.signals = dict(self.compiled.flow.signals)

        if isinstance(backend, Backend):
            self.backend = backend
        else:
            kwargs = {}
            if parallelism is not None and backend == "embedded":
                kwargs["parallelism"] = parallelism
            self.backend = create_backend(backend, **kwargs)
        #: engine worker count (1 = serial); backends without a parallel
        #: executor (sqlite) report 1, keeping the cost model honest
        self.parallelism = getattr(self.backend, "parallelism", 1) or 1
        with self.tracer.span("data.load", tables=len(self.tables)):
            for name, table in self.tables.items():
                self.backend.load_table(name, table)

        self.channel = channel or NetworkChannel(
            latency_ms=latency_ms, bandwidth_mbps=bandwidth_mbps
        )
        if self.tracer.enabled:
            self.channel.tracer = self.tracer
        if self.metrics.enabled:
            self.channel.metrics = self.metrics
        if cost_params is None:
            # Candidate-plan costing reflects the engine's worker count.
            cost_params = CostParameters(server_workers=self.parallelism)
        self.cost_params = cost_params
        self.merge_queries = merge_queries
        self.rewrite_sql = rewrite_sql
        #: when True, every server operator runs as its own round trip
        #: (the unmerged baseline the paper's node merging improves on)
        self.per_operator_roundtrips = per_operator_roundtrips
        # The cost model's "merged" notion is about round trips (one query
        # vs one per operator), not about AST collapsing: an uncollapsed
        # nested query is still a single round trip.
        self.optimizer = PartitionOptimizer(
            self.channel, self.cost_params,
            merged=not per_operator_roundtrips,
        )
        self.table_stats = {
            name: compute_stats(table) for name, table in self.tables.items()
        }
        #: pass ``cache=`` to share one (locked) ResultCache across
        #: sessions — the serving layer's cross-user cache.  The session
        #: only installs its own metrics sink on a cache it owns; a
        #: shared cache keeps whatever sink its owner installed so
        #: counters are not re-labeled by the last session to attach.
        self.cache = cache if cache is not None else ResultCache(
            max_entries=cache_entries)
        if cache is None and self.metrics.enabled:
            self.cache.metrics = self.metrics
        self.prefetcher = Prefetcher(budget=prefetch_budget)
        #: data-tile index for brush interactions: False/None = off,
        #: True = cost-model gated ("auto"), or "force" to always tile
        #: eligible sinks regardless of the cost model
        self.tiles = None
        if tiles:
            from repro.tiles import TileIndexManager

            mode = tiles if isinstance(tiles, str) else "auto"
            self.tiles = TileIndexManager(mode=mode, metrics=self.metrics)
        self.plan = None
        self._sink_states = {}
        #: the most recent HISTORY_RESULTS RunResults, oldest first
        self.history = collections.deque(maxlen=HISTORY_RESULTS)
        self._runs = 0
        #: §2.2 step 4: per-interaction plan choice between the startup
        #: plan and a re-partitioned candidate, based on the cache state
        self.dynamic_replan = dynamic_replan
        self._interaction_plans = None

    # -- data access ----------------------------------------------------------

    def _rows(self, name):
        if self._rows_cache.get(name) is None:
            self._rows_cache[name] = self.tables[name].to_rows()
        return self._rows_cache[name]

    def _compile_data_tables(self):
        """Root data for the compiled client dataflow.  Tables stay
        columnar (the DataSource materializes rows lazily); datasets the
        caller provided as row lists keep their original row objects."""
        return {
            name: (
                self.tables[name]
                if self._rows_cache.get(name) is None
                else self._rows_cache[name]
            )
            for name in self.tables
        }

    def _apply_columnar_mode(self):
        """Propagate ``columnar=False`` to every compiled transform so the
        whole session runs row-at-a-time (differential baseline)."""
        if self.columnar:
            return
        for operator in self.compiled.flow.operators:
            operator.columnar = False

    def results(self, dataset):
        """Current rows of a sink dataset (after startup/interactions)."""
        state = self._sink_states.get(dataset)
        if state is not None and state.rows is not None:
            return state.rows
        return self.compiled.results(dataset)

    # -- planning ---------------------------------------------------------------

    def optimize(self):
        """Compute (and adopt) the optimizer's startup plan."""
        with self.tracer.span("plan") as span:
            self.plan = self.optimizer.plan(
                self.compiled, self.table_stats, self.signals
            )
            span.set(
                cuts={
                    sink: dataset_plan.cut
                    for sink, dataset_plan in self.plan.datasets.items()
                },
                estimated_total=self.plan.estimate.total,
            )
        self._interaction_plans = None  # candidates depend on the stats
        return self.plan

    def baseline_plan(self):
        """The all-client Vega plan, with cost estimates."""
        forced = {
            sink: 0 for sink in self.optimizer.sink_datasets(self.compiled)
        }
        return self.optimizer.plan(
            self.compiled, self.table_stats, self.signals,
            label="vega-client", forced_cuts=forced,
        )

    def custom_plan(self, cuts, label="custom"):
        """A user-chosen partitioning (the dashboard's toggles): ``cuts``
        maps sink dataset -> number of server steps."""
        return self.optimizer.plan(
            self.compiled, self.table_stats, self.signals,
            label=label, forced_cuts=cuts,
        )

    def interaction_candidates(self):
        """Per-signal re-partitioned plans (§2.2 step 4)."""
        return interaction_plans(
            self.compiled, self.table_stats, self.channel, self.signals,
            self.cost_params,
        )

    # -- execution ----------------------------------------------------------------

    def startup(self, plan=None):
        """Run visualization creation under ``plan`` (default: optimize)."""
        if plan is None:
            plan = self.plan or self.optimize()
        self.plan = plan
        return self._execute_plan(plan, label="startup:" + plan.label)

    def run_client_only(self):
        """The Vega baseline: everything on the client."""
        return self._execute_plan(self.baseline_plan(), label="vega-client")

    def run_with_plan(self, plan):
        """Execute an explicit plan without adopting it as the session plan."""
        return self._execute_plan(plan, label=plan.label, adopt=False)

    def _execute_plan(self, plan, label, adopt=True):
        result = RunResult(label=label, plan=plan)
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        server = self._server()
        with self.tracer.span("run", label=label, plan=plan.label) as span:
            for sink, dataset_plan in plan.datasets.items():
                state = self._sink_state(sink)
                rows = self._run_sink(sink, state, dataset_plan, result,
                                      server)
                result.datasets[sink] = rows
                if adopt:
                    state.rows = rows
            self._settle(server, result, label)
            span.set(total_seconds=result.breakdown.total)
        result.cache_hits = self.cache.hits - hits_before
        result.cache_misses = self.cache.misses - misses_before
        self._record_run(label, result)
        return result

    def _record_run(self, label, result):
        """Keep the result, and SLO accounting for one run: count it and
        observe its modeled end-to-end latency, labeled by run kind
        (``startup``, ``interact``, ``append``, ``vega-client``, ...)."""
        self.history.append(result)
        self._runs += 1
        if not self.metrics.enabled:
            return
        kind = label.split(":", 1)[0]
        self.metrics.inc("session.runs", kind=kind)
        self.metrics.observe("session.run_seconds", result.breakdown.total,
                             kind=kind)

    def _sink_state(self, sink):
        if sink not in self._sink_states:
            root, steps = resolve_chain(self.compiled, sink)
            self._sink_states[sink] = _SinkState(root, steps)
        return self._sink_states[sink]

    def _server(self):
        """The server half of one run: every sink's segment goes through
        it, so what they fetch crosses the link as one exchange."""
        return ServerSegmentRunner(
            self.backend, self.channel, self.signals,
            # Temp-table SQL text is not a canonical key (the same text
            # reads different __seg_i contents), so per-op mode is uncached.
            cache=None if self.per_operator_roundtrips else self.cache,
            merge=self.merge_queries, rewrite=self.rewrite_sql,
            tracer=self.tracer, metrics=self.metrics,
        )

    def _run_segment(self, server, sink, state, cut, prefetch=False):
        """``sink``'s server segment through the run's ``server``."""
        server.dataset = sink
        segment = (state.root, self.tables[state.root].column_names,
                   state.steps, cut)
        final_fields = self.compiled.spec.mark_fields(sink) or None
        if self.per_operator_roundtrips:
            return server.run_segment_per_op(
                *segment, final_fields=final_fields)
        return server.run_segment(
            *segment, final_fields=final_fields, prefetch=prefetch)

    def _settle(self, server, result, label):
        """Close the run's exchange (one round trip, or none when every
        statement hit) and book the server half's cost on ``result``."""
        server.close(label.split(":", 1)[0])
        result.queries.extend(server.queries)
        result.breakdown = result.breakdown + CostBreakdown(
            server=server.server_seconds, network=server.network_seconds,
        )

    def _run_sink(self, sink, state, dataset_plan, result, server):
        cut = dataset_plan.cut
        sink_span = self.tracer.span(
            "sink:" + sink, dataset=sink, cut=cut,
            max_cut=dataset_plan.max_cut,
        )
        with sink_span:
            transfer, value_results, _ = self._run_segment(
                server, sink, state, cut)
            state.transfer = transfer
            state.value_results = value_results
            state.cut_executed = cut

            client = ClientSuffixRunner(
                self.signals, data_resolver=self._resolve_cross_dataset,
                tracer=self.tracer, columnar=self.columnar,
            )
            out = client.run_suffix(
                state.steps, cut, transfer, value_results
            )
            # The one row materialization of the request path: producing
            # the renderer-facing dict rows (deserialization cost, charged
            # to the client like browser-side JSON parsing would be).
            materialize_start = time.perf_counter()
            rows = out.rows
            materialize_seconds = time.perf_counter() - materialize_start
            sink_span.set(rows=len(rows))

        result.client_op_seconds.update(client.op_seconds)
        result.breakdown = result.breakdown + CostBreakdown(
            client=client.client_seconds + materialize_seconds,
            render=len(rows) * self.cost_params.render_row_cost,
        )
        return rows

    def _resolve_cross_dataset(self, operator):
        """Rows of another dataset's terminal operator (for lookup)."""
        for name, terminal in self.compiled.dataset_ops.items():
            if terminal is operator:
                state = self._sink_states.get(name)
                if state is not None and state.rows is not None:
                    return state.rows
                # Fall back to the raw/client rows.
                if name in self.tables:
                    return self._rows(name)
                pulse = terminal.last_pulse
                if pulse is not None and pulse.rows:
                    return pulse.rows
                # A derived dataset that is not itself a sink (e.g. a
                # filtered lookup table): materialize it client-side on
                # demand from its own chain.
                return self._materialize_dataset(name)
        raise SessionError(
            "cannot resolve data for operator {!r}".format(operator.name)
        )

    def _materialize_dataset(self, name):
        """Run a non-sink dataset's full chain on the client."""
        state = self._sink_state(name)
        client = ClientSuffixRunner(
            self.signals, data_resolver=self._resolve_cross_dataset,
            columnar=self.columnar,
        )
        out = client.run_suffix(state.steps, 0, self.tables[state.root], {})
        state.rows = out.rows
        return state.rows

    # -- live spec editing -------------------------------------------------------------

    def update_spec(self, spec, validate=True):
        """Replace the specification (the demo's live editor, §3.1:
        "modifying a specification in the editor ... rendered live").

        Data tables, the backend, the network channel, and cost settings
        survive; compiled state, plans, caches, and histories reset.
        Returns the startup RunResult under the new spec's optimal plan.
        """
        self.compiled = compile_spec(
            spec,
            data_tables=self._compile_data_tables(),
            validate=validate,
        )
        self._apply_columnar_mode()
        self.signals = dict(self.compiled.flow.signals)
        self.plan = None
        self._sink_states = {}
        self._interaction_plans = None
        self.cache.clear()
        self.prefetcher = Prefetcher(budget=self.prefetcher.budget)
        if self.tiles is not None:
            self.tiles.reset()
        return self.startup()

    # -- streaming data ---------------------------------------------------------------

    def append_data(self, name, rows):
        """Append rows to a root dataset (Vega's streaming data model:
        "streaming data objects pass through the edges", §2.1).

        Updates the backend table and the client-side copy, invalidates
        cached query results and statistics, recomputes the plan, and
        re-runs the affected pipelines.  Returns the RunResult.
        """
        if name not in self.tables:
            raise SessionError("unknown root dataset {!r}".format(name))
        rows = list(rows)
        if not rows:
            raise SessionError("append_data needs at least one row")
        from repro.engine import Table, append_stats, concat_tables

        incoming = Table.from_rows(
            rows, column_order=self.tables[name].column_names
        )
        merged = concat_tables([self.tables[name], incoming])
        self.tables[name] = merged
        self._rows_cache[name] = None
        self.backend.load_table(name, merged)
        self.table_stats[name] = append_stats(
            self.table_stats[name], merged, incoming
        )
        # Every cached result derived from this table is stale.
        self.cache.clear()
        for state in self._sink_states.values():
            if state.root == name:
                state.transfer = None
                state.value_results = {}
        # Update the client dataflow's raw source too (columnar: the
        # merged batch goes in as-is, rows materialize only on demand).
        source_name = name + ":source"
        try:
            source = self.compiled.flow.operator(source_name)
        except Exception:
            source = None
        if source is not None:
            source.set_rows(merged)
            self.compiled.flow.touch(source)
        if self.tiles is not None:
            # Patch live tile cubes with just the delta (the cache clear
            # above dropped their entries; a successful patch re-puts).
            self.tiles.on_append(self, name, incoming)
        if self.plan is None:
            return None
        plan = self.optimize()
        return self._execute_plan(plan, label="append:{}".format(name))

    # -- interactions ----------------------------------------------------------------

    def interact(self, signal, value, plan=None):
        """Dispatch one user interaction and return its RunResult.

        If the changed signal only affects client-side steps, the cached
        transfer is reused and only the suffix re-runs; otherwise the
        server segment re-executes (hitting the cache when the variant
        was prefetched).
        """
        if signal not in self.signals:
            raise SessionError("unknown signal {!r}".format(signal))
        if self.plan is None:
            raise SessionError("call startup() before interact()")
        self.prefetcher.observe(signal, value)
        # Route through the dataflow so derived (update-expression) signals
        # recompute; keep the session snapshot in sync.
        from repro.dataflow.graph import DataflowError

        try:
            changed = self.compiled.flow.set_signal(signal, value)
        except DataflowError as exc:
            raise SessionError(str(exc)) from exc
        changed = changed or {signal}
        self.signals = dict(self.compiled.flow.signals)

        if plan is None and self.dynamic_replan:
            plan = self._pick_interaction_plan(signal)
        plan = plan or self.plan
        label = "interact:{}={}".format(signal, value)
        result = RunResult(label=label, plan=plan)
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        server = self._server()
        with self.tracer.span("run", label=label, plan=plan.label,
                              signal=signal) as span:
            for sink, dataset_plan in plan.datasets.items():
                state = self._sink_state(sink)
                if self.tiles is not None:
                    rows = self.tiles.try_interact(
                        self, sink, state, dataset_plan, changed, result
                    )
                    if rows is not None:
                        state.rows = rows
                        result.datasets[sink] = rows
                        continue
                frontier = min(
                    signal_frontier(self.compiled, sink, name)
                    for name in changed
                )
                if frontier >= dataset_plan.cut \
                        and state.transfer is not None \
                        and state.cut_executed == dataset_plan.cut:
                    rows = self._client_partial(state, dataset_plan, result)
                else:
                    rows = self._run_sink(sink, state, dataset_plan, result,
                                          server)
                state.rows = rows
                result.datasets[sink] = rows
            self._settle(server, result, label)
            span.set(total_seconds=result.breakdown.total)
        result.cache_hits = self.cache.hits - hits_before
        result.cache_misses = self.cache.misses - misses_before
        self._record_run(label, result)
        return result

    def _pick_interaction_plan(self, signal):
        """Choose between the startup plan and the re-partitioned
        candidate for this signal (§2.2 step 4: "we pick the plan based
        on the interaction and cache state").

        The startup plan's server path costs ~nothing when the cache
        already holds the re-parameterized queries; the candidate plan's
        server path costs ~nothing when its transfer already happened
        (a previous interaction brought the partially processed data to
        the client) — then only its client suffix runs.
        """
        if self._interaction_plans is None:
            self._interaction_plans = self.interaction_candidates()
        candidate = self._interaction_plans.get(signal)
        if candidate is None:
            return self.plan

        cache_has_variant = all(
            self._segment_cached(sink, dataset_plan.cut)
            for sink, dataset_plan in self.plan.datasets.items()
            if signal_frontier(self.compiled, sink, signal)
            < dataset_plan.cut
        )
        if cache_has_variant:
            return self.plan

        candidate_cost = 0.0
        for sink, dataset_plan in candidate.datasets.items():
            state = self._sink_state(sink)
            transferred = (
                state.transfer is not None
                and state.cut_executed == dataset_plan.cut
            )
            if transferred:
                estimate = dataset_plan.estimate
                candidate_cost += estimate.client + estimate.render
            else:
                candidate_cost += dataset_plan.estimate.total
        if candidate_cost < self.plan.estimate.total:
            return candidate
        return self.plan

    def _segment_cached(self, sink, cut):
        """Whether the server segment for ``sink`` at ``cut`` under the
        *current* signal values is fully answerable from the cache."""
        state = self._sink_state(sink)
        # a probe: no tracer and no metrics, so it leaves no record
        runner = ServerSegmentRunner(
            self.backend, self.channel, self.signals, cache=self.cache,
            merge=self.merge_queries, rewrite=self.rewrite_sql,
        )
        try:
            return runner.segment_cached(
                state.root, self.tables[state.root].column_names,
                state.steps, cut,
                final_fields=self.compiled.spec.mark_fields(sink) or None,
            )
        except Exception:
            return False

    def _client_partial(self, state, dataset_plan, result):
        """Partial execution: only the client suffix re-runs (§2.2 step 4's
        'faster partial execution')."""
        client = ClientSuffixRunner(
            self.signals, data_resolver=self._resolve_cross_dataset,
            tracer=self.tracer, columnar=self.columnar,
        )
        out = client.run_suffix(
            state.steps, dataset_plan.cut, state.transfer,
            state.value_results,
        )
        materialize_start = time.perf_counter()
        rows = out.rows
        materialize_seconds = time.perf_counter() - materialize_start
        result.client_op_seconds.update(client.op_seconds)
        result.breakdown = result.breakdown + CostBreakdown(
            client=client.client_seconds + materialize_seconds,
            render=len(rows) * self.cost_params.render_row_cost,
        )
        return rows

    def prefetch_interaction(self, signal, value):
        """Execute the server queries a future ``signal=value`` interaction
        would need, during idle time, populating the cache.

        Returns True when at least one new query was fetched.
        """
        if self.plan is None:
            return False
        saved_signals = self.signals
        graph = self.compiled.flow.signal_graph
        if graph is not None and not graph.is_derived(signal):
            # Derived signals must reflect the hypothetical change too.
            self.signals = graph.preview(signal, value)
        else:
            self.signals = dict(saved_signals)
            self.signals[signal] = value
        prefetch_span = self.tracer.span(
            "prefetch", signal=signal, value=value
        )
        try:
            server = self._server()
            with prefetch_span:
                for sink, dataset_plan in self.plan.datasets.items():
                    frontier = signal_frontier(self.compiled, sink, signal)
                    if frontier >= dataset_plan.cut:
                        continue  # interaction will not touch the server
                    self._run_segment(
                        server, sink, self._sink_state(sink),
                        dataset_plan.cut, prefetch=True,
                    )
                # idle-time traffic: charged to the link, to no result
                server.close("prefetch")
                fetched = any(not entry.cached for entry in server.queries)
                prefetch_span.set(fetched=fetched)
        finally:
            self.signals = saved_signals
        return fetched

    def idle(self):
        """Signal an idle period: the prefetcher runs its predictions."""
        return self.prefetcher.prefetch(self)

    def prewarm_tiles(self):
        """Eagerly build tile cubes for every eligible sink (e.g. during
        idle time, before the first brush event pays the build).  Returns
        the number of cubes built; 0 when tiles are disabled."""
        if self.tiles is None or self.plan is None:
            return 0
        return self.tiles.prewarm(self)

    def tile_grid_hints(self, sink):
        """Snap-to-grid hints for ``sink``'s brush axes (one dict per
        axis: field, start, step, n_bins, top, and the grid object).  A
        client that snaps its brush bounds with ``hint["grid"].snap(...)``
        before :meth:`interact` keeps every event on the tile fast path
        instead of falling back to a requery (``tiles.unaligned``).
        Returns None when tiles are off or the sink has no built cube.
        """
        if self.tiles is None:
            return None
        return self.tiles.grid_hints(sink)

    def snap_brush(self, sink, field, bound, op=">="):
        """Snap one brush bound for ``field`` onto ``sink``'s tile grid;
        the raw bound comes back unchanged when there is no grid."""
        hints = self.tile_grid_hints(sink) or []
        for hint in hints:
            if hint["field"] == field:
                return hint["grid"].snap(bound, op)
        return bound

    # -- introspection -----------------------------------------------------------------

    def last_result(self):
        return self.history[-1] if self.history else None

    def network_stats(self):
        return self.channel.stats

    def stats(self):
        """One snapshot dict of every session-level counter: cache
        hits/misses/evictions/bytes, network aggregates (plus dropped log
        records), prefetcher state, and the number of runs.  Included in
        trace exports (see :meth:`export_trace`)."""
        return {
            "cache": self.cache.stats(),
            "network": self.channel.stats.as_dict(),
            "prefetcher": {
                "budget": self.prefetcher.budget,
                "observations": self.prefetcher.predictor.observations,
                "prefetched": self.prefetcher.prefetched,
            },
            "tiles": self.tiles.stats() if self.tiles is not None else None,
            "runs": self._runs,
            "session": {
                "id": self.session_id,
                "tenant": self.tenant,
                "metrics": self.metrics.enabled,
            },
            "slow_queries": (
                self.metrics.slowlog.stats()
                if self.metrics.enabled else None
            ),
        }

    def export_trace(self, path, format="chrome"):
        """Write the session's trace to ``path``.

        ``format`` is ``"chrome"`` (load in ``chrome://tracing`` or
        Perfetto) or ``"json"`` (the raw span tree).  The export embeds
        the :meth:`stats` snapshot.  Raises if tracing was not enabled.
        """
        if not self.tracer.enabled:
            raise SessionError(
                "tracing is disabled; construct the session with "
                "trace=True (or pass a Tracer) to export a trace"
            )
        from repro.telemetry.export import write_trace

        return write_trace(
            self.tracer, path, format=format, stats=self.stats()
        )

    def explain(self):
        """Human-readable explanation of the current plan: the cut per
        dataset plus every server query of the most recent execution."""
        if self.plan is None:
            raise SessionError("call startup() before explain()")
        lines = [self.plan.describe()]
        if self.tiles is not None:
            lines.extend(self.tiles.explain_lines(self))
        last = self.last_result()
        if last is not None:
            for entry in last.queries:
                lines.append("")
                lines.append("-- {} query ({} rows{})".format(
                    entry.kind, entry.rows,
                    ", cached" if entry.cached else "",
                ))
                lines.append(entry.sql)
        return "\n".join(lines)

    def dashboard(self):
        """The performance view as plain data (Figure 3): the partitioned
        plan graph plus the measured breakdown of the latest run."""
        from repro.perf import plan_graph

        if self.plan is None:
            raise SessionError("call startup() before dashboard()")
        last = self.last_result()
        board = {
            "graph": plan_graph(self).to_dict(),
            "plan": self.plan.describe(),
            "breakdown": last.breakdown.as_dict() if last else None,
            "cache": self.cache.stats(),
            "network": {
                "round_trips": self.channel.stats.round_trips,
                "bytes_received": self.channel.stats.bytes_received,
                "seconds": self.channel.stats.seconds,
            },
        }
        if self.tracer.enabled:
            # With tracing on, the latency decomposition comes from the
            # measured spans of the latest run instead of the runner's
            # coarse accumulators.
            board["trace"] = self._trace_decomposition()
        return board

    def _trace_decomposition(self):
        """Measured per-phase seconds from the most recent ``run`` span."""
        runs = self.tracer.find_spans("run")
        if not runs:
            return None
        run = runs[-1]

        def subtree(span):
            out = [span]
            for child in self.tracer.children_of(span):
                out.extend(subtree(child))
            return out

        spans = subtree(run)
        # sql.execute nests inside server.segment; count only the leaves
        # so phases do not double-count.
        by_prefix = {
            "server": ("sql.execute", "sql.cached"),
            "network": ("net.transfer",),
            "client": ("client.suffix",),
        }
        decomposition = {}
        for phase, prefixes in by_prefix.items():
            decomposition[phase] = sum(
                span.wall for span in spans
                if any(span.name.startswith(p) for p in prefixes)
            )
        operators = {}
        for span in spans:
            if span.name.startswith("pulse:"):
                name = span.name[len("pulse:"):]
                operators[name] = operators.get(name, 0.0) + span.wall
        decomposition["operators"] = operators
        decomposition["label"] = run.attributes.get("label")
        decomposition["total"] = run.wall
        return decomposition
