"""The five in-process workloads (``serve_hist`` lives in ``serving.py``).

Each names the layer that does most of its work; see README.md for why
each was chosen and what it bypasses.  A workload owns its spec, its data
sizes, its seeded plan, its per-event invariants and the reference check
of its outputs; ``harness.py`` owns the phases and the clock.

Sessions use the repo defaults (embedded backend, 20 ms / 100 Mbit link,
tiles and metrics on, tracing off) unless the workload says otherwise.
"""

import copy
import os
import shutil
import time

import numpy as np

import plans
import reference

#: smoke runs divide every row count by this
SMOKE_DIVISOR = 20


def scaled_rows(rows, smoke):
    return max(rows // SMOKE_DIVISOR, 200) if smoke else rows


def raw_columns(table, names):
    """Private ``(values, valid)`` copies of a generated table's columns:
    the only thing the reference ever sees of the data."""
    out = {}
    for name in names:
        column = table.column(name)
        out[name] = (np.array(column.data), np.array(column.valid))
    return out


def concat_columns(parts):
    return {
        name: tuple(np.concatenate([part[name][i] for part in parts])
                    for i in (0, 1))
        for name in parts[0]
    }


class State:
    """What one set-up produced: the live session plus what the checks
    need.  ``close`` releases everything the set-up opened."""

    def __init__(self, seed, rows):
        self.seed = seed
        self.rows = rows
        self.session = None
        self.table = None
        #: raw reference columns (None where they are read back lazily)
        self.columns = None
        #: the spill store behind ``table``, where there is one
        self.store = None
        #: ``consolidation_count()`` when set-up ended
        self.consolidations = 0
        self.gen_seconds = 0.0
        self.startup_seconds = 0.0
        #: current signal values, kept in step with the ops applied
        self.signals = {}
        #: the op before the current one (a write changes what the next
        #: event must return)
        self.previous_op = None
        self.closers = []

    def close(self):
        for closer in reversed(self.closers):
            closer()
        self.closers = []


class Workload:
    """Base of the in-process workloads."""

    name = ""
    rows = 0
    #: plan length, sized to run out a little before the contract's run
    #: length on the 2-core reference box: a session keeps every result in
    #: its history, so peak RSS follows the event count, and the event count
    #: must not follow the host's speed
    plan_events = 200
    #: sink datasets, in plan order
    sinks = ()
    #: columns the reference reads
    reference_columns = ()
    session_kwargs = {}
    table_name = "flights"

    # -- set-up --------------------------------------------------------------

    def plan(self, seed):
        raise NotImplementedError

    def spec(self):
        raise NotImplementedError

    def generate(self, state, scratch):
        """Fill ``state.table`` from the program's own generator."""
        from repro.datagen import generate_flights

        state.table = generate_flights(state.rows, seed=state.seed)

    def new_session(self, table, **overrides):
        """A constructed, started-up session: one time-to-first-chart."""
        from repro.core import VegaPlus

        kwargs = dict(self.session_kwargs)
        kwargs.update(overrides)
        session = VegaPlus(self.spec(), data={self.table_name: table},
                           **kwargs)
        session.startup()
        return session

    def setup(self, seed, smoke, scratch, **overrides):
        from repro.data import consolidation_count

        state = State(seed, scaled_rows(self.rows, smoke))
        try:
            start = time.perf_counter()
            self.generate(state, scratch)
            generated = time.perf_counter()
            state.session = self.new_session(state.table, **overrides)
            started = time.perf_counter()
            state.gen_seconds = generated - start
            state.startup_seconds = started - generated
            state.columns = self.reference_data(state.table)
            self.after_startup(state)
            state.consolidations = consolidation_count()
        except BaseException:
            state.close()
            raise
        return state

    def reference_data(self, table):
        return raw_columns(table, self.reference_columns)

    def after_startup(self, state):
        """Untimed warm-up: let caches fill and lazy set-up finish."""

    # -- one event -----------------------------------------------------------

    def prepare(self, state, op):
        """The zero-argument call the harness times for ``op``."""
        _, signal, value = op
        state.signals[signal] = value
        session = state.session
        return lambda: session.interact(signal, value)

    def check(self, state, op, result):
        """Cheap per-event invariant; an error string fails the event."""
        return None

    def snapshot(self, state, op, result):
        """What ``verify`` needs to check this event after the run."""
        return {"signals": dict(state.signals),
                "rows": {sink: result.datasets[sink] for sink in self.sinks}}

    def verify(self, state, shot):
        raise NotImplementedError

    # -- whole-phase invariants ----------------------------------------------

    def counters(self, state):
        """Public counters the objects already expose."""
        session = state.session
        cache = session.cache.stats()
        tiles = session.tiles.stats() if session.tiles is not None else {}
        return {
            "cache_hits": cache["hits"], "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
            "cache_bytes": cache["bytes"],
            "tile_hits": tiles.get("hits", 0),
            "tile_unaligned": tiles.get("unaligned_fallbacks", 0),
            "tile_builds": tiles.get("builds", 0),
            "tile_deltas": tiles.get("deltas", 0),
            "tile_bytes": tiles.get("bytes_built", 0),
        }

    def invariants(self, state, delta, after, ops):
        """Whole-phase invariants over the counters' change ``delta`` and
        their last values ``after``."""
        errors = []
        if delta["tile_hits"]:
            errors.append("tile hits on a workload that is not tile-eligible")
        return errors


# -- flights_cold: engine-bound ------------------------------------------------


class FlightsCold(Workload):
    """Every event is two cache misses answered by the serial engine."""

    name = "flights_cold"
    rows = 60_000
    plan_events = 400
    sinks = ("cube",)
    reference_columns = ("dep_delay", "arr_delay", "distance", "air_time",
                         "carrier")

    def plan(self, seed):
        return plans.cold_thresholds(plans.rng_for(self.name, seed),
                                     self.plan_events)

    def spec(self):
        return {
            # the initial value is off the plan's [0, 40) grid, so start-up
            # caches nothing a timed event could hit
            "signals": [{"name": "thr", "value": 50.0}],
            "data": [
                {"name": "flights", "url": "synthetic://flights"},
                {"name": "cube", "source": "flights", "transform": [
                    {"type": "filter",
                     "expr": "datum.dep_delay + datum.arr_delay > thr"},
                    {"type": "extent", "field": "distance", "signal": "ext"},
                    {"type": "bin", "field": "distance",
                     "extent": {"signal": "ext"}, "maxbins": 20},
                    {"type": "aggregate",
                     "groupby": ["bin0", "bin1", "carrier"],
                     "ops": ["count", "mean"], "fields": [None, "air_time"],
                     "as": ["n", "mean_air"]},
                ]},
            ],
            "marks": [{"type": "rect", "from": {"data": "cube"}, "encode": {
                "update": {"x": {"field": "bin0"}, "x2": {"field": "bin1"},
                           "y": {"field": "n"}, "fill": {"field": "carrier"},
                           "opacity": {"field": "mean_air"}}}}],
        }

    def after_startup(self, state):
        plan = state.session.plan.datasets["cube"]
        if state.rows == self.rows and plan.cut != plan.max_cut:
            raise RuntimeError("flights_cold expects full pushdown, the "
                               "planner cut at {}/{}".format(
                                   plan.cut, plan.max_cut))
        # the extent is its own query once it runs on the server (at
        # smoke scale the planner may keep it on the client)
        state.queries = 2 if plan.cut >= 2 else 1
        for k in range(1, 6):   # off the grid too
            state.session.interact("thr", 50.0 + k)

    def check(self, state, op, result):
        if result.cache_hits != 0 or result.cache_misses != state.queries:
            return "expected 0 hits / {} misses, got {} / {}".format(
                state.queries, result.cache_hits, result.cache_misses)
        return None

    def verify(self, state, shot):
        expected = reference.delay_cube(state.columns,
                                        shot["signals"]["thr"])
        return reference.compare_groups(shot["rows"]["cube"], expected,
                                        ("bin0", "bin1", "carrier"))


# -- flights_warm: middleware-bound ----------------------------------------------


class FlightsWarm(Workload):
    """The paper's scenario 1 with every event answered from the cache:
    what is left is the per-event fixed cost of the middleware."""

    name = "flights_warm"
    rows = 100_000
    plan_events = 16_000
    sinks = ("binned",)
    reference_columns = plans.HIST_FIELDS

    def plan(self, seed):
        return plans.hist_walk(plans.rng_for(self.name, seed),
                               self.plan_events)

    def spec(self):
        from repro.spec import flights_histogram_spec

        return flights_histogram_spec()

    def after_startup(self, state):
        state.signals = {"binField": "dep_delay", "maxbins": 20}
        # every reachable state, then the head of the timed walk itself
        warm = plans.hist_states() + plans.hist_walk(
            plans.rng_for(self.name, state.seed), 200)
        for op in warm:
            self.prepare(state, op)()

    def check(self, state, op, result):
        if result.cache_misses != 0:
            return "{} cache misses on a warm event".format(
                result.cache_misses)
        return None

    def verify(self, state, shot):
        signals = shot["signals"]
        expected = reference.histogram(state.columns[signals["binField"]],
                                       signals["maxbins"])
        return reference.compare_groups(shot["rows"]["binned"], expected,
                                        ("bin0", "bin1"))


# -- scatter_client: client-dataflow-bound -----------------------------------------


class ScatterClient(Workload):
    """``sample`` and ``regression`` have no SQL form: the cut is forced to
    1/1, most of the table crosses the link on every event and both sinks
    run row-shaped client transforms over it."""

    name = "scatter_client"
    rows = 8_000
    plan_events = 200
    sinks = ("points", "trend")
    reference_columns = ("distance", "air_time", "carrier")
    sample_size = 3000

    def plan(self, seed):
        return plans.scatter_distances(plans.rng_for(self.name, seed),
                                       self.plan_events)

    def spec(self):
        from repro.spec import flights_scatter_spec

        spec = copy.deepcopy(flights_scatter_spec(self.sample_size))
        spec["signals"] = [{
            # starts off the plan's [0, 600) range: start-up caches
            # nothing a timed event could hit
            "name": "minDistance", "value": 600,
            "bind": {"input": "range", "min": 0, "max": 700, "step": 1},
        }]
        for dataset in spec["data"][1:]:
            dataset["transform"][0] = {
                "type": "filter", "expr": "datum.distance >= minDistance"}
        return spec

    def after_startup(self, state):
        for value in (601, 602, 603):   # off the range too
            state.session.interact("minDistance", value)

    def check(self, state, op, result):
        # the two sinks share one SQL text: the second is a hit
        if result.cache_hits != 1 or result.cache_misses != 1:
            return "expected 1 hit / 1 miss, got {} / {}".format(
                result.cache_hits, result.cache_misses)
        return None

    def verify(self, state, shot):
        return reference.check_scatter(
            state.columns, shot["signals"]["minDistance"], self.sample_size,
            shot["rows"]["points"], shot["rows"]["trend"])


# -- brush_stream: tiles, with writes beside reads -----------------------------------


class BrushStream(Workload):
    """Linked brushing over two views answered from tile cubes, with an
    append every tenth operation: the median is a tile slice, the tail is
    an append, by construction."""

    name = "brush_stream"
    rows = 100_000
    plan_events = 360
    sinks = ("hist", "by_carrier")
    reference_columns = ("distance", "dep_delay", "carrier")
    append_rows = 1000

    def plan(self, seed):
        return plans.brush_stream(plans.rng_for(self.name, seed),
                                  self.plan_events)

    def spec(self):
        brush = "datum.distance >= lo && datum.distance < hi"
        return {
            "signals": [
                {"name": "lo", "value": 0.0,
                 "bind": {"input": "range", "min": 0, "max": 3000}},
                {"name": "hi", "value": 3000.0,
                 "bind": {"input": "range", "min": 0, "max": 3000}},
            ],
            "data": [
                {"name": "flights", "url": "synthetic://flights"},
                {"name": "hist", "source": "flights", "transform": [
                    {"type": "filter", "expr": brush},
                    {"type": "bin", "field": "dep_delay",
                     "extent": [-30, 600], "maxbins": 30,
                     "as": ["bin0", "bin1"]},
                    {"type": "aggregate", "groupby": ["bin0", "bin1"],
                     "ops": ["count"], "as": ["cnt"]},
                ]},
                {"name": "by_carrier", "source": "flights", "transform": [
                    {"type": "filter", "expr": brush},
                    {"type": "aggregate", "groupby": ["carrier"],
                     "ops": ["count", "mean"], "fields": [None, "dep_delay"],
                     "as": ["cnt", "avg_delay"]},
                ]},
            ],
            "marks": [
                {"type": "rect", "from": {"data": "hist"}, "encode": {
                    "update": {"x": {"field": "bin0"},
                               "x2": {"field": "bin1"},
                               "y": {"field": "cnt"}}}},
                {"type": "rect", "from": {"data": "by_carrier"}, "encode": {
                    "update": {"x": {"field": "carrier"},
                               "y": {"field": "cnt"},
                               "fill": {"field": "avg_delay"}}}},
            ],
        }

    def after_startup(self, state):
        state.signals = {"lo": 0.0, "hi": 3000.0}
        state.extent = reference.extent(*state.columns["distance"])
        #: reference columns of every batch appended so far
        state.appended = []
        built = state.session.prewarm_tiles()
        if built != 2:
            raise RuntimeError("both brushed views must tile, built {}"
                               .format(built))
        for raw in (100.0, 700.0, 1300.0):
            self.prepare(state, ["brush", "lo", raw, ">="])()
        self.prepare(state, ["brush", "lo", 0.0, ">="])()

    def prepare(self, state, op):
        session = state.session
        if op[0] == "append":
            from repro.datagen import generate_flights

            batch = generate_flights(
                self.append_rows, seed=state.seed * 100_003 + 17 + op[1])
            # a row outside the distance extent the cubes were built over
            # forces a rebuild: a different operation from the delta patch
            # this workload measures, so such rows are left out
            distance = batch.column("distance")
            low, high = state.extent
            batch = batch.mask(np.asarray(distance.valid)
                               & (np.asarray(distance.data) >= low)
                               & (np.asarray(distance.data) <= high))
            state.appended.append(
                raw_columns(batch, self.reference_columns))
            rows = batch.to_rows()
            return lambda: session.append_data("flights", rows)
        _, signal, raw, comparison = op
        value = session.snap_brush("hist", "distance", raw, comparison)
        state.signals[signal] = value
        return lambda: session.interact(signal, value)

    def check(self, state, op, result):
        if result is None or set(result.datasets) != set(self.sinks):
            return "operation returned no result for both views"
        return None

    def snapshot(self, state, op, result):
        shot = Workload.snapshot(self, state, op, result)
        shot["appends"] = len(state.appended)
        return shot

    def verify(self, state, shot):
        columns = concat_columns(
            [state.columns] + state.appended[:shot["appends"]])
        expected = reference.brushed_views(
            columns, shot["signals"]["lo"], shot["signals"]["hi"])
        return (
            reference.compare_groups(shot["rows"]["hist"], expected["hist"],
                                     ("bin0", "bin1"))
            + reference.compare_groups(shot["rows"]["by_carrier"],
                                       expected["by_carrier"], ("carrier",))
        )

    def invariants(self, state, delta, after, ops):
        errors = []
        appends = sum(op[0] == "append" for op in ops)
        brushes = len(ops) - appends
        if brushes and delta["tile_hits"] < 0.98 * 2 * brushes:
            errors.append("tile hit share {:.3f} < 0.98".format(
                delta["tile_hits"] / (2.0 * brushes)))
        if delta["tile_deltas"] != 2 * appends:
            errors.append("expected {} tile delta patches, saw {}".format(
                2 * appends, delta["tile_deltas"]))
        if after["tile_builds"] != 2:
            errors.append("tile cubes were rebuilt ({} builds)".format(
                after["tile_builds"]))
        return errors


# -- logs_spill: data-plane / scan-bound, morsel executor -----------------------------


class LogsSpill(Workload):
    """The only workload on chunked out-of-core storage and the morsel
    executor: every event scans every ``ts`` value of a memmap-backed
    table to keep 1 % of the rows."""

    name = "logs_spill"
    rows = 2_000_000
    plan_events = 200
    sinks = ("by_source",)
    table_name = "logs"
    chunk_rows = 2 ** 18
    # tiles off: the time-window filter is brush-shaped, so the default
    # auto mode would build a cube and then answer nothing from it (seeded
    # window starts are never grid-aligned); the scan is what is measured
    session_kwargs = {"parallelism": 2, "tiles": False}
    #: the window is this share of the table's time span
    window_share = 0.01

    def plan(self, seed):
        return plans.log_windows(plans.rng_for(self.name, seed),
                                 self.plan_events)

    def spec(self):
        return {
            "signals": [{"name": "t0", "value": 0.0},
                        {"name": "width", "value": 1.0}],
            "data": [
                {"name": "logs", "url": "synthetic://logs"},
                {"name": "by_source", "source": "logs", "transform": [
                    {"type": "filter",
                     "expr": "datum.ts >= t0 && datum.ts < t0 + width"},
                    {"type": "aggregate", "groupby": ["source", "severity"],
                     "ops": ["count", "mean", "max"],
                     "fields": [None, "latency_ms", "latency_ms"],
                     "as": ["n", "mean_latency", "max_latency"]},
                ]},
            ],
            "marks": [{"type": "rect", "from": {"data": "by_source"},
                       "encode": {"update": {
                           "x": {"field": "source"}, "y": {"field": "n"},
                           "fill": {"field": "severity"},
                           "opacity": {"field": "mean_latency"},
                           "size": {"field": "max_latency"}}}}],
        }

    def generate(self, state, scratch):
        from repro.data import SpillStore
        from repro.datagen.logs import generate_logs

        directory = os.path.join(
            scratch, "spill-{}-{}".format(os.getpid(), time.monotonic_ns()))
        chunk_rows = max(self.chunk_rows * state.rows // self.rows, 1024)
        store = SpillStore(directory=directory, chunk_rows=chunk_rows)

        def close():
            store.close()
            shutil.rmtree(directory, ignore_errors=True)

        state.closers.append(close)
        state.store = store
        state.table = generate_logs(state.rows, seed=state.seed, store=store)

    def reference_data(self, table):
        return None   # read back chunk by chunk in verify, never in RAM

    def after_startup(self, state):
        ts = state.table.column("ts")
        first = float(np.asarray(ts.slice(0, 1).data)[0])
        last = float(np.asarray(ts.slice(len(ts) - 1, len(ts)).data)[0])
        state.width = (last - first) * self.window_share
        state.first = first
        state.room = last - first - state.width
        state.session.interact("width", state.width)
        state.signals = {"width": state.width}
        for share in (0.2, 0.5, 0.8):
            self.prepare(state, ["window", share + 3e-6])()

    def prepare(self, state, op):
        value = state.first + op[1] * state.room
        state.signals["t0"] = value
        session = state.session
        return lambda: session.interact("t0", value)

    def check(self, state, op, result):
        if result.cache_hits != 0 or result.cache_misses != 1:
            return "expected 0 hits / 1 miss, got {} / {}".format(
                result.cache_hits, result.cache_misses)
        return None

    def verify(self, state, shot):
        t0, width = shot["signals"]["t0"], shot["signals"]["width"]
        table = state.table
        pieces = {name: [] for name in
                  ("source", "severity", "latency_ms", "latency_ok")}
        for lo, hi, ts in table.column("ts").iter_chunks():
            stamps = np.asarray(ts.data)
            keep = np.flatnonzero(np.asarray(ts.valid) & (stamps >= t0)
                                  & (stamps < t0 + width))
            if not len(keep):
                continue
            # the window is contiguous in a chunk only if ts is sorted;
            # slice its bounding range and mask, assuming nothing
            span = slice(lo + int(keep[0]), lo + int(keep[-1]) + 1)
            inside = np.zeros(span.stop - span.start, dtype=bool)
            inside[keep - keep[0]] = True
            for name in ("source", "severity"):
                column = table.column(name).slice(span.start, span.stop)
                pieces[name].append(np.asarray(column.data)[inside])
            latency = table.column("latency_ms").slice(span.start, span.stop)
            pieces["latency_ms"].append(np.asarray(latency.data)[inside])
            pieces["latency_ok"].append(np.asarray(latency.valid)[inside])
        if not pieces["source"]:
            expected = {}
        else:
            merged = {k: np.concatenate(v) for k, v in pieces.items()}
            expected = reference.log_window(
                merged["source"], merged["severity"],
                merged["latency_ms"], merged["latency_ok"])
        return reference.compare_groups(shot["rows"]["by_source"], expected,
                                        ("source", "severity"))

    def invariants(self, state, delta, after, ops):
        from repro.data import consolidation_count

        errors = Workload.invariants(self, state, delta, after, ops)
        extra = consolidation_count() - state.consolidations
        if extra:
            errors.append("{} column consolidations during queries".format(
                extra))
        return errors


IN_PROCESS = (FlightsCold, FlightsWarm, ScatterClient, BrushStream,
              LogsSpill)
