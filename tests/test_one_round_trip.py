"""One round trip per interaction: what a run fetches from the server
crosses the link as one exchange, whatever the number of statements,
dependent values and sinks involved."""

import json

import pytest

from repro.backends import create_backend
from repro.core import VegaPlus
from repro.core.executors import SegmentProgram, ServerSegmentRunner
from repro.datagen import generate_census, generate_events, generate_flights
from repro.fuzz.normalize import canonical_rows, rows_equivalent
from repro.spec import (
    census_stacked_area_spec,
    flights_histogram_spec,
    flights_scatter_spec,
    simple_filter_spec,
)

#: every spec of ``repro.spec.examples`` with data for its root table
EXAMPLES = {
    "flights_histogram": (
        flights_histogram_spec, lambda: {"flights": generate_flights(6000)}),
    "census_stacked_area": (
        census_stacked_area_spec, lambda: {"census": generate_census()}),
    "flights_scatter": (
        flights_scatter_spec, lambda: {"flights": generate_flights(4000)}),
    "simple_filter": (
        simple_filter_spec, lambda: {"events": generate_events(5000)}),
}


def other_value(signal):
    """A bound value different from the signal's current one."""
    bind = signal.bind
    if bind.get("input") == "range":
        step = bind.get("step", 1)
        up = signal.value + 3 * step
        return up if up <= bind.get("max", up) else signal.value - 3 * step
    options = [o for o in bind.get("options", []) if o != signal.value]
    return options[0] if options else "man"   # the census free-text search


def canon(session, rows, sink):
    fields = session.compiled.spec.mark_fields(sink) or None
    return canonical_rows(rows, fields=fields)


def trips(session):
    return session.channel.stats.round_trips


def requests_since(session, before):
    """Labels of the round trips charged since ``before`` (a ``trips``
    reading), oldest first."""
    count = trips(session) - before
    return [record.label for record in session.channel.stats.log][-count:] \
        if count else []


def flights_session(rows=20000, latency_ms=20.0, **kwargs):
    session = VegaPlus(
        flights_histogram_spec(), data={"flights": generate_flights(rows)},
        latency_ms=latency_ms, **kwargs)
    # full pushdown: extent -> bin -> aggregate all on the server
    sink = session.optimize().datasets["binned"]
    session.startup(session.custom_plan({"binned": sink.max_cut}))
    return session


# -- (a) every example, both backends -----------------------------------------


@pytest.mark.parametrize("backend", ["embedded", "sqlite"])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_at_most_one_round_trip_and_same_rows(example, backend):
    make_spec, make_data = EXAMPLES[example]
    data = make_data()
    merged = VegaPlus(make_spec(), data=data, backend=backend)
    per_op = VegaPlus(make_spec(), data=data, backend=backend,
                      per_operator_roundtrips=True)
    # the same cuts on both sides: per-op pricing would plan differently
    plan = merged.optimize()
    cuts = {sink: dataset.max_cut for sink, dataset in plan.datasets.items()}

    def check(run, stage):
        before = trips(merged)
        result = run(merged)
        # a tile cube's build is an exchange of its own, labelled as such
        labels = [label for label in requests_since(merged, before)
                  if label != "tiles"]
        assert len(labels) <= 1, (stage, labels)
        reference = run(per_op)
        baseline = merged.run_client_only()
        for sink, rows in result.datasets.items():
            rows = canon(merged, rows, sink)
            assert rows_equivalent(
                rows, canon(per_op, reference.datasets[sink], sink)), \
                "{}: {} differs from per-operator round trips".format(
                    stage, sink)
            if "sample" not in example_transforms(merged, sink):
                assert rows_equivalent(
                    rows, canon(merged, baseline.datasets[sink], sink)), \
                    "{}: {} differs from the client-only run".format(
                        stage, sink)

    check(lambda s: s.startup(s.custom_plan(cuts)), "start-up")
    for signal in merged.compiled.spec.interactive_signals():
        value = other_value(signal)
        check(lambda s: s.interact(signal.name, value),
              "{}={}".format(signal.name, value))


def example_transforms(session, sink):
    # sample draws from its input's order, which a server filter need not
    # keep: such a sink is compared with the per-operator run only
    return {step.spec_type for step in session._sink_state(sink).steps}


# -- (b) the program is the protocol ------------------------------------------


def server_half(text, backend):
    """What the far side of the link does with a request: decode the
    program and walk it — the walker every run uses, here with nothing
    but a backend behind it (no session, no cache, no signals dict).
    Returns the decoded program and ``[(sql, kind, ExecutionResult)]``."""
    program = SegmentProgram(**json.loads(text))
    runner = ServerSegmentRunner(backend, None, None, merge=program.merge,
                                 rewrite=program.rewrite)
    response = []

    def execute(sql, kind):
        result = backend.execute(sql)
        response.append((sql, kind, result))
        return result.table

    runner.walk(program, execute)
    return program, response


def segment_program(session, sink="binned"):
    state = session._sink_state(sink)
    runner = ServerSegmentRunner(
        session.backend, session.channel, session.signals)
    return runner.program(
        state.root, session.tables[state.root].column_names, state.steps,
        len(state.steps), session.compiled.spec.mark_fields(sink))


def test_program_survives_json_and_runs_without_a_session():
    session = flights_session(tiles=False)
    result = session.interact("binField", "distance")
    fetched = [entry for entry in result.queries if not entry.cached]
    assert [entry.kind for entry in fetched] == ["value", "rows"]

    program = segment_program(session)
    text = json.dumps(json.loads(program.encode()))
    assert SegmentProgram(**json.loads(text)) == program

    # a backend of its own: nothing of the session is reachable from here
    backend = create_backend("embedded")
    backend.load_table("flights", session.tables["flights"])
    decoded, response = server_half(text, backend)
    assert [(sql, kind) for sql, kind, _ in response] == \
        [(entry.sql, entry.kind) for entry in fetched]
    for (sql, _, executed), entry in zip(response, fetched):
        cached = session.cache.peek(sql).as_batch()
        assert executed.table.num_rows == entry.rows
        assert executed.table.to_rows() == cached.to_rows()
    assert decoded.values == session._sink_state("binned").value_results


def test_server_half_skips_values_the_client_holds():
    session = flights_session(tiles=False)
    program = segment_program(session)
    program.values.update(session._sink_state("binned").value_results)
    _, response = server_half(program.encode(), session.backend)
    assert [kind for _, kind, _ in response] == ["rows"]


def test_a_run_sends_the_program_the_server_half_needs(monkeypatch):
    # what a real run puts on the wire is enough for the server half
    session = flights_session(tiles=False)
    sent = []
    original = ServerSegmentRunner._send

    def spy(self, text):
        sent.append(text)
        original(self, text)

    monkeypatch.setattr(ServerSegmentRunner, "_send", spy)
    result = session.interact("binField", "distance")
    assert len(sent) == 1
    _, response = server_half(sent[0], session.backend)
    assert [(sql, kind) for sql, kind, _ in response] == \
        [(q.sql, q.kind) for q in result.queries]
    for sql, _, executed in response:
        assert executed.table.to_rows() == \
            session.cache.peek(sql).as_batch().to_rows()


# -- (c) partial hits ---------------------------------------------------------


class TestPartialHits:
    def setup_method(self):
        self.session = flights_session(tiles=False)
        first = self.session.interact("binField", "distance")
        self.extent_sql, self.rows_sql = [q.sql for q in first.queries]
        self.session.interact("binField", "dep_delay")

    def replay(self):
        before = trips(self.session)
        result = self.session.interact("binField", "distance")
        return result, trips(self.session) - before

    def test_rows_missing_sends_one_statement(self):
        self.session.cache.discard(self.rows_sql)
        result, requests = self.replay()
        assert requests == 1
        assert (result.cache_hits, result.cache_misses) == (1, 1)
        assert [q.cached for q in result.queries] == [True, False]
        assert self.session.channel.stats.log[-1].response_bytes == \
            self.session.cache.peek(self.rows_sql).wire_bytes

    def test_extent_evicted_sends_both_and_refreshes_rows(self):
        stale = self.session.cache.peek(self.rows_sql)
        self.session.cache.discard(self.extent_sql)
        result, requests = self.replay()
        assert requests == 1
        assert (result.cache_hits, result.cache_misses) == (0, 2)
        assert [q.sql for q in result.queries] == \
            [self.extent_sql, self.rows_sql]
        fresh = self.session.cache.peek(self.rows_sql)
        assert fresh is not stale
        assert fresh.as_batch().to_rows() == stale.as_batch().to_rows()

    def test_everything_cached_leaves_the_link_alone(self):
        stats = self.session.channel.stats
        before = dict(stats.as_dict())
        result, requests = self.replay()
        assert requests == 0
        assert (result.cache_hits, result.cache_misses) == (2, 0)
        assert stats.as_dict() == before
        assert result.breakdown.network == 0.0


def test_cache_probe_leaves_no_record():
    session = flights_session(tiles=False, trace=True)
    tracer = session.tracer
    first = session.interact("binField", "distance")
    extent_sql, rows_sql = [q.sql for q in first.queries]
    session.interact("binField", "dep_delay")   # rows_sql is no longer newest

    def order():
        # the extent's entry is read (its value is needed to go on)
        return [key for key in session.cache._entries if key != extent_sql]

    before = order()
    counts = (session.cache.hits, session.cache.misses)
    spans = len(tracer.spans)
    session.signals["binField"] = "distance"
    assert session._segment_cached("binned", 3)
    # nothing traced, nothing counted, the rows entry where it was
    assert len(tracer.spans) == spans
    assert (session.cache.hits, session.cache.misses) == counts
    assert order() == before and before[-1] != rows_sql
    session.cache.discard(rows_sql)
    assert not session._segment_cached("binned", 3)


# -- (d) two sinks, one statement ---------------------------------------------


def test_sinks_sharing_a_statement_send_it_once():
    session = VegaPlus(flights_scatter_spec(),
                       data={"flights": generate_flights(4000)})
    result = session.startup()
    assert set(result.datasets) == {"points", "trend"}
    assert (result.cache_hits, result.cache_misses) == (1, 1)
    assert trips(session) == 1
    points, trend = result.queries
    assert points.sql == trend.sql and not points.cached and trend.cached
    record = session.channel.stats.log[-1]
    assert record.response_bytes == session.cache.peek(points.sql).wire_bytes


# -- (e) prefetch and cube builds ---------------------------------------------


def test_prefetch_of_k_actions_is_k_requests():
    session = flights_session(tiles=False, prefetch_budget=3)
    session.interact("binField", "distance")
    before = trips(session)
    done = session.idle()   # the untried binField options: two misses each
    assert len(done) >= 2
    assert requests_since(session, before) == ["prefetch"] * len(done)
    assert session.cache.misses >= 2 * len(done)


def two_axis_brush_spec():
    signals = [
        {"name": name, "value": value,
         "bind": {"input": "range", "min": 0, "max": 3000}}
        for name, value in (("lo", 0.0), ("hi", 3000.0),
                            ("dlo", -100.0), ("dhi", 3000.0))
    ]
    return {
        "signals": signals,
        "data": [
            {"name": "flights", "url": "synthetic://flights"},
            {"name": "view", "source": "flights", "transform": [
                {"type": "filter",
                 "expr": "datum.distance >= lo && datum.distance < hi"},
                {"type": "filter",
                 "expr": "datum.dep_delay >= dlo && datum.dep_delay < dhi"},
                {"type": "aggregate", "groupby": ["carrier"],
                 "ops": ["count", "mean"], "fields": [None, "air_time"],
                 "as": ["cnt", "avg"]},
            ]},
        ],
        "marks": [{"type": "rect", "from": {"data": "view"},
                   "encode": {"update": {"x": {"field": "carrier"},
                                         "y": {"field": "cnt"},
                                         "fill": {"field": "avg"}}}}],
    }


def test_cube_build_over_n_axes_is_one_request():
    data = {"flights": generate_flights(5000)}
    tiled = VegaPlus(two_axis_brush_spec(), data=data, tiles="force")
    direct = VegaPlus(two_axis_brush_spec(), data=data, tiles=False)
    tiled.startup()
    direct.startup()
    before = trips(tiled)
    built = tiled.interact("lo", 500.0)
    assert tiled.tiles.stats()["builds"] == 1
    assert len(tiled.tiles.grid_hints("view")) == 2
    assert trips(tiled) - before == 1
    record = tiled.channel.stats.log[-1]
    assert record.label == "tiles"
    build = [q for q in built.queries if q.dataset == "view:tiles"]
    assert [q.kind for q in build] == ["value", "value", "rows"]
    for signal, value in (("lo", 500.0), ("dhi", 60.0), ("hi", 2000.0)):
        snapped = tiled.snap_brush("view", {"lo": "distance", "hi": "distance",
                                            "dlo": "dep_delay",
                                            "dhi": "dep_delay"}[signal],
                                   value, ">=" if signal.endswith("lo")
                                   else "<")
        tiled.interact(signal, snapped)
        direct.interact(signal, snapped)
        assert rows_equivalent(
            canon(tiled, tiled.results("view"), "view"),
            canon(direct, direct.results("view"), "view")), signal
    assert tiled.tiles.stats()["hits"] >= 3


# -- the accounting identity --------------------------------------------------


class TestAccountingIdentity:
    """Per-statement network seconds, the run's breakdown and the
    channel's clock are three views of one charge: they agree exactly."""

    def charged(self, session, run):
        before = session.channel.stats.seconds
        result = run()
        return result, session.channel.stats.seconds - before

    def assert_identity(self, result, charged):
        assert charged > 0
        assert sum(q.network_seconds for q in result.queries) == charged
        assert result.breakdown.network == charged
        fetched = [q for q in result.queries if not q.cached]
        latency = 0.04
        assert fetched[0].network_seconds > latency
        assert all(0 < q.network_seconds < latency for q in fetched[1:])

    def session(self):
        return VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(20000)}, latency_ms=20.0)

    def test_startup(self):
        session = self.session()
        self.assert_identity(*self.charged(session, session.startup))

    def test_interaction(self):
        session = self.session()
        session.startup()
        self.assert_identity(*self.charged(
            session, lambda: session.interact("binField", "distance")))

    def test_append(self):
        session = self.session()
        session.startup()
        rows = generate_flights(50, seed=3, as_rows=True)
        self.assert_identity(*self.charged(
            session, lambda: session.append_data("flights", rows)))

    def test_prefetch_is_charged_to_the_link_not_to_a_result(self):
        session = self.session()
        session.startup()
        before = session.channel.stats.seconds
        assert session.prefetch_interaction("binField", "distance")
        charged = session.channel.stats.seconds - before
        assert charged > 0.04
        result, extra = self.charged(
            session, lambda: session.interact("binField", "distance"))
        assert extra == 0.0
        assert result.breakdown.network == 0.0
        assert all(q.cached for q in result.queries)

    def test_slow_query_log_carries_the_same_shares(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.slowlog.threshold_seconds = 0.0
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(20000)}, latency_ms=20.0,
            metrics=registry)
        result, charged = self.charged(session, session.startup)
        records = registry.slowlog.records()[-len(result.queries):]
        assert sum(r.network_seconds for r in records) == charged
        assert [r.network_seconds for r in records] == \
            [q.network_seconds for q in result.queries]


# -- the cost model prices what the executor does -------------------------------


@pytest.mark.parametrize("latency_ms", [
    pytest.param(0.0, marks=pytest.mark.xfail(
        strict=True,
        reason="criterion not met at 0 ms: with no latency only payload "
               "bytes are left and those follow the cardinality estimate "
               "(400 groups estimated, 10 real: 0.78 ms vs 0.09 ms) - "
               "ROADMAP item 6, not the round-trip count")),
    20.0, 100.0])
def test_estimated_network_follows_measured(latency_ms):
    session = flights_session(rows=100000, latency_ms=latency_ms)
    estimate = session.plan.datasets["binned"].estimate.network
    measured = session.last_result().breakdown.network
    assert abs(estimate - measured) <= 0.10 * measured


#: the cuts the planner chose for EXAMPLES while it priced every extent as
#: a round trip of its own (the commit before the exchange)
PARENT_CUTS = {
    ("census_stacked_area", 0.0): {"stacked": 4},
    ("census_stacked_area", 20.0): {"stacked": 4},
    ("census_stacked_area", 100.0): {"stacked": 4},
    ("flights_histogram", 0.0): {"binned": 3},
    ("flights_histogram", 20.0): {"binned": 3},
    # two 200 ms round trips lost to shipping 6000 rows; one does not
    ("flights_histogram", 100.0): {"binned": 0},
    ("flights_scatter", 0.0): {"points": 1, "trend": 1},
    ("flights_scatter", 20.0): {"points": 1, "trend": 1},
    ("flights_scatter", 100.0): {"points": 1, "trend": 1},
    ("simple_filter", 0.0): {"big": 2},
    ("simple_filter", 20.0): {"big": 2},
    ("simple_filter", 100.0): {"big": 2},
}


@pytest.mark.parametrize("latency_ms", [0.0, 20.0, 100.0])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_no_cut_moves_toward_the_client(example, latency_ms):
    make_spec, make_data = EXAMPLES[example]
    session = VegaPlus(make_spec(), data=make_data(), latency_ms=latency_ms)
    plan = session.optimize()
    for sink, cut in PARENT_CUTS[example, latency_ms].items():
        assert plan.datasets[sink].cut >= cut, sink


def test_latency_still_moves_the_cut_of_the_unmerged_baseline():
    # with one round trip on either side of the cut, latency no longer
    # decides a merged plan (tests/test_cli.py::test_latency_moves_price_
    # not_cut); where every statement is a round trip of its own it does
    data = {"flights": generate_flights(20000)}
    cuts = [
        VegaPlus(flights_histogram_spec(), data=data, latency_ms=latency,
                 per_operator_roundtrips=True).optimize().datasets["binned"].cut
        for latency in (1.0, 20.0)
    ]
    assert cuts == [1, 0]


def test_one_latency_makes_pushdown_win_at_100ms():
    make_spec, make_data = EXAMPLES["flights_histogram"]
    session = VegaPlus(make_spec(), data=make_data(), latency_ms=100.0)
    assert session.optimize().datasets["binned"].cut == 3
