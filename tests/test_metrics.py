"""The always-on metrics plane: labeled registry, sliding windows,
Prometheus export, the slow-query log, and the session integration."""

import json
import time

import pytest

from repro.core.session import VegaPlus
from repro.datagen import generate_flights
from repro.metrics import (
    MetricsRegistry,
    NULL,
    NullMetrics,
    REGISTRY,
    SlowQueryLog,
    canonical_query,
    get_registry,
    latency_summary,
    percentile,
    plan_signature,
    render_prometheus,
    resolve_metrics,
    snapshot_json,
)
from repro.metrics.validate import validate_exposition
from repro.spec import flights_histogram_spec
from repro.telemetry import Tracer


class FakeClock:
    """Manually advanced clock for deterministic window tests."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def small_session(**kwargs):
    kwargs.setdefault("data", {"flights": generate_flights(2_000)})
    return VegaPlus(flights_histogram_spec(), **kwargs)


# -- registry basics ---------------------------------------------------------


class TestRegistry:
    def test_labeled_counter_children_are_distinct(self):
        registry = MetricsRegistry()
        registry.inc("q", kind="rows")
        registry.inc("q", kind="rows")
        registry.inc("q", kind="value")
        family = registry.families()["q"]
        values = {
            child.labels["kind"]: child.value
            for child in family.children.values()
        }
        assert values == {"rows": 2, "value": 1}

    def test_same_labels_any_order_share_a_child(self):
        registry = MetricsRegistry()
        registry.inc("q", a="1", b="2")
        registry.inc("q", b="2", a="1")
        family = registry.families()["q"]
        assert len(family.children) == 1
        assert next(iter(family.children.values())).value == 2

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cache.bytes", session="s1")
        gauge.set(100)
        gauge.add(-25)
        assert gauge.value == 75.0

    def test_histogram_bins_and_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.bucket_counts == [1, 2, 1]
        assert histogram.minimum == 0.05
        assert histogram.maximum == 5.0
        assert histogram.mean == pytest.approx(6.05 / 4)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_view_binds_and_merges_labels(self):
        registry = MetricsRegistry()
        view = registry.view(session="s1", tenant="acme")
        view.inc("q", kind="rows")
        nested = view.view(extra="y")
        nested.inc("q", kind="rows")
        family = registry.families()["q"]
        label_sets = sorted(
            tuple(sorted(child.labels.items()))
            for child in family.children.values()
        )
        assert label_sets == [
            (("extra", "y"), ("kind", "rows"), ("session", "s1"),
             ("tenant", "acme")),
            (("kind", "rows"), ("session", "s1"), ("tenant", "acme")),
        ]

    def test_resolve_metrics(self):
        assert resolve_metrics(True) is REGISTRY
        assert resolve_metrics(False) is None
        assert resolve_metrics(None) is None
        registry = MetricsRegistry()
        assert resolve_metrics(registry) is registry
        with pytest.raises(TypeError):
            resolve_metrics("yes")

    def test_null_metrics_is_inert(self):
        assert not NULL.enabled
        NULL.inc("anything", kind="rows")
        NULL.observe("anything", 1.0)
        NULL.set_gauge("anything", 1.0)
        assert NULL.counter("x").inc() == 0
        assert NULL.view(session="s").slowlog.maybe_record(99.0) is None

    def test_reset_drops_families_and_slowlog(self):
        registry = MetricsRegistry(slow_query_seconds=0.0)
        registry.inc("q")
        registry.slowlog.maybe_record(1.0, sql="SELECT 1")
        registry.reset()
        assert registry.families() == {}
        assert registry.slowlog.records() == []


# -- sliding windows ---------------------------------------------------------


class TestSlidingWindow:
    def test_counter_rate_over_window(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock, window_seconds=60,
                                   window_buckets=12)
        counter = registry.counter("ticks")
        for index in range(120):
            if index:
                clock.advance(0.5)
            counter.inc()  # 120 increments spread over 59.5s
        assert counter.window_delta() == 120
        assert counter.rate() == pytest.approx(2.0)
        # Roll 10s further: the two oldest 5s buckets (10 increments
        # each) have now left the window.
        clock.advance(10.0)
        assert counter.window_delta() == 100

    def test_counter_window_expires_old_buckets(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock, window_seconds=60,
                                   window_buckets=12)
        counter = registry.counter("ticks")
        counter.inc(100)
        clock.advance(61.0)  # the whole window has rolled past
        assert counter.window_delta() == 0
        assert counter.rate() == 0.0
        assert counter.value == 100  # the lifetime total survives

    def test_histogram_window_percentiles_match_batch_helpers(self):
        # Acceptance: windowed p50/p95/p99 must equal the shared batch
        # percentile helpers on the same samples.
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock, window_seconds=60,
                                   window_buckets=12)
        histogram = registry.histogram("lat")
        samples = [((i * 7919) % 100) / 100.0 for i in range(200)]
        for value in samples:
            histogram.observe(value)
            clock.advance(0.25)  # all inside the window
        assert histogram.window_samples() == samples
        for q in (50, 95, 99):
            assert histogram.window_percentile(q) == percentile(samples, q)
        summary = histogram.window_summary()
        batch = latency_summary(samples)
        for key in ("events", "p50_s", "p95_s", "p99_s", "max_s"):
            assert summary[key] == batch[key]
        assert summary["mean_s"] == pytest.approx(batch["mean_s"])

    def test_histogram_window_drops_expired_samples(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock, window_seconds=60,
                                   window_buckets=12)
        histogram = registry.histogram("lat")
        histogram.observe(100.0)  # will expire
        clock.advance(58.0)
        histogram.observe(1.0)
        clock.advance(4.0)  # first sample's bucket is now out of window
        assert histogram.window_samples() == [1.0]
        assert histogram.window_percentile(99) == 1.0
        assert histogram.count == 2  # lifetime stats keep both

    def test_histogram_window_sample_cap_counts_drops(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock, window_samples=8)
        histogram = registry.histogram("lat")
        for value in range(20):
            histogram.observe(float(value))
        assert len(histogram.window_samples()) == 8
        assert histogram.window_dropped() == 12
        assert histogram.window_count() == 20
        assert histogram.window_summary()["dropped"] == 12


# -- exporters ---------------------------------------------------------------


class TestExport:
    def build_registry(self):
        registry = MetricsRegistry(slow_query_seconds=0.0)
        registry.inc("sql.queries", 3, kind="rows", session="s1")
        registry.set_gauge("cache.bytes", 4096, session="s1")
        histogram = registry.histogram("sql.server_seconds", session="s1")
        for value in (0.0005, 0.02, 0.02, 3.0):
            histogram.observe(value)
        registry.slowlog.maybe_record(
            1.25, sql="SELECT 1", server_seconds=1.0, network_seconds=0.25)
        return registry

    def test_prometheus_round_trips_through_validator(self):
        # Acceptance: render -> re-parse -> structurally valid, with all
        # required families present.
        text = render_prometheus(self.build_registry())
        problems = validate_exposition(text, require=[
            "repro_sql_queries_total",
            "repro_cache_bytes",
            "repro_sql_server_seconds",
            "repro_slowlog_recorded_total",
        ])
        assert problems == []

    def test_prometheus_shape(self):
        text = render_prometheus(self.build_registry())
        assert '# TYPE repro_sql_queries_total counter' in text
        assert 'repro_sql_queries_total{kind="rows",session="s1"} 3.0' \
            in text
        assert '# TYPE repro_sql_server_seconds histogram' in text
        # Cumulative buckets: 1 value <= 1e-3, 3 <= 1e-1, all 4 in +Inf.
        assert 'repro_sql_server_seconds_bucket{session="s1",le="0.001"} 1' \
            in text
        assert 'repro_sql_server_seconds_bucket{session="s1",le="0.1"} 3' \
            in text
        assert 'repro_sql_server_seconds_bucket{session="s1",le="+Inf"} 4' \
            in text
        assert 'repro_sql_server_seconds_count{session="s1"} 4' in text
        assert 'repro_slowlog_recorded_total 1.0' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("q", label='he said "hi"\n\\done')
        text = render_prometheus(registry)
        assert r'label="he said \"hi\"\n\\done"' in text
        assert validate_exposition(text) == []

    def test_validator_flags_broken_exposition(self):
        bad = "\n".join([
            "# TYPE repro_x counter",
            "repro_x 1.0",
            "repro_x 2.0",                      # duplicate sample
            "repro_undeclared 1.0",             # no TYPE
            "# TYPE repro_h histogram",
            'repro_h_bucket{le="0.1"} 5',       # no +Inf, no _sum/_count
            "repro_bad value_is_garbage",
        ])
        problems = validate_exposition(bad)
        text = "\n".join(problems)
        assert "duplicate sample" in text
        assert "no # TYPE" in text
        assert "+Inf" in text
        assert "missing _sum" in text
        assert "missing _count" in text
        assert "bad sample value" in text

    def test_json_snapshot_structure(self):
        snapshot = json.loads(snapshot_json(self.build_registry()))
        assert snapshot["families"]["sql.queries"]["kind"] == "counter"
        child = snapshot["families"]["sql.server_seconds"]["children"][0]
        assert child["count"] == 4
        assert child["window"]["p50_s"] == 0.02
        assert snapshot["slowlog"]["recorded"] == 1
        assert snapshot["slowlog"]["recent"][0]["sql"] == "SELECT 1"


# -- slow-query log ----------------------------------------------------------


class TestProcessGauges:
    def test_peak_rss_is_positive_and_monotonic(self):
        from repro.metrics import peak_rss_bytes

        first = peak_rss_bytes()
        assert first > 0  # POSIX: ru_maxrss is always populated
        assert peak_rss_bytes() >= first  # a high-water mark never drops

    def test_snapshot_refreshes_the_gauge(self):
        from repro.metrics import PEAK_RSS_GAUGE

        registry = MetricsRegistry()
        family = registry.snapshot()["families"][PEAK_RSS_GAUGE]
        assert family["kind"] == "gauge"
        assert family["children"][0]["value"] > 0

    def test_prometheus_scrape_includes_peak_rss(self):
        registry = MetricsRegistry()
        text = render_prometheus(registry)
        assert "repro_process_peak_rss_bytes" in text
        for line in text.splitlines():
            if line.startswith("repro_process_peak_rss_bytes"):
                assert float(line.rsplit(" ", 1)[1]) > 0
                break
        else:
            raise AssertionError("no sample line for the peak-RSS gauge")


class TestSlowQueryLog:
    def test_threshold_gates_recording(self):
        log = SlowQueryLog(threshold_seconds=0.5, capacity=8)
        assert log.maybe_record(0.49, sql="SELECT 1") is None
        record = log.maybe_record(0.51, sql="SELECT 1", kind="rows",
                                  backend="embedded", rows=10)
        assert record is not None
        assert record.kind == "rows"
        assert record.backend == "embedded"
        assert record.rows == 10
        assert len(log.records()) == 1

    def test_ring_drops_oldest_first_with_exact_counter(self):
        # Acceptance: capacity 4, record 7 -> 4 resident, dropped == 3,
        # survivors are the newest four in order.
        log = SlowQueryLog(threshold_seconds=0.0, capacity=4)
        for index in range(7):
            log.maybe_record(1.0 + index, sql="SELECT {}".format(index))
        records = log.records()
        assert len(records) == 4
        assert log.dropped == 3
        assert log.recorded == 7
        assert [r.sql for r in records] == [
            "SELECT 3", "SELECT 4", "SELECT 5", "SELECT 6"]
        assert [r.sequence for r in records] == [3, 4, 5, 6]

    def test_signature_collapses_whitespace_and_float_noise(self):
        a = plan_signature('SELECT * FROM "t"  WHERE "v" >= 0.3')
        b = plan_signature(
            'SELECT *  FROM "t" WHERE "v" >= 0.30000000000000004')
        c = plan_signature('SELECT * FROM "t" WHERE "v" >= 0.4')
        assert a == b
        assert a != c

    def test_signature_keeps_distinct_literals_distinct(self):
        assert canonical_query('SELECT 1') != canonical_query('SELECT 2')
        # Identifiers and quoted names are untouched.
        assert '"col2"' in canonical_query('SELECT "col2" FROM "t"')

    def test_jsonl_export(self, tmp_path):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=4)
        log.maybe_record(1.0, sql="SELECT 1", kind="rows", custom="x")
        path = log.write_jsonl(str(tmp_path / "slow.jsonl"))
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert len(lines) == 1
        assert lines[0]["sql"] == "SELECT 1"
        assert lines[0]["custom"] == "x"  # extra fields flatten

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_SECONDS", "2.5")
        monkeypatch.setenv("REPRO_SLOW_QUERY_CAPACITY", "16")
        log = SlowQueryLog()
        assert log.threshold_seconds == 2.5
        assert log.capacity == 16


# -- session integration -----------------------------------------------------


class TestSessionMetrics:
    def test_session_metrics_on_by_default_into_process_registry(self):
        session = small_session()
        assert session.metrics.enabled
        assert session.metrics.registry is get_registry()
        assert session.metrics.labels["session"] == session.session_id

    def test_metrics_false_disables_cleanly(self):
        session = small_session(metrics=False)
        assert isinstance(session.metrics, NullMetrics)
        session.startup()
        session.interact("maxbins", 30)
        assert session.stats()["slow_queries"] is None

    def test_session_counters_match_component_truth(self):
        registry = MetricsRegistry()
        session = small_session(metrics=registry, tenant="acme")
        session.startup()
        session.interact("maxbins", 30)
        session.interact("maxbins", 40)

        labels = {"session": session.session_id, "tenant": "acme"}
        stats = session.stats()
        assert registry.counter("cache.hits", **labels).value \
            == stats["cache"]["hits"]
        assert registry.counter("cache.misses", **labels).value \
            == stats["cache"]["misses"]
        assert registry.gauge("cache.bytes", **labels).value \
            == stats["cache"]["bytes"]
        assert registry.counter("net.round_trips", **labels).value \
            == stats["network"]["round_trips"]
        assert registry.counter("net.bytes_received", **labels).value \
            == stats["network"]["bytes_received"]
        runs = registry.families()["session.runs"]
        assert sum(c.value for c in runs.children.values()) == 3
        total_queries = sum(
            child.value for child in
            registry.families()["sql.queries"].children.values()
        )
        assert total_queries == stats["cache"]["hits"] \
            + stats["cache"]["misses"]

    def test_two_sessions_aggregate_under_distinct_labels(self):
        registry = MetricsRegistry()
        one = small_session(metrics=registry, tenant="a")
        two = small_session(metrics=registry, tenant="b")
        one.startup()
        two.startup()
        family = registry.families()["session.runs"]
        tenants = sorted(
            child.labels["tenant"] for child in family.children.values()
        )
        assert tenants == ["a", "b"]
        assert one.session_id != two.session_id

    def test_induced_slow_query_is_captured_with_signature(self):
        # Acceptance: threshold 0 -> every server query is "slow"; the
        # record carries the canonical signature and plan context.
        registry = MetricsRegistry(slow_query_seconds=0.0)
        session = small_session(metrics=registry, tenant="acme")
        session.startup()
        records = registry.slowlog.records()
        assert records, "startup queries must cross a zero threshold"
        record = records[-1]
        assert record.signature == plan_signature(record.sql)
        assert record.backend == session.backend.name
        assert record.cut is not None
        assert record.session == session.session_id
        assert record.tenant == "acme"
        assert record.total_seconds >= record.network_seconds
        assert not record.cached
        text = render_prometheus(registry)
        assert "repro_slowlog_recorded_total {}.0".format(
            registry.slowlog.recorded) in text

    def test_cached_queries_do_not_hit_the_slowlog(self):
        registry = MetricsRegistry(slow_query_seconds=0.0)
        # Enough rows that the optimizer keeps a server segment (an
        # all-client plan would run no SQL at all).
        session = small_session(metrics=registry,
                                data={"flights": generate_flights(8_000)})
        session.startup()
        recorded_after_startup = registry.slowlog.recorded
        # Same cut as startup: the extent value query re-renders to the
        # same SQL and is served from the cache.
        session.interact("maxbins", 30)
        cached = registry.counter(
            "sql.queries", kind="value", cached="true",
            session=session.session_id).value
        assert registry.slowlog.recorded \
            <= recorded_after_startup + 2  # only uncached queries add
        assert cached >= 1

    def test_traced_session_counts_once_and_bridges_nothing(self):
        registry = MetricsRegistry()
        session = small_session(metrics=registry, trace=True,
                                parallelism=2)
        session.startup()
        # Directly instrumented families carry exactly the component
        # truth: the tracer writes no number anywhere.
        labels = {"session": session.session_id}
        assert registry.counter("net.round_trips", **labels).value \
            == session.channel.stats.round_trips
        assert registry.counter("cache.misses", **labels).value \
            == session.cache.misses
        # What only the tracer used to count is read off its spans and
        # is not a registry family; tracing changes no exposed series.
        untraced = MetricsRegistry()
        small_session(metrics=untraced, parallelism=2).startup()
        assert set(registry.families()) == set(untraced.families())

    def test_shared_tracer_keeps_session_labels(self):
        # Two sessions on one Tracer and one registry: only A runs, so
        # nothing labeled session="B" may move (the tracer->registry
        # bridge had one handle per Tracer and the last session to
        # attach took A's engine.* counts).
        registry = MetricsRegistry()
        tracer = Tracer()
        data = {"flights": generate_flights(150_000)}
        a = small_session(metrics=registry, trace=tracer, data=data,
                          parallelism=2, session_id="A")
        small_session(metrics=registry, trace=tracer, data=data,
                      parallelism=2, session_id="B")
        a.startup()
        assert tracer.find_spans("engine:morsel")  # A's work was split
        moved = {}
        for name, family in registry.families().items():
            for child in family.children.values():
                if child.labels.get("session") != "B":
                    continue
                value = child.count if family.kind == "histogram" \
                    else child.value
                if value:
                    moved[name] = value
        assert moved == {}
        assert registry.counter("cache.misses", session="A").value \
            == a.cache.misses > 0

    def test_stats_exposes_session_identity_and_slowlog(self):
        registry = MetricsRegistry()
        session = small_session(metrics=registry, tenant="t")
        stats = session.stats()
        assert stats["session"]["id"] == session.session_id
        assert stats["session"]["tenant"] == "t"
        assert stats["session"]["metrics"] is True
        assert stats["slow_queries"]["capacity"] \
            == registry.slowlog.capacity

    def test_engine_fallback_lands_in_process_registry(self):
        from repro.engine import Database, Table

        before = {
            child.labels.get("reason"): child.value
            for child in get_registry().families().get(
                "engine.fallback",
                type("F", (), {"children": {}})).children.values()
        }
        db = Database(parallelism=2, morsel_rows=10)
        db.load_table("t", Table.from_columns(
            v=[float(i) for i in range(200)]))
        # MEDIAN is non-decomposable: the parallel executor must fall
        # back to the serial kernel and count the reason.
        db.execute('SELECT MEDIAN("v") AS m FROM "t"')
        family = get_registry().families()["engine.fallback"]
        after = {
            child.labels.get("reason"): child.value
            for child in family.children.values()
        }
        assert sum(after.values()) > sum(before.values())

    def test_overhead_of_always_on_metrics_within_budget(self):
        # Acceptance: the default-on plane must cost <= 5% on a real
        # session workload vs metrics=False (min-of-N to cut noise).
        def workload(metrics):
            session = small_session(metrics=metrics)
            session.startup()
            for value in (20, 25, 30, 35, 40):
                session.interact("maxbins", value)
            return session

        def timed(metrics):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                workload(metrics)
                best = min(best, time.perf_counter() - start)
            return best

        workload(False)  # warm caches/imports outside the timing
        off = timed(False)
        on = timed(MetricsRegistry())
        # 5% budget plus a small absolute epsilon so sub-ms jitter on a
        # fast workload cannot flake the guard.
        assert on <= off * 1.05 + 0.005, \
            "metrics overhead {:.4f}s vs {:.4f}s".format(on, off)


# -- CLIs --------------------------------------------------------------------


class TestCommandLine:
    def test_validate_cli(self, tmp_path, capsys):
        from repro.metrics.validate import main

        registry = MetricsRegistry()
        registry.inc("q", kind="rows")
        path = tmp_path / "m.prom"
        path.write_text(render_prometheus(registry))
        assert main([str(path), "--require", "repro_q_total"]) == 0
        assert main([str(path), "--require", "repro_missing"]) == 1

    def test_top_view_renders_registry(self):
        from repro.metrics.__main__ import render_top

        registry = MetricsRegistry(slow_query_seconds=0.0)
        registry.inc("sql.queries", 3, kind="rows")
        registry.set_gauge("cache.bytes", 128)
        registry.observe("sql.server_seconds", 0.02)
        registry.slowlog.maybe_record(1.0, sql="SELECT 1", backend="e")
        text = render_top(registry.snapshot())
        assert "sql.queries{kind=rows}" in text
        assert "cache.bytes" in text
        assert "sql.server_seconds" in text
        assert "slow queries" in text
        assert "SELECT 1" not in text  # tail shows metadata, not raw SQL

    def test_main_renders_snapshot_file(self, tmp_path, capsys):
        from repro.metrics.__main__ import main

        registry = MetricsRegistry()
        registry.inc("q")
        path = tmp_path / "snap.json"
        path.write_text(snapshot_json(registry))
        assert main([str(path)]) == 0
        assert "q" in capsys.readouterr().out
