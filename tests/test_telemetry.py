"""Telemetry tests: span nesting and ordering, deterministic exports,
no-op overhead, Chrome trace validation, session stats and traces."""

import json
import random
import time

import pytest

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.net import NetworkChannel
from repro.net.channel import NetworkStats, TransferRecord
from repro.spec import flights_histogram_spec
from repro.telemetry import (
    NOOP,
    NoopTracer,
    TickClock,
    Tracer,
    as_tracer,
    to_chrome_trace,
    to_json,
    validate_chrome_trace,
    write_trace,
)


class TestSpans:
    def test_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id

    def test_completion_order(self):
        # spans land in the finished list as they complete: inner first
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in tracer.spans] == ["inner", "outer"]

    def test_time_containment(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.wall > inner.wall

    def test_attributes_via_set_and_kwargs(self):
        tracer = Tracer()
        with tracer.span("s", color="red") as span:
            span.set(rows=7)
        assert span.attributes == {"color": "red", "rows": 7}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.spans[0].attributes["error"] == "ValueError"
        assert tracer.current_span() is None

    def test_decorator(self):
        tracer = Tracer()

        @tracer.trace("work")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert tracer.spans[0].name == "work"

    def test_measured_span_nests_under_open_span(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("parent") as parent:
            grafted = tracer.measured_span("graft", 0.5, label="x")
        assert grafted.parent_id == parent.span_id
        assert grafted.start == parent.start
        assert grafted.wall == pytest.approx(0.5)

    def test_find_spans_and_children(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("a.b"):
                pass
        assert len(tracer.find_spans(prefix="a")) == 2
        assert [s.name for s in tracer.children_of(a)] == ["a.b"]


class TestDeterministicExport:
    def _run(self):
        tracer = Tracer(clock=TickClock(), cpu_clock=TickClock(step=0.0))
        with tracer.span("compile"):
            pass
        with tracer.span("run", label="startup"):
            with tracer.span("sink:binned"):
                tracer.measured_span("net.transfer", 0.04,
                                     virtual_seconds=0.04)
        return tracer

    def test_identical_runs_identical_json(self):
        doc_a = json.dumps(to_json(self._run()), sort_keys=True)
        doc_b = json.dumps(to_json(self._run()), sort_keys=True)
        assert doc_a == doc_b

    def test_identical_runs_identical_chrome(self):
        doc_a = json.dumps(to_chrome_trace(self._run()), sort_keys=True)
        doc_b = json.dumps(to_chrome_trace(self._run()), sort_keys=True)
        assert doc_a == doc_b

    def test_chrome_export_validates(self):
        assert validate_chrome_trace(to_chrome_trace(self._run())) == []

    def test_write_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(self._run(), str(path), format="chrome")
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(self._run(), str(tmp_path / "t"), format="xml")


class TestChromeValidation:
    def test_flags_partial_overlap(self):
        document = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 50, "dur": 100, "pid": 1,
             "tid": 1},
        ]}
        problems = validate_chrome_trace(document)
        assert any("overlap" in problem for problem in problems)

    def test_accepts_nesting_and_disjoint(self):
        document = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 0, "dur": 40, "pid": 1, "tid": 1},
            {"name": "c", "ph": "X", "ts": 60, "dur": 40, "pid": 1, "tid": 1},
            {"name": "d", "ph": "X", "ts": 200, "dur": 10, "pid": 1,
             "tid": 1},
        ]}
        assert validate_chrome_trace(document) == []

    def test_flags_missing_keys(self):
        document = {"traceEvents": [{"name": "a", "ph": "X", "ts": 0}]}
        problems = validate_chrome_trace(document)
        assert any("pid" in problem for problem in problems)
        assert any("dur" in problem for problem in problems)

    def test_grafted_morsel_layouts_survive_export_rounding(self):
        # Morsel spans are laid end to end under their node; the export
        # rounds to 1/1000 us.  Rounding ts and dur separately used to
        # push abutting spans apart by more than the validator's slack
        # on about 1 layout in 16.
        from repro.core.executors import _graft_plan_nodes

        invalid = []
        for seed in range(2000):
            rng = random.Random(seed)
            tracer = Tracer(clock=TickClock(1000.0 + seed * 0.37, step=1.0))
            morsels = [{"op": "Aggregate", "index": index,
                        "worker": index % 4,
                        "seconds": rng.uniform(1e-4, 5e-3)}
                       for index in range(8)]
            total = sum(record["seconds"] for record in morsels)
            # even seeds: one worker, the node lasts as long as its
            # morsels; odd seeds: they overlapped, the layout compresses
            seconds = total if seed % 2 == 0 \
                else total * rng.uniform(0.3, 0.9)
            with tracer.span("sql.execute"):
                _graft_plan_nodes(tracer, [{
                    "label": "Aggregate", "parent": None,
                    "seconds": seconds, "morsels": morsels,
                }])
            if validate_chrome_trace(to_chrome_trace(tracer)):
                invalid.append(seed)
        assert invalid == []

    def test_separate_lanes_do_not_conflict(self):
        document = {"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
            {"name": "v", "ph": "X", "ts": 50, "dur": 400, "pid": 1,
             "tid": 2},
        ]}
        assert validate_chrome_trace(document) == []


class TestNoop:
    def test_as_tracer_mapping(self):
        assert as_tracer(False) is NOOP
        assert as_tracer(None) is NOOP
        assert isinstance(as_tracer(True), Tracer)
        tracer = Tracer()
        assert as_tracer(tracer) is tracer
        with pytest.raises(TypeError):
            as_tracer("yes")

    def test_noop_swallows_everything(self):
        noop = NoopTracer()
        with noop.span("x", a=1) as span:
            span.set(b=2)
        noop.measured_span("m", 1.0)
        assert noop.find_spans() == []
        assert not noop.enabled

    def test_noop_overhead_guard(self):
        # 100k disabled spans must stay far under wall-clock noise
        # thresholds: the no-op path is one method call and a context
        # manager enter/exit.
        noop = NOOP
        start = time.perf_counter()
        for _ in range(100_000):
            with noop.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # generous: ~0.03s typical


class TestNetworkLogRing:
    def test_ring_buffer_caps_log_but_keeps_aggregates(self):
        channel = NetworkChannel(latency_ms=1, bandwidth_mbps=100,
                                 log_capacity=4)
        for index in range(10):
            channel.request(100, 1000, label="q{}".format(index))
        stats = channel.stats
        assert len(stats.log) == 4
        assert stats.log_dropped == 6
        assert [record.label for record in stats.log] == \
            ["q6", "q7", "q8", "q9"]
        # Aggregates cover all ten transfers, not just the retained four.
        assert stats.round_trips == 10
        assert stats.bytes_received == 10_000
        assert stats.as_dict()["log_capacity"] == 4

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            NetworkStats(log_capacity=0)

    def test_reset_preserves_capacity(self):
        channel = NetworkChannel(log_capacity=2)
        channel.request(1, 1)
        channel.reset()
        assert channel.stats.round_trips == 0
        assert channel.stats.log.maxlen == 2

    def test_record_type(self):
        channel = NetworkChannel(latency_ms=5)
        channel.request(10, 20, label="x")
        record = channel.stats.log[0]
        assert isinstance(record, TransferRecord)
        assert record.request_bytes == 10
        assert record.response_bytes == 20
        assert record.seconds > 0


@pytest.fixture(scope="module")
def traced_session():
    session = VegaPlus(
        flights_histogram_spec(),
        data={"flights": generate_flights(5000)},
        channel=NetworkChannel(20, 100),
        trace=True,
    )
    session.startup()
    session.run_client_only()
    session.interact("maxbins", 30)
    return session


class TestTracedSession:
    def test_request_path_spans_present(self, traced_session):
        names = {span.name for span in traced_session.tracer.spans}
        for expected in ("compile", "plan", "sql.translate", "sql.execute",
                         "net.transfer", "client.suffix", "server.segment",
                         "run"):
            assert expected in names, expected
        assert any(name.startswith("pulse:") for name in names)
        assert any(name.startswith("engine:") for name in names)
        assert any(name.startswith("sink:") for name in names)

    def test_sink_span_nests_under_run(self, traced_session):
        tracer = traced_session.tracer
        runs = tracer.find_spans("run")
        sinks = tracer.find_spans(prefix="sink:")
        run_ids = {span.span_id for span in runs}
        assert sinks
        assert all(span.parent_id in run_ids for span in sinks)

    def test_chrome_export_is_valid(self, traced_session, tmp_path):
        path = tmp_path / "session.json"
        document = traced_session.export_trace(str(path))
        assert validate_chrome_trace(document) == []
        assert json.loads(path.read_text())["otherData"]["stats"]

    def test_stats_snapshot(self, traced_session):
        stats = traced_session.stats()
        assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0
        assert stats["network"]["round_trips"] > 0
        assert stats["runs"] == len(traced_session.history)
        assert "log_dropped" in stats["network"]

    def test_counters_match_channel(self, traced_session):
        assert traced_session.metrics.counter("net.round_trips").value == \
            traced_session.channel.stats.round_trips

    def test_dashboard_includes_trace_decomposition(self, traced_session):
        board = traced_session.dashboard()
        trace = board["trace"]
        assert trace is not None
        assert trace["network"] > 0
        assert set(trace["operators"]) or trace["server"] > 0
        assert trace["total"] >= 0

    def test_untraced_session_noop_and_export_refuses(self, tmp_path):
        from repro.core import SessionError

        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(1000)},
        )
        session.startup()
        assert session.tracer is NOOP
        assert session.tracer.spans == ()
        with pytest.raises(SessionError):
            session.export_trace(str(tmp_path / "t.json"))


class TestValidateCli:
    def test_cli_accepts_good_trace(self, traced_session, tmp_path, capsys):
        from repro.telemetry.validate import main

        path = tmp_path / "trace.json"
        traced_session.export_trace(str(path))
        status = main([str(path), "--expect-span", "compile",
                       "--expect-span", "pulse:*"])
        assert status == 0
        assert "trace OK" in capsys.readouterr().out

    def test_cli_rejects_missing_span(self, traced_session, tmp_path):
        from repro.telemetry.validate import main

        path = tmp_path / "trace.json"
        traced_session.export_trace(str(path))
        assert main([str(path), "--expect-span", "nonexistent"]) == 1
