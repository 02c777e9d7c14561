"""Percentiles, the sample-count rule and span self-time arithmetic."""

import harness
from recorder import Span, self_seconds, span_cost


def test_nearest_rank_percentile():
    values = list(range(1, 101))          # 1..100
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.95) == 95
    assert harness.percentile(values, 1.00) == 100
    assert harness.percentile([7.0], 0.95) == 7.0
    # nearest rank never interpolates: the answer is a sample
    assert harness.percentile([1.0, 2.0, 10.0], 0.50) == 2.0
    assert harness.percentile([3.0, 1.0, 2.0, 4.0], 0.50) == 2.0


def test_percentile_needs_ten_samples_beyond_it():
    assert harness.supports(200, 0.95)
    assert not harness.supports(199, 0.95)
    assert harness.supports(20, 0.50)
    assert not harness.supports(1000, 0.995)
    assert harness.MIN_EVENTS * (1 - 0.95) >= harness.TAIL_SAMPLES


def span(name, start, end, parent=None, event=0):
    out = Span(name, parent, event)
    out.start, out.end = start, end
    return out


def test_self_time_is_duration_minus_what_children_cover():
    root = span("event", 0.0, 10.0)
    session = span("session", 1.0, 9.0, root)
    segment = span("segment", 2.0, 6.0, session)
    engine = span("engine", 3.0, 5.0, segment)
    suffix = span("suffix", 6.5, 8.5, session)
    selfs = self_seconds([root, session, segment, engine, suffix])
    assert selfs[id(root)] == 2.0
    assert selfs[id(session)] == 8.0 - 4.0 - 2.0
    assert selfs[id(segment)] == 2.0
    assert selfs[id(engine)] == 2.0
    assert selfs[id(suffix)] == 2.0
    # the parts add up to the whole
    assert sum(selfs.values()) == root.seconds


def test_overlapping_and_overhanging_children_count_once():
    root = span("event", 0.0, 10.0)
    first = span("a", 1.0, 6.0, root)
    second = span("b", 4.0, 8.0, root)       # overlaps the first
    late = span("c", 9.0, 12.0, root)        # ends after its parent
    selfs = self_seconds([root, first, second, late])
    assert selfs[id(root)] == 10.0 - (8.0 - 1.0) - (10.0 - 9.0)


def test_one_span_costs_microseconds():
    # the calibration behind trace.recorder_share
    assert 0.0 < span_cost(calls=500, rounds=2) < 1e-4


def test_a_boundary_that_does_not_resolve_is_reported_not_raised():
    import layers
    from recorder import Boundary, Recorder

    recorder = Recorder()
    recorder.install([Boundary("compile_spec", "repro.compile:no_such_name"),
                      Boundary("Database.execute",
                               "repro.engine.database:Database.gone"),
                      Boundary("wire_bytes", "repro.no_such_module:f")])
    recorder.uninstall()
    assert recorder.missing == ["compile_spec", "Database.execute",
                                "wire_bytes"]
    assert layers.metrics_of(recorder.missing) == [
        "compile.spec_ms", "core.session.self_ms", "engine.execute_ms",
        "net.wire_encode_ms"]


def test_recorder_wraps_and_restores_public_callables():
    import layers
    from recorder import Recorder
    from repro.core.cache import ResultCache

    original = ResultCache.get
    recorder = Recorder()
    recorder.install(layers.BOUNDARIES)
    try:
        assert not recorder.missing
        assert ResultCache.get is not original
        with recorder.event(7):
            ResultCache().get("absent")
    finally:
        recorder.uninstall()
    assert ResultCache.get is original
    names = [(s.name, s.event) for s in recorder.spans]
    assert names == [("ResultCache.get", 7), ("event", 7)]
    assert recorder.spans[0].parent is recorder.spans[1]


def test_blocks_split_evenly_and_short_runs_are_one_block():
    assert [len(b) for b in harness.blocks(list(range(399)))] == [399]
    assert [len(b) for b in harness.blocks(list(range(1000)))] == [200] * 5
    assert [len(b) for b in harness.blocks(list(range(650)))] \
        == [216, 217, 217]
