"""Data-tile index: detection, equivalence, cost gating, residency,
streaming deltas, and observability."""

import json
import random

import pytest

from repro.core.session import VegaPlus
from repro.datagen import generate_flights
from repro.fuzz.normalize import canonical_rows, rows_equivalent
from repro.planner.calibrate import refit_from_report
from repro.metrics import MetricsRegistry
from repro.planner.costmodel import CostParameters, should_use_tiles
from repro.spec import flights_histogram_spec


def make_rows(n=300, seed=42):
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        rows.append({
            "distance": 25.0 * rng.randint(0, 40),
            "dep_delay": (None if rng.random() < 0.1
                          else float(rng.randint(-10, 50))),
            "carrier": rng.choice(["AA", "BB", "CC", "DD"]),
        })
    return rows


def brush_spec(expr="datum.distance >= lo && datum.distance < hi",
               extra_signals=()):
    return {
        "signals": [
            {"name": "lo", "value": 0.0,
             "bind": {"input": "range", "min": 0, "max": 1000}},
            {"name": "hi", "value": 1000.0,
             "bind": {"input": "range", "min": 0, "max": 1000}},
        ] + list(extra_signals),
        "data": [
            {"name": "t", "url": "synthetic://t"},
            {"name": "view", "source": "t", "transform": [
                {"type": "filter", "expr": expr},
                {"type": "aggregate", "groupby": ["carrier"],
                 "ops": ["count", "mean"], "fields": [None, "dep_delay"],
                 "as": ["cnt", "avg"]},
            ]},
        ],
        "marks": [{"type": "rect", "from": {"data": "view"},
                   "encode": {"update": {
                       "x": {"field": "carrier"},
                       "y": {"field": "cnt"},
                       "fill": {"field": "avg"},
                   }}}],
    }


def make_session(rows=None, spec=None, tiles="force", **kwargs):
    session = VegaPlus(
        spec or brush_spec(), data={"t": rows or make_rows()},
        latency_ms=0.0, bandwidth_mbps=100000.0, tiles=tiles, **kwargs)
    session.startup()
    return session


def canon(session, sink="view"):
    fields = session.compiled.spec.mark_fields(sink) or None
    return canonical_rows(session._sink_state(sink).rows, fields=fields)


def assert_sessions_agree(tiled, direct, stage=""):
    t_rows, d_rows = canon(tiled), canon(direct)
    assert rows_equivalent(t_rows, d_rows), \
        "{}: tiled={!r} direct={!r}".format(stage, t_rows[:4], d_rows[:4])


# -- detection ---------------------------------------------------------------


def test_detects_simple_brush():
    session = make_session()
    entry = session.tiles.state_for(
        session, "view", session._sink_state("view"))
    assert entry.candidate is not None
    assert [axis.field for axis in entry.candidate.axes] == ["distance"]
    assert entry.candidate.brush_signals == {"lo", "hi"}


def test_rejects_non_range_interactive_filter():
    spec = brush_spec(
        expr="datum.carrier == pick",
        extra_signals=[{"name": "pick", "value": "AA",
                        "bind": {"input": "select",
                                 "options": ["AA", "BB"]}}])
    session = make_session(spec=spec)
    entry = session.tiles.state_for(
        session, "view", session._sink_state("view"))
    assert entry.candidate is None
    assert entry.reason


def test_rejects_unsupported_aggregate_op():
    spec = brush_spec()
    spec["data"][1]["transform"][1] = {
        "type": "aggregate", "groupby": ["carrier"],
        "ops": ["median"], "fields": ["dep_delay"], "as": ["med"]}
    session = make_session(spec=spec)
    entry = session.tiles.state_for(
        session, "view", session._sink_state("view"))
    assert entry.candidate is None


# -- equivalence -------------------------------------------------------------

#: the 0..1000 extent at tile resolution 48 snaps to a nice step of 50,
#: so every multiple of 50 is a grid edge (1000 itself is the stop edge)
EDGE_CASES = [
    (0.0, 1000.0),     # full range
    (0.0, 0.0),        # empty (lo == hi with half-open ops)
    (250.0, 250.0),
    (950.0, 1000.0),   # touches the stop edge
    (1000.0, 1000.0),  # degenerate at stop
    (500.0, 250.0),    # inverted: empty selection
    (None, 500.0),     # null bound: JS coerces to NaN, always false
    (-1e9, 1e9),       # far outside the data
]


@pytest.mark.parametrize("lo,hi", EDGE_CASES)
def test_tile_matches_direct_on_edges(lo, hi):
    tiled = make_session(tiles="force")
    direct = make_session(tiles=False)
    for name, value in (("lo", lo), ("hi", hi)):
        tiled.interact(name, value)
        direct.interact(name, value)
    assert_sessions_agree(tiled, direct, "lo={} hi={}".format(lo, hi))
    assert tiled.tiles.hits >= 1


def test_unaligned_bound_falls_back_and_matches():
    tiled = make_session(tiles="force")
    direct = make_session(tiles=False)
    tiled.interact("lo", 260.0)   # 260 splits the [250, 275) slot
    direct.interact("lo", 260.0)
    assert tiled.tiles.unaligned >= 1
    assert tiled.tiles.hits == 0
    assert_sessions_agree(tiled, direct, "off-grid")
    # back on the grid: the tile path resumes
    tiled.interact("lo", 250.0)
    direct.interact("lo", 250.0)
    assert tiled.tiles.hits == 1
    assert_sessions_agree(tiled, direct, "realigned")


def test_snap_to_grid_hints_keep_tile_path():
    tiled = make_session(tiles="force")
    direct = make_session(tiles=False)
    assert tiled.tile_grid_hints("view") is None  # no cube yet
    tiled.interact("lo", 250.0)  # first brush builds the cube
    direct.interact("lo", 250.0)

    hints = tiled.tile_grid_hints("view")
    assert hints is not None and hints[0]["field"] == "distance"
    grid = hints[0]["grid"]
    assert hints[0]["step"] == grid.step and hints[0]["n_bins"] == \
        grid.n_bins

    # 263 would split a slot; snapping turns it into an on-grid bound
    raw = 263.0
    snapped = tiled.snap_brush("view", "distance", raw)
    assert snapped != raw and grid.aligned(snapped, ">=")
    before = (tiled.tiles.aligned, tiled.tiles.unaligned)
    tiled.interact("lo", snapped)
    direct.interact("lo", snapped)
    assert tiled.tiles.aligned == before[0] + 1
    assert tiled.tiles.unaligned == before[1]
    assert_sessions_agree(tiled, direct, "snapped")
    assert tiled.tiles.stats()["aligned_slices"] == tiled.tiles.aligned

    # a field with no grid passes the bound through untouched
    assert tiled.snap_brush("view", "dep_delay", raw) == raw


def test_snap_always_lands_aligned():
    from math import nan

    from repro.tiles.cube import BrushGrid

    grid = BrushGrid(0.0, 50.0, 21)
    for op in (">=", "<", ">", "<="):
        for bound in (-1e9, -3.0, 0.0, 12.5, 250.0, 263.0, 999.0,
                      1050.0, 1e9):
            snapped = grid.snap(bound, op)
            assert grid.aligned(snapped, op), (op, bound, snapped)
            # idempotent: snapping an aligned bound is the identity
            assert grid.snap(snapped, op) == snapped, (op, bound)
    assert grid.snap(nan, ">=") != grid.snap(nan, ">=")  # NaN passthrough


def test_gated_brush_null_selects_everything():
    expr = "lo == null || (datum.distance >= lo && datum.distance < hi)"
    tiled = make_session(spec=brush_spec(expr=expr), tiles="force")
    direct = make_session(spec=brush_spec(expr=expr), tiles=False)
    for name, value in (("lo", None), ("lo", 300.0), ("lo", None)):
        tiled.interact(name, value)
        direct.interact(name, value)
        assert_sessions_agree(tiled, direct, "{}={}".format(name, value))
    assert tiled.tiles.hits >= 2


# -- cost gating -------------------------------------------------------------


def test_should_use_tiles_decision_rule():
    params = CostParameters()
    # expensive requery, tiny cube: tile wins
    assert should_use_tiles(params, requery_seconds=0.5, cells=1000)
    # essentially free requery: not worth building
    assert not should_use_tiles(params, requery_seconds=1e-6, cells=1000)
    # huge cube whose slice alone costs more than the requery
    slow_slice = CostParameters(tile_cell_cost=1.0)
    assert not should_use_tiles(slow_slice, requery_seconds=0.5,
                                cells=1000)


def test_auto_mode_declines_cheap_requery():
    # 300 rows requery in well under a millisecond: the cost model must
    # keep the requery path (and explain() must say why)
    session = make_session(tiles=True)
    direct = make_session(tiles=False)
    session.interact("lo", 250.0)
    direct.interact("lo", 250.0)
    assert session.tiles.builds == 0
    assert session.tiles.hits == 0
    assert_sessions_agree(session, direct, "auto-declined")
    assert any("tile[view]: requery (cost model" in line
               for line in session.explain().splitlines())


# -- cache residency ---------------------------------------------------------


def test_evicted_cube_rebuilds_on_demand():
    tiled = make_session(tiles="force")
    direct = make_session(tiles=False)
    tiled.interact("lo", 250.0)
    direct.interact("lo", 250.0)
    assert tiled.tiles.builds == 1
    tiled.cache.clear()  # byte-pressure eviction from the outside
    tiled.interact("hi", 750.0)
    direct.interact("hi", 750.0)
    assert tiled.tiles.evicted_rebuilds == 1
    assert tiled.tiles.builds == 2
    assert_sessions_agree(tiled, direct, "post-eviction")


def test_tile_bytes_are_accounted_in_cache():
    session = make_session(tiles="force")
    before = session.cache.total_bytes
    session.interact("lo", 250.0)
    entry = session.tiles._states["view"]
    assert entry.cube is not None
    assert session.cache.total_bytes >= before + entry.cube.nbytes()


# -- streaming appends -------------------------------------------------------


def min_max_spec():
    """The brush spec with ``min`` and ``max`` of ``dep_delay`` added to
    the aggregate and read by the mark."""
    spec = brush_spec()
    spec["data"][1]["transform"][1] = {
        "type": "aggregate", "groupby": ["carrier"],
        "ops": ["count", "mean", "min", "max"],
        "fields": [None, "dep_delay", "dep_delay", "dep_delay"],
        "as": ["cnt", "avg", "lo_delay", "hi_delay"]}
    spec["marks"][0]["encode"]["update"].update({
        "x2": {"field": "lo_delay"}, "y2": {"field": "hi_delay"}})
    return spec


def unseen_carrier_rows():
    """An append whose carriers the cube has not seen: "EE" and NULL."""
    rows = make_rows(40, seed=7)
    for row in rows[::3]:
        row["carrier"] = "EE"
    for row in rows[1::3]:
        row["carrier"] = None
    return rows


@pytest.mark.parametrize("spec,extra,new_groups", [
    (None, make_rows(40, seed=7), 0),
    (None, unseen_carrier_rows(), 2),
    (min_max_spec(), make_rows(40, seed=7), 0),
], ids=["seen-groups", "unseen-carrier", "min-max"])
def test_append_patches_tile_incrementally(spec, extra, new_groups):
    """The acceptance property: an append-only insert patches the cube
    (no rebuild), and the patched cube answers exactly like a direct
    requery AND like a cube rebuilt from scratch on the merged data."""
    rows = make_rows()
    tiled = make_session(rows=rows, spec=spec, tiles="force")
    direct = make_session(rows=rows, spec=spec, tiles=False)
    tiled.interact("lo", 250.0)
    direct.interact("lo", 250.0)
    assert tiled.tiles.builds == 1
    groups = tiled.tiles._states["view"].cube.n_groups

    tiled.append_data("t", extra)
    direct.append_data("t", extra)
    assert tiled.tiles.deltas == 1
    assert tiled.tiles.builds == 1          # patched, not rebuilt
    assert tiled.tiles.invalidations == 0
    assert tiled.tiles._states["view"].cube.n_groups == groups + new_groups
    assert_sessions_agree(tiled, direct, "post-append")

    tiled.interact("hi", 750.0)
    direct.interact("hi", 750.0)
    assert tiled.tiles.hits >= 2
    assert_sessions_agree(tiled, direct, "post-append slice")

    # equivalence against a cold session that builds from the merged data
    fresh = make_session(rows=rows + extra, spec=spec, tiles="force")
    fresh.interact("lo", 250.0)
    fresh.interact("hi", 750.0)
    assert fresh.tiles.builds == 1
    assert rows_equivalent(canon(tiled), canon(fresh))


def test_out_of_grid_append_invalidates_then_rebuilds():
    tiled = make_session(tiles="force")
    direct = make_session(tiles=False)
    tiled.interact("lo", 250.0)
    direct.interact("lo", 250.0)
    # 2000 lies beyond the measured extent's widened top edge: the delta
    # path must refuse and drop the cube
    extra = [{"distance": 2000.0, "dep_delay": 5.0, "carrier": "AA"}]
    tiled.append_data("t", extra)
    direct.append_data("t", extra)
    assert tiled.tiles.deltas == 0
    assert tiled.tiles.invalidations == 1
    assert_sessions_agree(tiled, direct, "post-invalidation")
    tiled.interact("hi", 750.0)
    direct.interact("hi", 750.0)
    assert tiled.tiles.builds == 2          # rebuilt over the new extent
    assert_sessions_agree(tiled, direct, "post-rebuild")


# -- prewarm / observability -------------------------------------------------


def test_prewarm_builds_before_first_brush():
    session = make_session(tiles="force")
    assert session.prewarm_tiles() == 1
    assert session.tiles.builds == 1
    session.interact("lo", 250.0)
    assert session.tiles.builds == 1        # served from the prewarmed cube
    assert session.tiles.hits == 1


def test_telemetry_counters_and_stats():
    session = VegaPlus(brush_spec(), data={"t": make_rows()},
                       latency_ms=0.0, bandwidth_mbps=100000.0,
                       tiles="force", trace=True)
    session.startup()
    session.interact("lo", 250.0)
    session.interact("hi", 750.0)
    metrics = session.metrics  # the session's labeled registry view
    assert metrics.counter("tiles.build").value == 1
    assert metrics.counter("tiles.hit").value >= 1
    assert metrics.counter("tiles.bytes_built").value > 0
    assert metrics.gauge("cache.bytes").value \
        >= metrics.counter("tiles.bytes_built").value
    assert metrics.histogram("tiles.slice_seconds").count >= 1
    stats = session.stats()["tiles"]
    assert stats["builds"] == 1
    assert stats["live_cubes"] == 1
    assert session.stats()["cache"]["bytes"] > 0


@pytest.mark.parametrize("kind", ["histogram", "brush"])
def test_every_event_is_counted_once(kind, tmp_path):
    """One book of numbers: what the registry holds for a traced session
    is what the components counted, and the trace exports carry spans
    and the stats snapshot only."""
    registry = MetricsRegistry()
    if kind == "histogram":
        # two cache entries: the maxbins walk below evicts
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(8000)}, cache_entries=2,
            trace=True, metrics=registry)
        events = [("maxbins", value) for value in (10, 30, 50, 70) * 3]
        table, extra = "flights", generate_flights(40, seed=5).to_rows()
    else:
        session = VegaPlus(
            brush_spec(), data={"t": make_rows()}, latency_ms=0.0,
            bandwidth_mbps=100000.0, tiles="force", trace=True,
            metrics=registry)
        events = [("lo", 25.0 * step) for step in range(1, 7)] \
            + [("hi", 1000.0 - 25.0 * step) for step in range(1, 7)]
        table, extra = "t", make_rows(20, seed=9)
    session.startup()
    for signal, value in events[:8]:
        session.interact(signal, value)
    session.append_data(table, extra)
    for signal, value in events[8:]:
        session.interact(signal, value)

    stats = session.stats()
    view = session.metrics
    counted = {
        "cache.hits": stats["cache"]["hits"],
        "cache.misses": stats["cache"]["misses"],
        "cache.evictions": stats["cache"]["evictions"],
        "net.round_trips": stats["network"]["round_trips"],
        "net.bytes_received": stats["network"]["bytes_received"],
        "tiles.hit": stats["tiles"]["hits"],
        "tiles.build": stats["tiles"]["builds"],
        "tiles.bytes_built": stats["tiles"]["bytes_built"],
    }
    for name, expected in counted.items():
        assert view.counter(name).value == expected, name
    assert view.gauge("cache.bytes").value == stats["cache"]["bytes"]
    if kind == "histogram":
        assert stats["cache"]["evictions"] > 0
        assert stats["network"]["round_trips"] > 0
    else:
        assert stats["tiles"]["hits"] > 0 and stats["tiles"]["builds"] > 0

    document = session.export_trace(str(tmp_path / "t.json"), format="json")
    assert "counters" not in document and "histograms" not in document
    assert document["stats"] == stats
    chrome = session.export_trace(str(tmp_path / "c.json"))
    assert not [event for event in chrome["traceEvents"]
                if event["ph"] == "C"]
    assert chrome["otherData"]["stats"] == stats
    on_disk = json.loads((tmp_path / "c.json").read_text())
    assert on_disk["otherData"]["stats"]["cache"]["hits"] \
        == stats["cache"]["hits"]


def test_explain_shows_tile_decisions():
    session = make_session(tiles="force")
    session.interact("lo", 250.0)
    text = session.explain()
    assert "tile[view]: tiled" in text
    assert "slices" in text


def test_disabled_sessions_have_no_manager():
    session = make_session(tiles=False)
    assert session.tiles is None
    assert session.stats()["tiles"] is None


# -- calibration -------------------------------------------------------------


class _FakeReport:
    def __init__(self, ratios):
        self.ratios = ratios

    def median_ratio(self, kind):
        return self.ratios.get(kind)


def test_refit_scales_tile_slice_cost():
    base = CostParameters()
    report = _FakeReport({"tile-slice": 3.0})
    fitted = refit_from_report(report, base_params=base)
    assert fitted.tile_cell_cost == pytest.approx(base.tile_cell_cost * 3)
    assert fitted.tile_slice_overhead == base.tile_slice_overhead
    assert fitted.tile_build_factor == base.tile_build_factor
    assert fitted.tile_predicted_events == base.tile_predicted_events


# -- fuzz axis ---------------------------------------------------------------


def test_tiles_fuzz_campaign_smoke():
    from repro.fuzz.tiles import run_tiles_campaign

    result = run_tiles_campaign(seed=11, iterations=12, max_rows=40)
    assert result.ok, result.describe()
    assert result.tile_hits > 0
