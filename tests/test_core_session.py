"""Session-level tests: startup, baselines, interactions, caching,
prefetching — the full middleware loop."""

import pytest

from repro.core import MarkovPredictor, ResultCache, SessionError, VegaPlus
from repro.core.cache import CacheEntry
from repro.datagen import generate_census, generate_flights
from repro.spec import census_stacked_area_spec, flights_histogram_spec


@pytest.fixture(scope="module")
def flights_table():
    return generate_flights(10000)


@pytest.fixture
def session(flights_table):
    return VegaPlus(
        flights_histogram_spec(),
        data={"flights": flights_table},
        latency_ms=20,
    )


class TestStartup:
    def test_startup_produces_rows(self, session):
        result = session.startup()
        rows = result.datasets["binned"]
        assert rows
        assert all({"bin0", "bin1", "count"} <= set(row) for row in rows)

    def test_startup_counts_match_data(self, session, flights_table):
        # Rows with NULL dep_delay land in a NULL bin group (both sides
        # keep it), so the histogram counts cover every input row.
        result = session.startup()
        total = sum(row["count"] for row in result.datasets["binned"])
        assert total == flights_table.num_rows

    def test_optimizer_prefers_server_at_scale(self, session):
        session.startup()
        assert session.plan.datasets["binned"].cut == 3

    def test_breakdown_populated(self, session):
        result = session.startup()
        assert result.breakdown.network > 0
        assert result.breakdown.server > 0

    def test_query_log(self, session):
        result = session.startup()
        kinds = [entry.kind for entry in result.queries]
        assert "value" in kinds  # the extent scalar query
        assert "rows" in kinds

    def test_hybrid_equals_client_only(self, session):
        hybrid = session.startup()
        baseline = session.run_client_only()

        def canon(rows):
            return sorted(
                ((row["bin0"] is None, row["bin0"]), row["count"])
                for row in rows
            )

        assert canon(hybrid.datasets["binned"]) == \
            canon(baseline.datasets["binned"])

    def test_client_only_ships_raw_data(self, session):
        baseline = session.run_client_only()
        raw_query = baseline.queries[-1]
        assert raw_query.rows == 10000


class TestCustomPlans:
    def test_user_partitioning_measurable(self, session):
        session.startup()
        custom = session.custom_plan({"binned": 1}, label="bin-on-client")
        result = session.run_with_plan(custom)
        # bin on the client means the full table crosses the network.
        assert result.queries[-1].rows == 10000
        assert result.breakdown.client > 0

    def test_custom_plan_results_identical(self, session):
        expected = session.startup().datasets["binned"]
        custom = session.custom_plan({"binned": 2})
        result = session.run_with_plan(custom)

        def canon(rows):
            return sorted(
                ((row["bin0"] is None, row["bin0"]), row["count"])
                for row in rows
            )

        assert canon(result.datasets["binned"]) == canon(expected)


class TestInteractions:
    def test_interact_requires_startup(self, session):
        with pytest.raises(SessionError):
            session.interact("maxbins", 30)

    def test_unknown_signal(self, session):
        session.startup()
        with pytest.raises(SessionError):
            session.interact("nope", 1)

    def test_maxbins_changes_bins(self, session):
        session.startup()
        before = len(session.results("binned"))
        session.interact("maxbins", 100)
        after = len(session.results("binned"))
        assert after > before

    def test_binfield_switches_field(self, session):
        session.startup()
        session.interact("binField", "distance")
        rows = session.results("binned")
        assert rows
        assert min(row["bin0"] for row in rows) >= 0  # distances positive

    def test_repeat_interaction_hits_cache(self, session):
        session.startup()
        session.interact("binField", "distance")
        result = session.interact("binField", "dep_delay")
        # Returning to the startup field: queries identical to startup's.
        assert result.cache_hits == len(result.queries)
        assert result.breakdown.network == 0

    def test_client_side_interaction_no_server(self):
        table = generate_census()
        session = VegaPlus(
            census_stacked_area_spec(),
            data={"census": table},
        )
        # Force a plan with the sex filter on the client.
        session.optimize()
        custom = session.custom_plan({"stacked": 0}, label="all-client")
        session.startup(plan=custom)
        queries_before = len(session.history[-1].queries)
        result = session.interact("sexFilter", "female")
        assert result.queries == []  # pure client partial execution
        assert result.breakdown.server == 0
        assert result.breakdown.client > 0
        # The aggregate drops the sex column, but female-only totals are
        # strictly smaller than the all-sexes totals from startup.
        assert session.results("stacked")


class TestHistory:
    def test_history_is_bounded_and_runs_stay_exact(self):
        from repro.core.session import HISTORY_RESULTS

        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(500)},
        )
        session.startup()
        events = 300
        for index in range(events):
            result = session.interact("maxbins", 10 + index % 7)
        assert len(session.history) == HISTORY_RESULTS < events
        assert session.last_result() is result
        assert session.stats()["runs"] == events + 1


class TestPrefetch:
    def test_prefetch_populates_cache(self, session):
        session.startup()
        fetched = session.prefetch_interaction("binField", "distance")
        assert fetched is True
        result = session.interact("binField", "distance")
        assert result.cache_hits == len(result.queries) > 0
        assert result.breakdown.network == 0

    def test_prefetch_does_not_change_signals(self, session):
        session.startup()
        session.prefetch_interaction("binField", "distance")
        assert session.signals["binField"] == "dep_delay"

    def test_idle_prefetches_predicted_options(self, session):
        session.startup()
        session.interact("binField", "distance")
        session.interact("binField", "air_time")
        done = session.idle()
        # The predictor has seen two binField changes; it should prefetch
        # other binField options.
        assert any(action.signal == "binField" for action in done)

    def test_client_only_interactions_need_no_prefetch(self, session):
        session.startup()
        fetched = session.prefetch_interaction("maxbins", 21)
        # maxbins cut is at the server; variant may or may not produce new
        # SQL depending on nice-step quantization — both are acceptable,
        # but the call must not raise and must not change state.
        assert session.signals["maxbins"] == 20
        assert isinstance(fetched, bool)


class TestCache:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", CacheEntry(rows=[], wire_bytes=1))
        cache.put("b", CacheEntry(rows=[], wire_bytes=1))
        cache.put("c", CacheEntry(rows=[], wire_bytes=1))
        assert cache.get("a") is None
        assert cache.get("c") is not None

    def test_recency_updated_on_get(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", CacheEntry(rows=[], wire_bytes=1))
        cache.put("b", CacheEntry(rows=[], wire_bytes=1))
        cache.get("a")
        cache.put("c", CacheEntry(rows=[], wire_bytes=1))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_byte_budget(self):
        cache = ResultCache(max_entries=10, max_bytes=100)
        cache.put("a", CacheEntry(rows=[], wire_bytes=80))
        cache.put("b", CacheEntry(rows=[], wire_bytes=80))
        assert len(cache) == 1

    def test_hit_miss_counters(self):
        cache = ResultCache()
        cache.get("missing")
        cache.put("x", CacheEntry(rows=[], wire_bytes=1))
        cache.get("x")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1


class TestPredictor:
    def test_slider_direction_learned(self):
        predictor = MarkovPredictor()
        for value in (10, 20, 30, 40):
            predictor.observe("s", value)
        states = predictor.predict_states()
        assert states[0][0] == ("s", "+")

    def test_alternation_learned(self):
        predictor = MarkovPredictor()
        for _ in range(5):
            predictor.observe("a", 1)
            predictor.observe("b", "x")
        states = dict(predictor.predict_states())
        # After observing b, the model should strongly predict a next.
        top_signal = max(states.items(), key=lambda kv: kv[1])[0][0]
        assert top_signal == "a"

    def test_predict_actions_range(self):
        from repro.spec.model import SignalSpec

        predictor = MarkovPredictor()
        for value in (10, 11, 12):
            predictor.observe("bins", value)
        specs = {
            "bins": SignalSpec(
                name="bins", value=12,
                bind={"input": "range", "min": 0, "max": 100, "step": 1},
            )
        }
        actions = predictor.predict_actions(specs)
        assert actions[0].signal == "bins"
        assert actions[0].value == 13

    def test_predict_actions_select(self):
        from repro.spec.model import SignalSpec

        predictor = MarkovPredictor()
        predictor.observe("field", "a")
        predictor.observe("field", "b")
        specs = {
            "field": SignalSpec(
                name="field", value="b",
                bind={"input": "select", "options": ["a", "b", "c"]},
            )
        }
        actions = predictor.predict_actions(specs)
        values = {action.value for action in actions}
        assert values <= {"a", "c"}
        assert values

    def test_no_predictions_before_observation(self):
        predictor = MarkovPredictor()
        assert predictor.predict_states() == []


class TestNetworkSensitivity:
    def test_slow_network_pushes_client(self, flights_table):
        small = generate_flights(200)
        fast = VegaPlus(
            flights_histogram_spec(), data={"flights": small},
            latency_ms=1, bandwidth_mbps=1000,
        )
        slow = VegaPlus(
            flights_histogram_spec(), data={"flights": small},
            latency_ms=2000, bandwidth_mbps=1000,
        )
        fast_cut = fast.optimize().datasets["binned"].cut
        slow_cut = slow.optimize().datasets["binned"].cut
        assert slow_cut <= fast_cut
        assert slow_cut == 0  # two round trips can never win at 2s RTT
