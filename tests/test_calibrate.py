"""Tests for cost-model calibration."""

from repro.backends import SQLiteBackend
from repro.planner import calibrate
from repro.planner.calibrate import (
    measure_client_row_cost,
    measure_server_costs,
    refit_from_report,
)
from repro.planner.costmodel import CostParameters


class TestCalibration:
    def test_client_cost_in_plausible_range(self):
        cost = measure_client_row_cost(num_rows=5_000, repeats=2)
        # A Python dict pipeline runs between 100ns and 100us per row/op
        # on any plausible machine.
        assert 1e-7 < cost < 1e-4

    def test_server_cost_in_plausible_range(self):
        cost, overhead = measure_server_costs(num_rows=20_000, repeats=2)
        assert 1e-9 < cost < 1e-5
        assert 0 < overhead < 0.5

    def test_client_slower_than_server(self):
        client = measure_client_row_cost(num_rows=5_000, repeats=2)
        server, _ = measure_server_costs(num_rows=20_000, repeats=2)
        assert client > server * 3

    def test_calibrate_returns_parameters(self):
        params = calibrate(client_rows=5_000, server_rows=20_000)
        assert params.client_row_cost > params.server_row_cost
        assert params.server_query_overhead > 0
        assert params.render_row_cost > 0

    def test_calibrate_against_sqlite(self):
        params = calibrate(
            backend=SQLiteBackend(), client_rows=5_000, server_rows=20_000
        )
        assert params.server_row_cost > 0

    def test_calibrated_planner_still_chooses_sensibly(self):
        from repro.core import VegaPlus
        from repro.datagen import generate_flights
        from repro.spec import flights_histogram_spec

        params = calibrate(client_rows=5_000, server_rows=20_000)
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(100_000)},
            cost_params=params,
        )
        plan = session.optimize()
        assert plan.datasets["binned"].cut == 3


class TestParallelEfficiencyRefit:
    class _NoAudit:
        def median_ratio(self, kind):
            return None

    def refit(self, speedup, workers=4):
        base = CostParameters(server_workers=workers)
        return refit_from_report(
            self._NoAudit(), base, parallel_speedup=speedup
        ).parallel_efficiency

    def test_superlinear_speedup_clamps_to_one(self):
        # the pre-merge BENCH_parallel.json's 7.05x at 4 workers (against
        # the old per-group Python loop) inverts to 2.01
        assert self.refit(7.05) == 1.0
        assert self.refit(4.0) == 1.0

    def test_sublinear_speedup_is_kept(self):
        assert self.refit(2.5) == 0.5
        assert self.refit(0.5) == 0.05
