"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scenario == "flights"
        assert args.rows == 100_000
        assert args.backend == "embedded"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--scenario", "movies"])


class TestCommands:
    def test_demo_flights(self):
        code, text = run(["demo", "--rows", "5000"])
        assert code == 0
        assert "plan 'optimized'" in text
        assert "mean interaction latency" in text

    def test_demo_census(self):
        code, text = run(["demo", "--scenario", "census", "--rows", "3000"])
        assert code == 0
        assert "stacked rows" in text

    def test_compare(self):
        code, text = run(["compare", "--rows", "5000"])
        assert code == 0
        assert "vega-client" in text
        assert "optimized" in text

    def test_explain_contains_sql_and_dot(self):
        code, text = run(["explain", "--rows", "2000"])
        assert code == 0
        assert "digraph plan" in text
        assert "SELECT" in text

    def test_sweep(self):
        code, text = run(["sweep", "--rows", "2000"])
        assert code == 0
        assert "latency(ms)" in text
        assert "2000" in text

    def test_sqlite_backend_option(self):
        code, text = run(
            ["compare", "--rows", "2000", "--backend", "sqlite"]
        )
        assert code == 0

    def test_demo_scatter(self):
        code, text = run(["demo", "--scenario", "scatter",
                          "--rows", "3000"])
        assert code == 0
        assert "sampled points" in text

    def test_latency_moves_price_not_cut(self):
        __, fast = run(["demo", "--rows", "2000", "--latency", "1"])
        __, slow = run(["demo", "--rows", "2000", "--latency", "5000"])
        # either side of the cut costs one round trip, so latency moves
        # the price and not the cut: pushdown keeps the smaller payload.
        # No plan the CLI can reach depends on --latency any more; the
        # unmerged baseline's still does (tests/test_one_round_trip.py::
        # test_latency_still_moves_the_cut_of_the_unmerged_baseline).
        assert "cut=3/3" in fast and "cut=3/3" in slow
        assert "network 10.00" in slow and "network 10.00" not in fast
