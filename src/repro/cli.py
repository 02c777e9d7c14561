"""Command-line interface: the demo experience in a terminal.

Subcommands mirror what a SIGMOD attendee could do in the demo booth::

    python -m repro demo --scenario flights --rows 100000
    python -m repro compare --rows 100000 --latency 20
    python -m repro explain --scenario census
    python -m repro sweep --rows 50000
    python -m repro calibrate
"""

import argparse
import sys

from repro.core import VegaPlus
from repro.datagen import generate_census, generate_flights
from repro.interact import option_cycle, replay, slider_drag
from repro.net import NetworkChannel
from repro.perf import compare_plans, plan_graph
from repro.spec import (
    census_stacked_area_spec,
    flights_histogram_spec,
    flights_scatter_spec,
)

_SCENARIOS = ("flights", "census", "scatter")


def _build_session(args):
    if args.scenario == "census":
        replicate = max(args.rows // 480, 1)
        data = {"census": generate_census(replicate=replicate)}
        spec = census_stacked_area_spec()
    elif args.scenario == "scatter":
        data = {"flights": generate_flights(args.rows)}
        spec = flights_scatter_spec()
    else:
        data = {"flights": generate_flights(args.rows)}
        spec = flights_histogram_spec()
    session = VegaPlus(
        spec, data=data,
        channel=NetworkChannel(args.latency, args.bandwidth),
        backend=args.backend,
        parallelism=getattr(args, "threads", None),
        trace=bool(getattr(args, "trace", None)),
    )
    # Remember the session so main() can export the trace after the
    # command runs.
    args._session = session
    return session


def _sink(args):
    return {"census": "stacked", "scatter": "points"}.get(
        args.scenario, "binned"
    )


def cmd_demo(args, out):
    session = _build_session(args)
    result = session.startup()
    print(session.plan.describe(), file=out)
    print(file=out)
    print(result.summary(), file=out)
    rows = result.datasets[_sink(args)]
    print("\nfirst rows:", file=out)
    for row in rows[:5]:
        print("  {}".format(row), file=out)

    if args.scenario == "flights":
        print("\nreplaying a bin-slider drag with prefetching...", file=out)
        report = replay(session, slider_drag("maxbins", 20, 60, step=10))
        print("  mean interaction latency {:.4f}s, hit rate {:.0%}".format(
            report.mean_latency, report.cache_hit_rate), file=out)
    elif args.scenario == "scatter":
        print("\nfiltering to carrier AA...", file=out)
        interaction = session.interact("carrierFilter", "AA")
        print("  latency {:.4f}s, {} sampled points".format(
            interaction.total_seconds,
            len(session.results("points"))), file=out)
    else:
        print("\nfiltering to female occupations...", file=out)
        interaction = session.interact("sexFilter", "female")
        print("  latency {:.4f}s, {} stacked rows".format(
            interaction.total_seconds,
            len(session.results("stacked"))), file=out)
    return 0


def cmd_compare(args, out):
    session = _build_session(args)
    session.startup()
    sink = _sink(args)
    max_cut = session.plan.datasets[sink].max_cut
    plans = [session.baseline_plan(), session.plan]
    if max_cut > 1:
        plans.append(
            session.custom_plan({sink: 1}, label="user:cut=1")
        )
    comparison = compare_plans(session, plans)
    print(comparison.format_table(), file=out)
    return 0


def cmd_explain(args, out):
    session = _build_session(args)
    session.startup()
    print(plan_graph(session).to_dot(), file=out)
    print(file=out)
    for entry in session.history[0].queries:
        print("-- {} query ({} rows, {:.4f}s server)".format(
            entry.kind, entry.rows, entry.server_seconds), file=out)
        print(entry.sql, file=out)
        print(file=out)
    if getattr(args, "analyze", False):
        _print_explain_analyze(session, out)
    return 0


def _print_explain_analyze(session, out):
    """EXPLAIN ANALYZE of each server query: per-plan-node rows in/out
    and elapsed time, from the embedded engine."""
    printed = False
    for entry in session.history[0].queries:
        if entry.kind == "prefetch" or entry.cached:
            continue
        try:
            text = session.backend.explain_analyze(entry.sql)
        except Exception as exc:
            print("-- EXPLAIN ANALYZE unavailable: {}".format(exc),
                  file=out)
            return
        print("-- EXPLAIN ANALYZE", file=out)
        print(text, file=out)
        print(file=out)
        printed = True
    if not printed:
        print("-- EXPLAIN ANALYZE: no uncached server queries", file=out)


def cmd_sweep(args, out):
    print("{:>12} {:>6} {:>14} {:>13}".format(
        "latency(ms)", "cut", "vegaplus(s)", "vega(s)"), file=out)
    for latency in (1, 20, 100, 500, 2000):
        args.latency = latency
        session = _build_session(args)
        hybrid = session.startup()
        session.cache.clear()
        baseline = session.run_client_only()
        print("{:>12} {:>6} {:>13.4f}s {:>12.4f}s".format(
            latency, session.plan.datasets[_sink(args)].cut,
            hybrid.total_seconds, baseline.total_seconds), file=out)
    return 0


def cmd_calibrate(args, out):
    from repro.planner import calibrate

    params = calibrate()
    print("measured cost-model constants:", file=out)
    print("  client_row_cost       {:.3e} s/row/op".format(
        params.client_row_cost), file=out)
    print("  server_row_cost       {:.3e} s/row/op".format(
        params.server_row_cost), file=out)
    print("  server_query_overhead {:.3e} s/query".format(
        params.server_query_overhead), file=out)
    print("  client/server ratio   {:.1f}x".format(
        params.client_row_cost / params.server_row_cost), file=out)
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "compare": cmd_compare,
    "explain": cmd_explain,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VegaPlus reproduction: optimize Vega specs against a "
                    "DBMS backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--scenario", choices=_SCENARIOS,
                         default="flights")
        cmd.add_argument("--rows", type=int, default=100_000,
                         help="dataset size (default 100000)")
        cmd.add_argument("--latency", type=float, default=20.0,
                         help="one-way link latency in ms")
        cmd.add_argument("--bandwidth", type=float, default=100.0,
                         help="link bandwidth in Mbps")
        cmd.add_argument("--backend", choices=("embedded", "sqlite"),
                         default="embedded")
        cmd.add_argument("--threads", type=int, default=None, metavar="N",
                         help="engine worker threads for the embedded "
                              "backend (default 1: morsel tasks run "
                              "inline on the calling thread)")
        cmd.add_argument("--trace", metavar="PATH", default=None,
                         help="record telemetry and write the trace here")
        cmd.add_argument("--trace-format", choices=("chrome", "json"),
                         default="chrome",
                         help="trace file format (default: chrome, for "
                              "chrome://tracing / Perfetto)")
        if name == "explain":
            cmd.add_argument("--analyze", action="store_true",
                             help="append EXPLAIN ANALYZE (per-node rows "
                                  "and times) for each server query")
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    status = _COMMANDS[args.command](args, out)
    session = getattr(args, "_session", None)
    if args.trace and session is not None and session.tracer.enabled:
        session.export_trace(args.trace, format=args.trace_format)
        print("trace written to {}".format(args.trace), file=out)
    return status
