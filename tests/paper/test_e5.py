"""E5 — network-latency sensitivity (§3.1's latency-simulation knob).

"The user can compare the performance of ... plans ... by simulating
different network latencies."  One-way latency is swept at 100 Mbps,
recording the optimizer's chosen cut and the start-up latency of the
chosen plan and of client-only Vega.

Paper shape: as the link degrades, the relative advantage of server-side
execution shrinks, and for small datasets the optimizer keeps the work
on the client.
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.net import NetworkChannel
from repro.spec import flights_histogram_spec

BIG_ROWS = 100_000
SMALL_ROWS = 300
LATENCIES_MS = [1, 20, 100, 500, 2000]


def test_e5_latency_moves_the_advantage_and_the_cut(print_table):
    big = generate_flights(BIG_ROWS)
    small = generate_flights(SMALL_ROWS)

    rows = []
    network_ratios = []
    big_cuts = set()
    for latency in LATENCIES_MS:
        session = VegaPlus(flights_histogram_spec(), data={"flights": big},
                           channel=NetworkChannel(latency, 100))
        hybrid = session.startup()
        session.cache.clear()
        baseline = session.run_client_only()
        big_cuts.add(session.plan.datasets["binned"].cut)
        network_ratios.append(
            baseline.breakdown.network / hybrid.breakdown.network)
        rows.append([
            latency, session.plan.datasets["binned"].cut,
            "{:.4f}".format(hybrid.total_seconds),
            "{:.4f}".format(baseline.total_seconds),
            "{:.2f}x".format(baseline.total_seconds / hybrid.total_seconds),
        ])
    print_table(
        "E5: latency sweep, {}-row dataset (measured)".format(BIG_ROWS),
        ["latency(ms)", "cut", "vegaplus(s)", "vega(s)", "speedup"], rows)

    rows = []
    small_cuts = []
    for latency in LATENCIES_MS:
        session = VegaPlus(flights_histogram_spec(),
                           data={"flights": small},
                           channel=NetworkChannel(latency, 100))
        plan = session.optimize()
        small_cuts.append(plan.datasets["binned"].cut)
        rows.append([latency, small_cuts[-1],
                     "{:.4f}".format(plan.estimate.total)])
    print_table(
        "E5b: latency sweep, tiny dataset — the cut flips",
        ["latency(ms)", "chosen cut", "est. total(s)"], rows)

    # The big table stays on the server at every latency, and its
    # advantage in charged network time shrinks as latency grows.
    assert big_cuts == {3}
    assert network_ratios == sorted(network_ratios, reverse=True)
    assert network_ratios[-1] < network_ratios[0]
    # The tiny table goes to the client.
    assert 0 in small_cuts, "the optimizer never chose the client"
