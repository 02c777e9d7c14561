"""E1 — the scaling crossover (paper §2.2 step 2, in-text experiment).

Paper claim: "for datasets with 4M rows Vega is faster than VegaPlus when
it's not optimized, for 4M-10M performance is comparable and for 10M+
VegaPlus is much faster."

We measure startup latency of client-only Vega vs optimizer-chosen
VegaPlus across row counts.  The top of the *shape* must hold: VegaPlus
wins by a growing factor at scale.  The bottom does not reproduce the
paper (EXPERIMENTS.md E1): either way the data crosses the link in one
round trip — the extent and the aggregate that depends on it travel as
one request — so Vega has no round trip to save at small sizes, and what
is asserted there is that measured mechanism: one request on each side
and a gap smaller than one round trip's latency.
Absolute crossover row counts differ from the paper because our client is
row-wise Python and our server a vectorized in-process engine — see
EXPERIMENTS.md for the calibration mapping to the paper's 4M/10M browser
figures.
"""

from conftest import print_header, print_rows, scaled

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.spec import flights_histogram_spec

SIZES = [300, 1_000, 5_000, 20_000, 60_000, 150_000, 300_000]


LATENCY_MS = 20


def run_triplet(num_rows):
    """(vega client-only, vegaplus forced all-server, vegaplus optimized)
    start-up seconds, then the round trips the first two charged."""
    table = generate_flights(num_rows)
    session = VegaPlus(
        flights_histogram_spec(), data={"flights": table},
        latency_ms=LATENCY_MS,
    )
    stats = session.channel.stats
    optimized = session.startup()
    session.cache.clear()
    before = stats.round_trips
    forced = session.run_with_plan(
        session.custom_plan({"binned": 3}, label="vegaplus-unoptimized")
    )
    forced_trips = stats.round_trips - before
    session.cache.clear()
    baseline = session.run_client_only()
    baseline_trips = stats.round_trips - before - forced_trips
    return (baseline.total_seconds, forced.total_seconds,
            optimized.total_seconds, (baseline_trips, forced_trips))


def test_e1_scaling_crossover(benchmark):
    rows = []
    results = {}
    for size in SIZES:
        n = scaled(size)
        vega_s, forced_s, optimized_s, trips = run_triplet(n)
        results[n] = (vega_s, forced_s, optimized_s, trips)
        if vega_s < forced_s * 0.9:
            winner = "vega"
        elif forced_s < vega_s * 0.9:
            winner = "vegaplus"
        else:
            winner = "comparable"
        rows.append([
            n, "{:.4f}".format(vega_s), "{:.4f}".format(forced_s),
            "{:.4f}".format(optimized_s),
            "{:.2f}x".format(vega_s / max(forced_s, 1e-9)), winner,
        ])

    print_header(
        "E1: startup latency — Vega vs VegaPlus (all-server) vs optimized"
    )
    print_rows(
        ["rows", "vega(s)", "vp-server(s)", "vp-opt(s)", "speedup", "winner"],
        rows,
    )
    print("\npaper claim (§2.2): small data -> Vega beats unoptimized "
          "VegaPlus (NOT reproduced here: one round trip either way, see "
          "EXPERIMENTS.md E1); crossover zone; large data -> VegaPlus much "
          "faster (paper testbed: 4M / 10M rows).  The optimized column "
          "shows the planner tracking whichever side wins.")

    smallest = min(results)
    largest = max(results)
    # Shape checks.  Bottom end, the measured mechanism: each side is one
    # request, so less than one round trip's latency separates them (it
    # was a whole extra round trip while the extent travelled alone).
    vega_s, forced_s, _, trips = results[smallest]
    assert trips == (1, 1)
    assert abs(vega_s - forced_s) < 2 * LATENCY_MS / 1000.0
    # Top end: the server wins, by more than at the bottom, and the
    # optimizer never does much worse than the best of the two.
    assert results[largest][1] < results[largest][0]
    assert results[largest][2] < results[largest][0]
    assert results[largest][0] / results[largest][1] > vega_s / forced_s

    # The benchmark statistic: one representative mid-size startup.
    table = generate_flights(scaled(60_000))

    def startup():
        session = VegaPlus(
            flights_histogram_spec(), data={"flights": table},
            latency_ms=LATENCY_MS,
        )
        return session.startup()

    benchmark.pedantic(startup, rounds=3, iterations=1)
