"""E9 (ablation) — cache coordination under interaction load.

The middleware "prefetches data in anticipation of the following
interactions and coordinates the cache" (§2).  The client cache size is
swept during a long exploration session (drop-down cycling over all four
bin fields, three laps, no prefetch): once the cache holds every field
variant's statements, interactions are answered locally; below that,
entries thrash.
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.interact import option_cycle, replay
from repro.spec import flights_histogram_spec

ROWS = 60_000
FIELDS = ["dep_delay", "arr_delay", "distance", "air_time"]
CACHE_ENTRIES = [1, 2, 4, 8, 32]


def test_e9_cache_size_knee(print_table):
    table = generate_flights(ROWS)
    trace = option_cycle("binField", FIELDS, repeats=3)

    reports = {}
    for entries in CACHE_ENTRIES:
        session = VegaPlus(flights_histogram_spec(), data={"flights": table},
                           latency_ms=50, cache_entries=entries)
        session.startup()
        reports[entries] = replay(session, trace, prefetch=False)
    print_table(
        "E9: cache-size sweep (binField cycling, 3 laps)",
        ["cache entries", "steps", "hit-rate", "mean latency(s)"],
        [[entries, report.interactions,
          "{:.0%}".format(report.cache_hit_rate),
          "{:.4f}".format(report.mean_latency)]
         for entries, report in reports.items()],
    )

    hit_rates = [reports[entries].cache_hit_rate
                 for entries in CACHE_ENTRIES]
    assert hit_rates == sorted(hit_rates)
    assert hit_rates[0] < hit_rates[-1]
    # Every hit is a round trip saved.
    networks = [sum(result.breakdown.network for result in report.results)
                for report in reports.values()]
    assert networks == sorted(networks, reverse=True)
    assert networks[-1] < networks[0]
