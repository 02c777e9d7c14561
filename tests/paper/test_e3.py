"""E3 — interaction latency with and without prefetching (§2.2 step 4).

"Interactions impose an even stricter latency requirement" — VegaPlus
prefetches predicted interactions during idle time.  Scripted traces
over the flights histogram, each replayed with prefetch off and on:

* drop-down cycling (binField) — each new field needs new server SQL,
  so prediction + prefetch turn round trips into cache hits;
* a slider drag (maxbins) — every step is a new value, so a prefetch
  can only help when the predictor guesses the next one.
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.interact import option_cycle, replay, slider_drag
from repro.metrics import latency_summary
from repro.spec import flights_histogram_spec

ROWS = 80_000
FIELDS = ["distance", "air_time", "arr_delay", "dep_delay"]


def test_e3_prefetch_turns_round_trips_into_hits(print_table):
    table = generate_flights(ROWS)

    def fresh_session():
        session = VegaPlus(flights_histogram_spec(),
                           data={"flights": table}, latency_ms=50)
        session.startup()
        return session

    traces = {
        "dropdown x2": option_cycle("binField", FIELDS, repeats=2),
        "slider drag": slider_drag("maxbins", 20, 90, step=10),
    }
    reports = {}
    rows = []
    for name, trace in traces.items():
        for prefetch in (False, True):
            report = replay(fresh_session(), trace, prefetch=prefetch)
            reports[name, prefetch] = report
            summary = latency_summary(report.latencies())
            rows.append([
                name, "on" if prefetch else "off", report.interactions,
                "{:.4f}".format(summary["mean_s"]),
                "{:.4f}".format(summary["p50_s"]),
                "{:.4f}".format(summary["p95_s"]),
                "{:.4f}".format(summary["p99_s"]),
                "{:.0%}".format(report.cache_hit_rate),
                report.prefetches if prefetch else "-",
            ])
    print_table(
        "E3: interaction latency, prefetch off vs on",
        ["trace", "prefetch", "steps", "mean(s)", "p50(s)", "p95(s)",
         "p99(s)", "hit-rate", "prefetches"],
        rows,
    )

    def network_seconds(report):
        return sum(result.breakdown.network for result in report.results)

    cold = reports["dropdown x2", False]
    warm = reports["dropdown x2", True]
    assert warm.prefetches > 0
    assert warm.cache_hit_rate > cold.cache_hit_rate
    # A prefetch runs in the think gap, so the hits it bought take their
    # round trips off the interactions.
    assert network_seconds(warm) < network_seconds(cold)
