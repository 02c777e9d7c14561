"""E6 — the census stacked-area scenario (§3, second demo workload).

Start-up plus the two demo interactions — the sex radio button and the
regex job-search box — under the optimizer's plan, and start-up under
client-only Vega.  The stack pipeline exercises the window-function SQL
translation (stack -> SUM() OVER (PARTITION BY ...)).
"""

from repro.core import VegaPlus
from repro.datagen import generate_census
from repro.spec import census_stacked_area_spec


def make_session():
    return VegaPlus(census_stacked_area_spec(),
                    data={"census": generate_census(replicate=1)},
                    latency_ms=20)


def test_e6_census_offloads_and_reparameterizes(print_table):
    session = make_session()
    startup = session.startup()
    baseline = make_session().run_client_only()
    steps = [
        ("startup (vegaplus)", startup),
        ("startup (vega client)", baseline),
        ("radio sexFilter=female", session.interact("sexFilter", "female")),
        ("search ^Farm (REGEXP)", session.interact("searchPattern", "^Farm")),
        ("search reset", session.interact("searchPattern", "")),
    ]
    print_table(
        "E6: census stacked area — startup and interactions",
        ["step", "latency(s)", "network(s)", "queries", "cache hits"],
        [[step, "{:.4f}".format(result.total_seconds),
          "{:.4f}".format(result.breakdown.network), len(result.queries),
          result.cache_hits]
         for step, result in steps],
    )
    steps = dict(steps)

    # The whole stack pipeline runs on the server and ships only the
    # stacked series, which is smaller than the table Vega ships.
    stacked = session.plan.datasets["stacked"]
    assert stacked.cut == stacked.max_cut
    assert startup.breakdown.network < baseline.breakdown.network
    # Each interaction re-parameterizes the server SQL: one miss each,
    # and the reset is the start-up's own statement, answered from cache.
    for step in ("radio sexFilter=female", "search ^Farm (REGEXP)"):
        assert (steps[step].cache_hits, steps[step].cache_misses) == (0, 1)
    reset = steps["search reset"]
    assert (reset.cache_hits, reset.cache_misses) == (1, 0)
    assert reset.breakdown.network == 0.0
    jobs = {row["job"] for row in session.results("stacked")}
    assert len(jobs) > 10  # the reset restored the full job set
