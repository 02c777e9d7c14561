"""E2 — the performance view's stacked plan comparison (Figure 3).

One bar per plan — Vega alone, the optimizer's recommendation, and the
user's custom partitioning with bin moved to the client — each split
into server / client / network time.

Paper shape: the optimizer's plan wins; the user's bin-on-client plan
does badly because "data will be requested from the DBMS so that they
can be allocated into buckets on the client, which will make the
execution much slower because of more data transferring and inefficient
SQL queries" (§3.1).
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.perf import compare_plans
from repro.spec import flights_histogram_spec

ROWS = 120_000


def test_e2_optimized_plan_wins(print_table):
    session = VegaPlus(
        flights_histogram_spec(),
        data={"flights": generate_flights(ROWS)},
        latency_ms=20,
    )
    session.startup()
    comparison = compare_plans(session, [
        session.baseline_plan(),
        session.plan,
        session.custom_plan({"binned": 1}, label="user:bin-on-client"),
    ])
    bars = {row["plan"]: row for row in comparison.as_dicts()}

    print_table(
        "E2: Figure 3 — stacked time per plan (measured)",
        ["plan", "server(s)", "client(s)", "network(s)", "total(s)"],
        [[plan] + ["{:.4f}".format(row[key]) for key in
                   ("server_s", "client_s", "network_s", "total_s")]
         for plan, row in bars.items()],
    )

    # Both losing plans ship the table; the optimized one ships bins.
    optimized = bars["optimized"]["network_s"]
    assert optimized < bars["vega-client"]["network_s"] / 10
    assert optimized < bars["user:bin-on-client"]["network_s"] / 10
