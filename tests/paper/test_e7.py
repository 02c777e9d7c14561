"""E7 — backend portability (the demo's DBMS drop-down).

The paper puts PostgreSQL, OmniSciDB and DuckDB behind one middleware;
this reproduction shows the same pluggability with its two backends (the
embedded columnar engine and stdlib sqlite).  Both run the same plan and
the same generated SQL and must return identical histograms; their
speed differs, which is why the demo lets users pick a backend.
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.spec import flights_histogram_spec

SIZES = [10_000, 50_000]


def test_e7_backends_return_identical_results(print_table):
    rows = []
    for size in SIZES:
        table = generate_flights(size)
        histograms = {}
        for backend in ("embedded", "sqlite"):
            session = VegaPlus(flights_histogram_spec(),
                               data={"flights": table},
                               backend=backend, latency_ms=20)
            result = session.startup()
            histograms[backend] = (
                {name: spec.cut for name, spec in
                 session.plan.datasets.items()},
                sorted(((row["bin0"] is None, row["bin0"]), row["count"])
                       for row in result.datasets["binned"]),
            )
            rows.append([size, backend,
                         "{:.4f}".format(result.breakdown.server),
                         "{:.4f}".format(result.total_seconds)])
        assert histograms["embedded"] == histograms["sqlite"], size
    print_table(
        "E7: backend comparison (identical plans and results)",
        ["rows", "backend", "server(s)", "total(s)"], rows)
