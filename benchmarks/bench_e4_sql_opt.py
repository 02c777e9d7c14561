"""E4 — server-query optimization ablation (§2.2 step 3).

Two knobs, measured independently on the flights startup pipeline:

* **node merging** — the merged plan issues one composed query; the
  unmerged baseline runs one round trip per operator, shipping each
  intermediate result to the client and back ("avoid unnecessary network
  round trips for data transfers");
* **SQL statement rewriting** — predicate pushdown, projection pruning,
  and expression simplification on the generated SQL, measured with the
  engine's own internal optimizer disabled so the source-level rewrites
  are the only optimizer in play (as with a weak backend).
"""

from conftest import print_header, print_rows, scaled

from repro.backends import EmbeddedBackend
from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.spec import flights_histogram_spec


def run(table, merge=True, rewrite=True, per_op=False, weak_backend=False):
    backend = EmbeddedBackend(
        enable_pushdown=not weak_backend, enable_pruning=not weak_backend
    )
    session = VegaPlus(
        flights_histogram_spec(),
        data={"flights": table},
        backend=backend,
        latency_ms=20,
        merge_queries=merge,
        rewrite_sql=rewrite,
        per_operator_roundtrips=per_op,
    )
    # Pin the full-server cut so both modes run the same partitioning and
    # the ablation isolates merging/rewriting, not plan choice.
    plan = session.custom_plan({"binned": 3}, label="all-server")
    result = session.startup(plan=plan)
    return result, session.channel.stats.round_trips


def test_e4_merging_and_rewriting(benchmark):
    table = generate_flights(scaled(100_000))

    merged, merged_trips = run(table)
    per_op, per_op_trips = run(table, per_op=True)
    print_header("E4a: node merging — one request vs per-operator round trips")
    rows = [
        ["merged (1 request)", merged_trips,
         "{:.4f}".format(merged.breakdown.network),
         "{:.4f}".format(merged.total_seconds)],
        ["per-operator", per_op_trips,
         "{:.4f}".format(per_op.breakdown.network),
         "{:.4f}".format(per_op.total_seconds)],
    ]
    print_rows(["mode", "round-trips", "network(s)", "total(s)"], rows)
    assert merged.total_seconds < per_op.total_seconds
    assert merged_trips == 1 < per_op_trips

    # Rewriting ablation against a backend with no internal optimizer,
    # on a filter-after-bin pipeline where pushing the filter's derivable
    # conjunct below the bin expressions saves real work (§2.2 step 3:
    # "pushing down derived conditions from outer subqueries").
    from repro.sqlgen import compose_pipeline, rewrite_query

    steps = [
        ("bin", {"field": "dep_delay", "extent": [-30, 600], "maxbins": 20}),
        ("filter", {"expr": "datum.dep_delay > 60 && datum.bin0 != null"}),
        ("aggregate", {"groupby": ["bin0", "bin1"], "ops": ["count"],
                       "as": ["count"]}),
    ]
    nested = compose_pipeline(
        "flights", list(table.column_names), steps
    )
    rewritten = rewrite_query(nested)
    weak = EmbeddedBackend(enable_pushdown=False, enable_pruning=False)
    weak.load_table("flights", table)
    timings = {}
    for mode, sql in (("rewrites off", nested.to_sql()),
                      ("rewrites on", rewritten.to_sql())):
        # Two runs, keep the second (warm) measurement.
        weak.execute(sql)
        timings[mode] = weak.execute(sql).seconds

    print_header("E4b: SQL rewriting on a non-optimizing backend")
    rows = [
        [mode, "{:.4f}".format(seconds)]
        for mode, seconds in timings.items()
    ]
    print_rows(["mode", "server(s)"], rows)
    print("\npaper shape: merging removes intermediate transfers; rewriting "
          "(pushdown/pruning/simplification) reduces server work when the "
          "backend does not optimize")
    assert timings["rewrites on"] < timings["rewrites off"]

    def merged_startup():
        return run(table)

    benchmark.pedantic(merged_startup, rounds=3, iterations=1)
