"""Split-equals-unsplit property tests for the morsel-driven executor.

One executor (`repro.engine.executor`) runs every query; an operator
whose input is larger than one morsel is cut into morsel tasks and
merged.  That promises canonically *identical* output to running the
kernel once — same rows in the same order, with float SUM/AVG tolerated
to summation-order precision.  ``Database()`` below never splits (the
tables are far under the default morsel), ``Database(parallelism=4,
morsel_rows=5)`` always does; the tests exercise the promise on the
adversarial inputs where per-morsel decomposition is most likely to
break:

* NULL and NaN group keys (NaN folds to NULL at load; both must land in
  the same group on every path);
* empty tables, single rows, and morsel-boundary sizes M-1, M, M+1 and
  2M+1 (a tiny ``morsel_rows`` makes every size class reachable);
* every decomposable aggregate, the gathered non-decomposable ones,
  sort, the per-morsel top-N merge, and joins.
"""

import math

import numpy as np
import pytest

from repro.engine import Database, Table

MORSEL = 5
WORKERS = 4

#: the morsel-boundary size classes: empty, single row, one-under/at/over
#: a morsel boundary, and a final partial morsel after two full ones.
SIZES = [0, 1, MORSEL - 1, MORSEL, MORSEL + 1, 2 * MORSEL + 1]

QUERIES = [
    'SELECT "k", COUNT(*) AS n, COUNT("v") AS nv, SUM("v") AS s, '
    'AVG("v") AS a, MIN("v") AS lo, MAX("v") AS hi FROM "t" GROUP BY "k"',
    'SELECT "k", MEDIAN("v") AS med, STDDEV("v") AS sd, '
    'COUNT(DISTINCT "v") AS dv FROM "t" GROUP BY "k"',
    'SELECT COUNT(*) AS n, SUM("v") AS s, MIN("s") AS lo FROM "t"',
    'SELECT "k", "v" FROM "t" WHERE "v" > 0.0',
    'SELECT "v" + 1.0 AS shifted, "s" FROM "t"',
    'SELECT * FROM "t" ORDER BY "v", "s"',
    'SELECT * FROM "t" ORDER BY "v" DESC LIMIT 3',
    'SELECT "s", "v" FROM "t" ORDER BY "s" LIMIT 4',
    'SELECT "k", MIN("s") AS lo_s FROM "t" GROUP BY "k"',
    'SELECT DISTINCT "k" FROM "t"',
]


def build_table(num_rows, seed=0):
    """An adversarial table: NULL/NaN keys, NULL values, tied strings."""
    rng = np.random.default_rng(seed)
    keys = []
    values = []
    strings = []
    for index in range(num_rows):
        roll = rng.integers(0, 6)
        if roll == 0:
            keys.append(None)
        elif roll == 1:
            keys.append(float("nan"))  # folds to NULL at load
        else:
            keys.append(float(rng.integers(0, 3)))
        values.append(None if rng.integers(0, 4) == 0
                      else float(rng.normal()))
        strings.append("s%d" % rng.integers(0, 3))
    return Table.from_columns(k=keys, v=values, s=strings)


def databases_for(table, extra=None):
    serial = Database()
    parallel = Database(parallelism=WORKERS, morsel_rows=MORSEL)
    for db in (serial, parallel):
        db.load_table("t", table)
        if extra:
            for name, other in extra.items():
                db.load_table(name, other)
    return serial, parallel


def assert_tables_match(serial, parallel, context=""):
    """Ordered, cell-wise equality with float summation tolerance.

    The parallel executor preserves serial row order (ordered morsel
    concatenation; the shared global factorization; canonical top-N), so
    this is strict positional equality — not set equality.
    """
    assert parallel.column_names == serial.column_names, context
    serial_rows = serial.to_rows()
    parallel_rows = parallel.to_rows()
    assert len(parallel_rows) == len(serial_rows), context
    for position, (expect, got) in enumerate(
            zip(serial_rows, parallel_rows)):
        for column, expect_value in expect.items():
            got_value = got[column]
            where = "{} row {} column {}".format(context, position, column)
            if isinstance(expect_value, float) and not isinstance(
                    expect_value, bool):
                assert isinstance(got_value, float), where
                assert math.isclose(got_value, expect_value,
                                    rel_tol=1e-9, abs_tol=1e-12), where
            else:
                assert got_value == expect_value, where


@pytest.mark.parametrize("num_rows", SIZES)
@pytest.mark.parametrize("sql", QUERIES)
def test_parallel_matches_serial(num_rows, sql):
    serial_db, parallel_db = databases_for(build_table(num_rows))
    assert_tables_match(
        serial_db.execute(sql), parallel_db.execute(sql),
        context="rows={} sql={}".format(num_rows, sql),
    )


@pytest.mark.parametrize("num_rows", SIZES)
def test_parallel_join_matches_serial(num_rows):
    dims = Table.from_columns(
        k=[0.0, 1.0, 2.0, None],
        label=["zero", "one", "two", "null-key"],
    )
    sql = ('SELECT "t"."k", "t"."v", "d"."label" FROM "t" '
           'JOIN "d" ON "t"."k" = "d"."k"')
    serial_db, parallel_db = databases_for(
        build_table(num_rows), extra={"d": dims})
    assert_tables_match(
        serial_db.execute(sql), parallel_db.execute(sql),
        context="join rows={}".format(num_rows),
    )


def test_topn_ties_break_canonically():
    """Tied sort keys across morsel boundaries: both executors must pick
    the same winners (first occurrences by row index, the stable-sort
    prefix), not merely *a* valid top-N."""
    num_rows = 4 * MORSEL + 3
    table = Table.from_columns(
        v=[float(i % 3) for i in range(num_rows)],
        tag=["row%03d" % i for i in range(num_rows)],
    )
    serial_db, parallel_db = databases_for(table)
    for sql in (
        'SELECT * FROM "t" ORDER BY "v" LIMIT 4',
        'SELECT * FROM "t" ORDER BY "v" DESC LIMIT 4',
    ):
        assert_tables_match(serial_db.execute(sql),
                            parallel_db.execute(sql), context=sql)


def test_topn_with_null_keys_across_morsels():
    num_rows = 3 * MORSEL + 2
    values = [None if i % 4 == 0 else float(-i) for i in range(num_rows)]
    table = Table.from_columns(v=values)
    serial_db, parallel_db = databases_for(table)
    for sql in (
        'SELECT "v" FROM "t" ORDER BY "v" LIMIT 5',
        'SELECT "v" FROM "t" ORDER BY "v" DESC LIMIT 5',
    ):
        assert_tables_match(serial_db.execute(sql),
                            parallel_db.execute(sql), context=sql)


def test_varchar_min_max_across_morsels():
    """Object-dtype MIN/MAX takes the python reducer path in the morsel
    partials; verify the merge agrees with the serial kernel."""
    num_rows = 3 * MORSEL + 1
    table = Table.from_columns(
        k=[float(i % 2) for i in range(num_rows)],
        s=[None if i % 7 == 0 else "val%02d" % ((i * 13) % 20)
           for i in range(num_rows)],
    )
    serial_db, parallel_db = databases_for(table)
    sql = ('SELECT "k", MIN("s") AS lo, MAX("s") AS hi, COUNT("s") AS n '
           'FROM "t" GROUP BY "k"')
    assert_tables_match(serial_db.execute(sql), parallel_db.execute(sql),
                        context=sql)


def test_all_null_groups_merge_to_null():
    """A group whose every value is NULL must yield NULL (not 0) from the
    partial-merge path, exactly like serial."""
    table = Table.from_columns(
        k=[0.0] * (MORSEL + 2) + [1.0] * (MORSEL + 2),
        v=[None] * (MORSEL + 2)
          + [float(i) for i in range(MORSEL + 2)],
    )
    serial_db, parallel_db = databases_for(table)
    sql = ('SELECT "k", SUM("v") AS s, AVG("v") AS a, MIN("v") AS lo, '
           'MAX("v") AS hi, COUNT("v") AS n FROM "t" GROUP BY "k"')
    serial_out = serial_db.execute(sql)
    assert_tables_match(serial_out, parallel_db.execute(sql), context=sql)
    null_group = [row for row in serial_out.to_rows() if row["k"] == 0.0]
    assert null_group[0]["s"] is None
    assert null_group[0]["n"] == 0.0


def test_morsel_log_attributes_work():
    """``explain_analyze_data`` exposes per-morsel records on split nodes:
    ordered indices, full row coverage, and real worker attribution."""
    num_rows = 6 * MORSEL + 1
    parallel_db = Database(parallelism=2, morsel_rows=MORSEL)
    parallel_db.load_table("t", build_table(num_rows))
    _, nodes = parallel_db.explain_analyze_data(
        'SELECT "k", COUNT(*) AS n FROM "t" WHERE "v" IS NOT NULL '
        'GROUP BY "k"')
    logged = [node for node in nodes if node.get("morsels")]
    assert logged, "no node recorded morsels"
    for node in logged:
        records = node["morsels"]
        assert [record["index"] for record in records] == list(
            range(len(records)))
        assert sum(record["rows_in"] for record in records) > 0
        for record in records:
            assert record["op"] in {"scan", "filter", "project",
                                    "aggregate", "sort"}
            assert 0 <= record["worker"] < 2
            assert record["seconds"] >= 0.0


def test_serial_database_records_no_morsels():
    serial_db = Database()
    serial_db.load_table("t", build_table(MORSEL + 1))
    _, nodes = serial_db.explain_analyze_data('SELECT COUNT(*) AS n FROM "t"')
    assert not any(node.get("morsels") for node in nodes)


def test_invalid_parallelism_rejected():
    with pytest.raises(ValueError):
        Database(parallelism=0)
    with pytest.raises(ValueError):
        Database(morsel_rows=0)
    db = Database(parallelism=2, morsel_rows=7)
    assert (db.parallelism, db.morsel_rows) == (2, 7)
    assert Database().parallelism == 1
