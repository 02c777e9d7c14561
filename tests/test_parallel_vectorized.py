"""Adversarial equivalence wall for the morsel executor.

One executor runs every query (``repro.engine.executor``); what differs
between two databases is only whether an operator's input is split into
morsels.  ``Database(parallelism=4, morsel_rows=7)`` splits everything
here, ``Database()`` splits nothing, and the two must agree *byte for
byte* — identical rows in identical order, identical dict key order,
identical float bit patterns (``-0.0`` stays ``-0.0``) — with one
carve-out: SUM/AVG merge partial sums, so their last bits may differ
with summation order (asserted with a 1e-9 relative tolerance instead).

Split and unsplit execution share the join and sort kernels, so the
join, multi-key sort and top-N cases are additionally checked against
SQLite (the fuzzer's independent reference, canonicalised with
``repro.fuzz.normalize``).

Every case here targets a specific way per-morsel decomposition could
diverge from the unsplit kernel:

* NULL and NaN group keys straddling morsel boundaries (the local
  factorize + merge re-factorization must place them in the unsplit
  group order);
* degenerate key distributions — every row its own group vs one group;
* top-N ties crossing morsel boundaries (canonical row-index
  tie-break);
* empty, single-row, and exact-morsel-multiple tables;
* VARCHAR MIN/MAX (object-dtype segmented reduction + python merge);
* a non-decomposable aggregate mid-plan (gathered under a split
  filter), and the other recorded gather-then-reduce reasons;
* the general sort (multi-key, mixed direction, NULLS placement,
  VARCHAR keys), its sorted-run merge, and a composite order code wider
  than int64;
* the code join (NULL/NaN keys, LEFT pads, VARCHAR keys, boolean/double
  key coercion, VARCHAR against numeric keys, a build side without a
  single eligible row, a composite key wider than int64);
* partition-sharded windows and two-level DISTINCT.
"""

import math
import struct

import numpy as np
import pytest

from repro.backends import SQLiteBackend
from repro.engine import Database, Table
from repro.fuzz.normalize import canonical_cell, canonical_rows

MORSEL = 7
WORKERS = 4


def make_databases(tables):
    serial = Database()
    parallel = Database(parallelism=WORKERS, morsel_rows=MORSEL)
    for db in (serial, parallel):
        for name, table in tables.items():
            db.load_table(name, table)
    return serial, parallel


def float_bytes(value):
    return struct.pack("<d", value)


def assert_byte_identical(serial, parallel, context="", sum_avg_columns=()):
    """Strict positional equality: same columns, same rows in the same
    order, same dict key order, bitwise-equal floats — except the named
    SUM/AVG columns, which tolerate summation-order noise."""
    assert parallel.column_names == serial.column_names, context
    serial_rows = serial.to_rows()
    parallel_rows = parallel.to_rows()
    assert len(parallel_rows) == len(serial_rows), context
    for position, (expect, got) in enumerate(zip(serial_rows, parallel_rows)):
        assert list(got.keys()) == list(expect.keys()), (
            "{} row {}: dict key order".format(context, position)
        )
        for column, expect_value in expect.items():
            got_value = got[column]
            where = "{} row {} column {}".format(context, position, column)
            assert type(got_value) is type(expect_value), where
            if isinstance(expect_value, float) and not isinstance(
                    expect_value, bool):
                if column in sum_avg_columns:
                    assert math.isclose(got_value, expect_value,
                                        rel_tol=1e-9, abs_tol=1e-12), where
                else:
                    assert float_bytes(got_value) == float_bytes(
                        expect_value), where
            else:
                assert got_value == expect_value, where


def run_both(sql, tables, sum_avg_columns=()):
    serial_db, parallel_db = make_databases(tables)
    assert_byte_identical(
        serial_db.execute(sql), parallel_db.execute(sql),
        context=sql, sum_avg_columns=sum_avg_columns,
    )
    return parallel_db


def assert_matches_sqlite(sql, tables, ordered_by=None, same_rows=True,
                          sqlite_sql=None):
    """The unsplit answer (``run_both`` ties the split one to it) against
    SQLite.  ``same_rows`` compares the row multisets in the fuzzer's
    canonical form; ``ordered_by`` compares the sequence of those
    columns' values in result order — the order among rows with equal
    sort keys, and which of them a LIMIT keeps, is this engine's
    contract, not SQL's.  ``sqlite_sql`` spells out the NULL placement
    where ``sql`` relies on the Postgres default (SQLite's is the
    opposite)."""
    database = Database()
    reference = SQLiteBackend()
    for name, table in tables.items():
        database.load_table(name, table)
        reference.load_table(name, table)
    got = database.execute(sql).to_rows()
    expect = reference.execute(sqlite_sql or sql).table.to_rows()
    if same_rows:
        assert canonical_rows(got) == canonical_rows(expect), sql
    if ordered_by is not None:
        def sequence(rows):
            return [tuple(canonical_cell(row[column])
                          for column in ordered_by) for row in rows]

        assert sequence(got) == sequence(expect), sql


def fallback_reasons(parallel_db, sql):
    """The gather-then-reduce reasons EXPLAIN ANALYZE recorded for
    ``sql``."""
    _, nodes = parallel_db.explain_analyze_data(sql)
    return {node["fallback"] for node in nodes if node.get("fallback")}


# --------------------------------------------------------------------------
# Group keys across morsel boundaries
# --------------------------------------------------------------------------


def test_null_nan_group_keys_across_morsels():
    """NULL and NaN keys (NaN folds to NULL at load) scattered so every
    morsel sees a different subset of the groups."""
    num_rows = 6 * MORSEL + 3
    keys, values = [], []
    for index in range(num_rows):
        roll = index % 5
        if roll == 0:
            keys.append(None)
        elif roll == 1:
            keys.append(float("nan"))
        else:
            keys.append(float(index % 3))
        values.append(None if index % 4 == 0 else float(index) - 10.0)
    tables = {"t": Table.from_columns(k=keys, v=values)}
    run_both(
        'SELECT "k", COUNT(*) AS n, COUNT("v") AS nv, MIN("v") AS lo, '
        'MAX("v") AS hi FROM "t" GROUP BY "k"',
        tables,
    )
    run_both(
        'SELECT "k", SUM("v") AS s, AVG("v") AS a FROM "t" GROUP BY "k"',
        tables, sum_avg_columns={"s", "a"},
    )


def test_negative_zero_group_key_bytes():
    """-0.0 and 0.0 collapse into one group; the emitted key must carry
    the bit pattern of the group's first row, exactly like serial."""
    num_rows = 3 * MORSEL + 1
    keys = [-0.0 if index % 2 else 0.0 for index in range(num_rows)]
    tables = {"t": Table.from_columns(
        k=keys, v=[float(index) for index in range(num_rows)])}
    run_both('SELECT "k", COUNT(*) AS n FROM "t" GROUP BY "k"', tables)


def test_high_cardinality_every_row_its_own_group():
    num_rows = 5 * MORSEL + 3
    tables = {"t": Table.from_columns(
        k=[float(num_rows - index) for index in range(num_rows)],
        v=[float(index % 4) for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", COUNT(*) AS n, MIN("v") AS lo FROM "t" GROUP BY "k"',
        tables,
    )


def test_wide_group_keys_do_not_wrap_around_int64():
    """Parallel twin of the serial regression in test_engine_executor:
    four key columns of 70 000 distinct values each overflow the
    mixed-radix group code in the merge's re-factorization, which used
    to hand rows (0, 0, 21292, 8384) and (53780, 41648, 0, 0) one id."""
    from test_engine_executor import wraparound_table

    size = 70000
    parallel = Database(parallelism=2, morsel_rows=8192)
    parallel.load_table("t", wraparound_table(size))
    result = parallel.execute(
        'SELECT "a", "b", "c", "d", COUNT(*) AS n FROM "t" '
        'GROUP BY "a", "b", "c", "d"'
    )
    assert result.num_rows == size
    assert set(result.column("n").data.tolist()) == {1.0}


def test_single_group_key():
    num_rows = 4 * MORSEL
    tables = {"t": Table.from_columns(
        k=[1.0] * num_rows,
        v=[None if index % 5 == 0 else float(index)
           for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", COUNT("v") AS n, MIN("v") AS lo, MAX("v") AS hi '
        'FROM "t" GROUP BY "k"',
        tables,
    )


def test_global_aggregate_empty_after_filter():
    """Every morsel comes up empty post-filter: the merged global
    aggregate must still emit the serial one-row (COUNT 0, SUM NULL)."""
    num_rows = 3 * MORSEL + 2
    tables = {"t": Table.from_columns(
        v=[float(index) for index in range(num_rows)])}
    run_both(
        'SELECT COUNT(*) AS n, COUNT("v") AS nv, SUM("v") AS s, '
        'MIN("v") AS lo FROM "t" WHERE "v" < -1.0',
        tables,
    )


def test_grouped_aggregate_empty_after_filter():
    num_rows = 3 * MORSEL + 2
    tables = {"t": Table.from_columns(
        k=[float(index % 3) for index in range(num_rows)],
        v=[float(index) for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", COUNT(*) AS n FROM "t" WHERE "v" < -1.0 GROUP BY "k"',
        tables,
    )


def test_varchar_min_max_group_keys():
    """Object-dtype keys and extremes: python-reducer segments in the
    morsels, python merge across them."""
    num_rows = 4 * MORSEL + 5
    tables = {"t": Table.from_columns(
        k=[None if index % 9 == 0 else "grp%d" % (index % 4)
           for index in range(num_rows)],
        s=[None if index % 6 == 0 else "val%02d" % ((index * 11) % 23)
           for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", MIN("s") AS lo, MAX("s") AS hi, COUNT("s") AS n '
        'FROM "t" GROUP BY "k"',
        tables,
    )


# --------------------------------------------------------------------------
# Size classes
# --------------------------------------------------------------------------

BOUNDARY_QUERIES = [
    ('SELECT "k", COUNT(*) AS n, MIN("v") AS lo FROM "t" GROUP BY "k"', ()),
    ('SELECT "k", SUM("v") AS s FROM "t" GROUP BY "k"', ("s",)),
    ('SELECT "k", "v" FROM "t" WHERE "v" > 0.25', ()),
    ('SELECT * FROM "t" ORDER BY "v" DESC, "k"', ()),
    ('SELECT DISTINCT "k" FROM "t"', ()),
]


@pytest.mark.parametrize("num_rows", [0, 1, MORSEL - 1, MORSEL, MORSEL + 1,
                                      2 * MORSEL, 3 * MORSEL])
@pytest.mark.parametrize("sql,sum_columns", BOUNDARY_QUERIES)
def test_boundary_sizes(num_rows, sql, sum_columns):
    """Empty, one-row, morsel-boundary, and exact-multiple tables."""
    rng = np.random.default_rng(num_rows)
    tables = {"t": Table.from_columns(
        k=[None if rng.integers(0, 5) == 0 else float(rng.integers(0, 3))
           for _ in range(num_rows)],
        v=[None if rng.integers(0, 4) == 0 else float(rng.normal())
           for _ in range(num_rows)],
    )}
    run_both(sql, tables, sum_avg_columns=set(sum_columns))


# --------------------------------------------------------------------------
# Sort and top-N
# --------------------------------------------------------------------------


def test_cross_morsel_topn_ties_break_by_row_index():
    """Heavily tied keys where every morsel contributes boundary
    candidates: the canonical (key, row-index) tie-break must pick the
    stable-sort prefix, not merely *a* valid top-N."""
    num_rows = 12 * MORSEL + 1  # limit < num_rows // 4 engages top-N
    tables = {"t": Table.from_columns(
        v=[float(index % 3) for index in range(num_rows)],
        tag=["row%03d" % index for index in range(num_rows)],
    )}
    for sql in (
        'SELECT * FROM "t" ORDER BY "v" LIMIT 5',
        'SELECT * FROM "t" ORDER BY "v" DESC LIMIT 5',
    ):
        run_both(sql, tables)
        assert_matches_sqlite(sql, tables, ordered_by=["v"], same_rows=False)


def test_topn_with_nulls_and_offset():
    num_rows = 12 * MORSEL + 3
    tables = {"t": Table.from_columns(
        v=[None if index % 5 == 0 else float(-(index % 11))
           for index in range(num_rows)],
    )}
    for sql, sqlite_sql in (
        ('SELECT "v" FROM "t" ORDER BY "v" LIMIT 6',
         'SELECT "v" FROM "t" ORDER BY "v" NULLS LAST LIMIT 6'),
        ('SELECT "v" FROM "t" ORDER BY "v" DESC LIMIT 6 OFFSET 3',
         'SELECT "v" FROM "t" ORDER BY "v" DESC NULLS FIRST '
         'LIMIT 6 OFFSET 3'),
    ):
        run_both(sql, tables)
        assert_matches_sqlite(sql, tables, ordered_by=["v"],
                              sqlite_sql=sqlite_sql)


def test_parallel_general_sort_multi_key():
    """The per-morsel sorted-run merge: mixed directions, NULL
    placement, VARCHAR keys, ties resolved by stable row order."""
    num_rows = 5 * MORSEL + 2
    rng = np.random.default_rng(3)
    tables = {"t": Table.from_columns(
        a=[None if rng.integers(0, 6) == 0 else float(rng.integers(0, 4))
           for _ in range(num_rows)],
        b=[None if rng.integers(0, 7) == 0 else "s%d" % rng.integers(0, 3)
           for _ in range(num_rows)],
        v=[float(index) for index in range(num_rows)],
    )}
    for sql, sqlite_sql, same_rows in (
        ('SELECT * FROM "t" ORDER BY "a", "b" DESC',
         'SELECT * FROM "t" ORDER BY "a" NULLS LAST, "b" DESC NULLS FIRST',
         True),
        ('SELECT * FROM "t" ORDER BY "a" DESC NULLS LAST, '
         '"b" ASC NULLS FIRST', None, True),
        # which of the rows tied on ("b", "a") the LIMIT keeps is ours
        ('SELECT * FROM "t" ORDER BY "b", "a" LIMIT 9',
         'SELECT * FROM "t" ORDER BY "b" NULLS LAST, "a" NULLS LAST '
         'LIMIT 9', False),
    ):
        run_both(sql, tables)
        assert_matches_sqlite(sql, tables, ordered_by=["a", "b"],
                              same_rows=same_rows, sqlite_sql=sqlite_sql)


def test_sort_key_width_overflow_stays_in_the_kernel():
    """Enough wide key columns to overflow the composite int64 code:
    the order code is re-densified in place — no gather, no recorded
    reason — and the order is the unsplit one and SQLite's."""
    num_rows = 3 * MORSEL
    rng = np.random.default_rng(11)
    # Cardinality is counted over values actually present, so with 21
    # rows each column contributes a factor of ~22: sixteen all-distinct
    # columns push the mixed-radix product past 2**62.
    columns = {
        "c%d" % position: list(rng.permutation(num_rows).astype(float))
        for position in range(16)
    }
    tables = {"t": Table.from_columns(**columns)}
    order = ", ".join('"c%d"' % position for position in range(16))
    sql = 'SELECT * FROM "t" ORDER BY {}'.format(order)
    parallel_db = run_both(sql, tables)
    assert fallback_reasons(parallel_db, sql) == set()
    # "c0" is a permutation, so the whole row order is determined.
    assert_matches_sqlite(sql, tables, ordered_by=sorted(columns))


# --------------------------------------------------------------------------
# Joins
# --------------------------------------------------------------------------


def build_fact(num_rows, seed=5):
    rng = np.random.default_rng(seed)
    keys = []
    for index in range(num_rows):
        roll = rng.integers(0, 8)
        if roll == 0:
            keys.append(None)
        elif roll == 1:
            keys.append(float("nan"))  # folds to NULL at load
        else:
            keys.append(float(rng.integers(0, 4)))
    return Table.from_columns(
        k=keys, v=[float(index) for index in range(num_rows)])


def test_parallel_inner_join_with_duplicate_build_rows():
    dims = Table.from_columns(
        k=[0.0, 1.0, 1.0, 2.0, None],
        label=["zero", "one-a", "one-b", "two", "null"],
    )
    tables = {"t": build_fact(4 * MORSEL + 3), "d": dims}
    sql = ('SELECT "t"."k", "t"."v", "d"."label" FROM "t" '
           'JOIN "d" ON "t"."k" = "d"."k"')
    run_both(sql, tables)
    assert_matches_sqlite(sql, tables)


def test_parallel_left_join_pads_after_matches():
    dims = Table.from_columns(k=[1.0, 3.0], label=["one", "three"])
    tables = {"t": build_fact(4 * MORSEL + 1), "d": dims}
    sql = ('SELECT "t"."k", "t"."v", "d"."label" FROM "t" '
           'LEFT JOIN "d" ON "t"."k" = "d"."k"')
    run_both(sql, tables)
    assert_matches_sqlite(sql, tables)


def test_parallel_join_varchar_keys():
    num_rows = 3 * MORSEL + 4
    tables = {
        "t": Table.from_columns(
            name=[None if index % 6 == 0 else "n%d" % (index % 5)
                  for index in range(num_rows)],
            v=[float(index) for index in range(num_rows)],
        ),
        "d": Table.from_columns(
            name=["n0", "n2", "n4", "n9"],
            label=["zero", "two", "four", "nine"],
        ),
    }
    sql = ('SELECT "t"."v", "d"."label" FROM "t" '
           'JOIN "d" ON "t"."name" = "d"."name"')
    run_both(sql, tables)
    assert_matches_sqlite(sql, tables)


def test_join_type_mismatch_never_matches():
    """VARCHAR against DOUBLE keys never compare equal (SQLite would
    coerce the strings, so it is no reference here): the match set is
    empty by construction, every left row is padded, and nothing is
    gathered or recorded."""
    num_rows = 3 * MORSEL + 1
    tables = {
        "t": Table.from_columns(
            k=["%d" % (index % 3) for index in range(num_rows)],
            v=[float(index) for index in range(num_rows)],
        ),
        "d": Table.from_columns(k=[0.0, 1.0], label=["a", "b"]),
    }
    sql = ('SELECT "t"."v", "d"."label" FROM "t" '
           'LEFT JOIN "d" ON "t"."k" = "d"."k"')
    parallel_db = run_both(sql, tables)
    assert fallback_reasons(parallel_db, sql) == set()
    rows = parallel_db.execute(sql).to_rows()
    assert [row["v"] for row in rows] == [
        float(index) for index in range(num_rows)]
    assert {row["label"] for row in rows} == {None}


@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
@pytest.mark.parametrize("build_keys", [
    pytest.param([], id="empty"),
    pytest.param([None, None, None], id="all-null"),
    pytest.param([float("nan"), None], id="nan-and-null"),
])
@pytest.mark.parametrize("num_rows", [5, 4 * MORSEL + 3])
def test_join_against_build_side_without_eligible_rows(
        kind, build_keys, num_rows):
    """No build row can match (empty table, NULL/NaN keys only) while
    the probe side has eligible rows: INNER yields nothing, LEFT pads
    every row, on one probe task and on several."""
    dims = Table.from_columns(
        k=np.array(build_keys, dtype=np.float64)
        if not build_keys else build_keys,
        label=np.array([], dtype=object)
        if not build_keys else ["d%d" % i for i in range(len(build_keys))],
    )
    tables = {"t": build_fact(num_rows), "d": dims}
    sql = ('SELECT "t"."k", "t"."v", "d"."label" FROM "t" '
           '{} "d" ON "t"."k" = "d"."k"'.format(kind))
    parallel_db = run_both(sql, tables)
    assert_matches_sqlite(sql, tables)
    rows = parallel_db.execute(sql).to_rows()
    if kind == "JOIN":
        assert rows == []
    else:
        assert [row["v"] for row in rows] == [
            float(index) for index in range(num_rows)]
        assert {row["label"] for row in rows} == {None}


@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_against_subquery_filtered_to_empty(kind):
    tables = {
        "t": build_fact(4 * MORSEL + 3),
        "d": Table.from_columns(k=[0.0, 1.0, 2.0], label=["a", "b", "c"]),
    }
    sql = ('SELECT "t"."v", "e"."label" FROM "t" {} '
           '(SELECT "k", "label" FROM "d" WHERE "k" > 99) AS "e" '
           'ON "t"."k" = "e"."k"'.format(kind))
    run_both(sql, tables)
    assert_matches_sqlite(sql, tables)


@pytest.mark.parametrize("kind", ["JOIN", "LEFT JOIN"])
def test_join_key_width_overflow_stays_in_the_kernel(kind):
    """The join twin of the sort overflow: sixteen key pairs of ~22
    distinct values each take the composite join code past int64, so
    both sides are re-densified together — no recorded reason, and the
    matches (duplicates on the build side, near misses that differ in
    the last key only) are the unsplit ones and SQLite's."""
    num_rows = 3 * MORSEL
    rng = np.random.default_rng(19)
    names = ["c%d" % position for position in range(16)]
    fact = {name: rng.permutation(num_rows).astype(float) for name in names}
    picked = np.array([0, 5, 5, 11, 20])
    dims = {name: fact[name][picked].copy() for name in names}
    dims["c15"][-1] += 0.5  # row 20's twin differs in the last key only
    tables = {
        "t": Table.from_columns(
            v=[float(index) for index in range(num_rows)],
            **{name: list(values) for name, values in fact.items()}),
        "d": Table.from_columns(
            label=["d%d" % index for index in range(len(picked))],
            **{name: list(values) for name, values in dims.items()}),
    }
    condition = " AND ".join(
        '"t"."{0}" = "d"."{0}"'.format(name) for name in names)
    sql = 'SELECT "t"."v", "d"."label" FROM "t" {} "d" ON {}'.format(
        kind, condition)
    parallel_db = run_both(sql, tables)
    assert fallback_reasons(parallel_db, sql) == set()
    assert_matches_sqlite(sql, tables)
    matched = [row["v"] for row in parallel_db.execute(sql).to_rows()
               if row["label"] is not None]
    assert matched == [0.0, 5.0, 5.0, 11.0]


# --------------------------------------------------------------------------
# Windows and DISTINCT
# --------------------------------------------------------------------------


def test_partition_parallel_window():
    num_rows = 5 * MORSEL + 4
    rng = np.random.default_rng(9)
    tables = {"t": Table.from_columns(
        p=[float(rng.integers(0, 6)) for _ in range(num_rows)],
        v=[None if rng.integers(0, 5) == 0 else float(rng.normal())
           for _ in range(num_rows)],
    )}
    for sql in (
        'SELECT "p", "v", SUM("v") OVER (PARTITION BY "p") AS total '
        'FROM "t"',
        'SELECT "p", "v", ROW_NUMBER() OVER (PARTITION BY "p" '
        'ORDER BY "v" DESC) AS rn FROM "t"',
        'SELECT "p", "v", LAG("v") OVER (PARTITION BY "p" ORDER BY "v") '
        'AS prev FROM "t"',
    ):
        run_both(sql, tables)


def test_unpartitioned_window_records_fallback():
    num_rows = 3 * MORSEL + 2
    tables = {"t": Table.from_columns(
        v=[float(index % 9) for index in range(num_rows)])}
    sql = 'SELECT "v", SUM("v") OVER (ORDER BY "v") AS running FROM "t"'
    parallel_db = run_both(sql, tables)
    assert "window_single_partition" in fallback_reasons(parallel_db, sql)


def test_parallel_distinct_first_occurrence_bytes():
    """DISTINCT output order (factorization order) and the surviving
    row's bit patterns must match serial, including -0.0 vs 0.0."""
    num_rows = 4 * MORSEL + 2
    tables = {"t": Table.from_columns(
        k=[(-0.0 if index % 2 else 0.0) if index % 5 == 0
           else float(index % 4)
           for index in range(num_rows)],
        s=[None if index % 7 == 0 else "s%d" % (index % 3)
           for index in range(num_rows)],
    )}
    run_both('SELECT DISTINCT "k", "s" FROM "t"', tables)


# --------------------------------------------------------------------------
# Fallbacks mid-plan
# --------------------------------------------------------------------------


def test_nondecomposable_aggregate_mid_plan():
    """MEDIAN has no mergeable partial state, so its input is gathered
    while the filter below it still runs per morsel — the handoff must
    not disturb rows or group order."""
    num_rows = 6 * MORSEL + 1
    rng = np.random.default_rng(17)
    tables = {"t": Table.from_columns(
        k=[None if rng.integers(0, 5) == 0 else float(rng.integers(0, 3))
           for _ in range(num_rows)],
        v=[None if rng.integers(0, 4) == 0 else float(rng.normal())
           for _ in range(num_rows)],
    )}
    sql = ('SELECT "k", MEDIAN("v") AS med, COUNT(*) AS n FROM "t" '
           'WHERE "v" IS NOT NULL OR "k" IS NOT NULL GROUP BY "k"')
    parallel_db = run_both(sql, tables)
    assert "aggregate_nondecomposable" in fallback_reasons(parallel_db, sql)


def test_count_distinct_falls_back_identically():
    num_rows = 4 * MORSEL + 3
    tables = {"t": Table.from_columns(
        k=[float(index % 2) for index in range(num_rows)],
        v=[float(index % 5) for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", COUNT(DISTINCT "v") AS dv FROM "t" GROUP BY "k"',
        tables,
    )


def test_mixed_decomposable_and_not_in_one_query():
    num_rows = 5 * MORSEL + 2
    tables = {"t": Table.from_columns(
        k=[float(index % 3) for index in range(num_rows)],
        v=[None if index % 6 == 0 else float(index % 13)
           for index in range(num_rows)],
    )}
    run_both(
        'SELECT "k", COUNT(*) AS n, STDDEV("v") AS sd, MAX("v") AS hi '
        'FROM "t" GROUP BY "k"',
        tables,
    )


@pytest.mark.parametrize("sql", [
    pytest.param('SELECT "k", COUNT(*) AS n FROM "t" GROUP BY "k"',
                 id="count"),
    # the fused filter + partial aggregate with a columnar merge
    pytest.param('SELECT "k", COUNT(*) AS c, SUM("v") AS s FROM "t" '
                 'WHERE "v" > -1.0 GROUP BY "k"', id="filter-sum"),
    # the per-morsel top-N candidate merge
    pytest.param('SELECT * FROM "t" ORDER BY "v" LIMIT 100', id="topn"),
])
def test_fallback_reasons_absent_on_clean_parallel_plans(sql):
    """No node gathers its input, at one worker or four; the nodes that
    split run at least one task per morsel, and one worker splits the
    same nodes into the same number of tasks as four."""
    num_rows = 20 * MORSEL + 3
    rng = np.random.default_rng(10)
    tables = {"t": Table.from_columns(
        k=rng.integers(0, 128, num_rows).astype(np.float64),
        v=rng.normal(size=num_rows),
    )}
    run_both(sql, tables, sum_avg_columns={"s"})
    split_nodes = {}
    for workers in (1, WORKERS):
        db = Database(parallelism=workers, morsel_rows=MORSEL)
        db.load_table("t", tables["t"])
        assert fallback_reasons(db, sql) == set()
        _, nodes = db.explain_analyze_data(sql)
        split_nodes[workers] = [(node["label"], len(node["morsels"]))
                                for node in nodes if node.get("morsels")]
        assert sum(tasks for _, tasks in split_nodes[workers]) \
            >= num_rows // MORSEL
    assert split_nodes[1] == split_nodes[WORKERS]
