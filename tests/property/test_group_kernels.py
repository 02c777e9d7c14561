"""Equivalence of the shared group-by kernels with a naive reference.

``repro.engine.kernels`` factorizes key columns without sorting wherever
it can (dictionary codes, presence bitmaps) and reduces the decomposable
aggregates with segment kernels.  Both must be indistinguishable from
the obvious implementation: sort the distinct key tuples (NULL after
every value), number them, loop over each group's rows.  That reference
lives here, in plain Python over row tuples, and every storage layout a
column can have — plain, dictionary-coded, re-chunked, and a coded
column filtered so its dictionary has unused entries — is held to it on
seeded random tables.
"""

import math

import numpy as np
import pytest

from repro.data import Column
from repro.engine import Database, Table
from repro.engine.kernels import (
    aggregate_states,
    factorize_column,
    factorize_rows,
    factorize_rows_first,
    state_column,
)
from repro.engine.types import SQLType

SEEDS = range(12)
LAYOUTS = ("plain", "coded", "rechunked", "coded-filtered")

_WORDS = ["", "a", "b", "ab", "Zed", "é", "zz"]


# -- random columns ------------------------------------------------------------


def _random_values(rng, kind, rows):
    """Python values (None = NULL) of one random column."""
    null_share = rng.choice([0.0, 0.2, 1.0], p=[0.4, 0.5, 0.1])
    if kind == "double":
        pool = rng.choice([
            np.arange(4.0),                      # small integers
            np.array([-0.5, 0.25, 1e9, -1e9]),   # wide, fractional
            rng.normal(100.0, 30.0, 5),          # arbitrary floats
        ][int(rng.integers(3))], rows)
        values = [float(v) for v in pool]
        # NaN inputs are NULL by the time they are a column
        values = [float("nan") if rng.random() < 0.05 else v for v in values]
    elif kind == "varchar":
        # "" is a real value here and also the placeholder NULL rows carry
        values = [str(v) for v in rng.choice(_WORDS, rows)]
    else:
        values = [bool(v) for v in rng.integers(0, 2, rows)]
    return [None if rng.random() < null_share else v for v in values]


def _as_null(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _layout(values, layout):
    """``values`` as a Column in the given storage layout (plain, coded
    or rechunked), plus the values as the column holds them."""
    column = Column.from_values(values)
    values = [_as_null(v) for v in values]
    if layout == "rechunked":
        return column.rechunk(7), values
    if layout == "coded":
        # code a few copies end to end, so that the dictionary stays
        # under half the rows, and keep the first
        repeat = 1 + (2 * len(_WORDS)) // max(len(values), 1)
        column = Column.from_values(values * repeat)
        column.encode()
        column = column.slice(0, len(values))
    return column, values


def _random_keys(rng, layout, rows, kinds=None):
    if kinds is None:
        kinds = rng.choice(["double", "varchar", "boolean"],
                           int(rng.integers(1, 4)))
    # the filtered layout leaves unused entries in the dictionaries
    keep = rng.random(rows) < 0.6
    keep[0] = True
    columns, value_lists = [], []
    for kind in kinds:
        values = _random_values(rng, kind, rows)
        column, values = _layout(values, layout.replace("-filtered", ""))
        if layout == "coded-filtered":
            column = column.mask(keep)
            values = [v for v, k in zip(values, keep) if k]
        columns.append(column)
        value_lists.append(values)
    return columns, list(zip(*value_lists)) if value_lists else []


# -- the reference ---------------------------------------------------------------


def _order_key(key):
    return tuple((value is None, 0 if value is None else value)
                 for value in key)


def reference_groups(keys, rows):
    """``(group_ids, group_count, first)`` the naive way: number the
    sorted distinct key tuples, NULL after every value."""
    if rows == 0:
        return [], 0, []
    if not keys or not keys[0]:
        keys = [()] * rows
    distinct = sorted(set(keys), key=_order_key)
    number = {key: index for index, key in enumerate(distinct)}
    ids = [number[key] for key in keys]
    first = [ids.index(index) for index in range(len(distinct))]
    return ids, len(distinct), first


def reference_aggregate(name, values):
    """One aggregate over one group's Python values (None = NULL)."""
    present = [v for v in values if v is not None]
    if name == "COUNT(*)":
        return float(len(values))
    if name == "COUNT":
        return float(len(present))
    if not present:
        return None
    if name in ("MIN", "MAX"):
        best = min(present) if name == "MIN" else max(present)
        return best if isinstance(best, str) else float(best)
    total = math.fsum(float(v) for v in present)
    return total if name == "SUM" else total / len(present)


def _same(name, got, expected):
    if got is None or expected is None:
        return got is expected
    if name in ("SUM", "AVG"):
        return math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)
    return got == expected and type(got) is type(expected)


# -- factorization -----------------------------------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_factorization_matches_reference(seed, layout):
    rng = np.random.default_rng(1000 + seed)
    rows = int(rng.choice([1, 2, 9, 40, 150]))
    columns, keys = _random_keys(rng, layout, rows)
    rows = len(columns[0])
    ids, count, first = factorize_rows_first(columns, rows)
    expected = reference_groups(keys, rows)
    assert (ids.tolist(), count, first.tolist()) == expected
    plain_ids, plain_count = factorize_rows(columns, rows)
    assert (plain_ids.tolist(), plain_count) == expected[:2]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", ["double", "varchar", "boolean"])
@pytest.mark.parametrize("seed", range(6))
def test_column_codes_are_dense_value_ranks(seed, kind, layout):
    rng = np.random.default_rng(2000 + seed)
    (column,), keys = _random_keys(rng, layout, 60, kinds=[kind])
    codes, count = factorize_column(column)
    expected_ids, expected_count, _ = reference_groups(keys, len(column))
    assert (codes.tolist(), count) == (expected_ids, expected_count)


def test_empty_input():
    none = np.zeros(0, dtype=np.int64)
    for columns in ([], [Column.from_values([], SQLType.DOUBLE)],
                    [Column.from_values([], SQLType.VARCHAR)]):
        ids, count, first = factorize_rows_first(columns, 0)
        assert (ids.tolist(), count, first.tolist()) == ([], 0, [])
        assert ids.dtype == first.dtype == none.dtype


def test_no_keys_is_one_group():
    ids, count, first = factorize_rows_first([], 5)
    assert (ids.tolist(), count, first.tolist()) == ([0] * 5, 1, [0])


@pytest.mark.parametrize("layout", LAYOUTS[:3])
def test_single_group_and_all_distinct(layout):
    rng = np.random.default_rng(7)
    same, _ = _layout(["k"] * 30, layout)
    ids, count, first = factorize_rows_first([same], 30)
    assert (ids.tolist(), count, first.tolist()) == ([0] * 30, 1, [0])
    # every row its own group: a VARCHAR column like this stays plain
    # (its dictionary would be as long as the column)
    shuffled = rng.permutation(30)
    names, _ = _layout(["n{:02d}".format(v) for v in shuffled], layout)
    numbers, _ = _layout([float(v) for v in shuffled], layout)
    assert names.codes is None
    for column in (names, numbers):
        ids, count, first = factorize_rows_first([column], 30)
        assert ids.tolist() == shuffled.tolist()
        assert count == 30
        assert first.tolist() == np.argsort(shuffled).tolist()


def test_all_null_key_columns():
    nulls = Column.nulls(SQLType.VARCHAR, 4)
    values = Column.from_values([2.0, None, 2.0, 1.0])
    ids, count, first = factorize_rows_first([nulls, values], 4)
    assert (ids.tolist(), count, first.tolist()) == ([1, 2, 1, 0], 3, [3, 0, 1])


def test_null_placeholder_duplicates_a_real_value():
    # NULL rows carry "" / 0.0 / False as placeholders; the same values
    # occur for real in other rows and must not share their group
    for values in (["", None, "", "x"] * 3, [0.0, None, 0.0, 5.0] * 3,
                   [False, None, False, True] * 3):
        for layout in LAYOUTS[:3]:
            column, held = _layout(values, layout)
            ids, count, _ = factorize_rows_first([column], len(column))
            assert (ids.tolist(), count) == reference_groups(
                [(v,) for v in held], len(column))[:2]


def test_fractional_offsets_do_not_merge_neighbours():
    # 0.1 + k round-trips for these, but the next double up from 1.1 does
    # not: it must keep a group of its own
    column = Column.from_values(
        [0.1, 1.1, float(np.nextafter(1.1, 2.0)), 2.1] * 4)
    ids, count, _ = factorize_rows_first([column], 16)
    assert count == 4
    assert ids.tolist() == [0, 1, 2, 3] * 4


# -- aggregates ----------------------------------------------------------------------

_CALLS = [
    ("COUNT(*)", "count_star", None),
    ("COUNT", "count", "x"), ("SUM", "sum", "x"), ("AVG", "avg", "x"),
    ("MIN", "min", "x"), ("MAX", "max", "x"),
    ("COUNT", "count", "s"), ("MIN", "min", "s"), ("MAX", "max", "s"),
    ("SUM", "sum", "b"), ("AVG", "avg", "b"), ("MIN", "min", "b"),
    ("MAX", "max", "b"),
]


def _aggregate_table(rng, layout, rows):
    keys, key_rows = _random_keys(rng, layout, rows)
    rows = len(keys[0])
    inputs, input_values = {}, {}
    for name, kind in (("x", "double"), ("s", "varchar"), ("b", "boolean")):
        values = _random_values(rng, kind, rows)
        inputs[name], input_values[name] = _layout(
            values, layout.replace("-filtered", ""))
    return keys, key_rows, inputs, input_values


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_segment_kernels_match_per_group_reference(seed, layout):
    rng = np.random.default_rng(3000 + seed)
    rows = int(rng.choice([1, 8, 60, 200]))
    keys, key_rows, inputs, input_values = _aggregate_table(rng, layout, rows)
    rows = len(keys[0])
    ids, count, _ = factorize_rows_first(keys, rows)
    members = [[] for _ in range(count)]
    for row, group in enumerate(ids.tolist()):
        members[group].append(row)
    for name, kind, argument in _CALLS:
        if argument is None:
            column = Column(SQLType.DOUBLE, np.zeros(rows))
            values = [0.0] * rows
        else:
            column, values = inputs[argument], input_values[argument]
        result_type = (SQLType.VARCHAR if argument == "s"
                       and name in ("MIN", "MAX") else SQLType.DOUBLE)
        state = aggregate_states(kind, column, ids, count)
        got = state_column(kind, state, result_type)
        assert got.type is result_type and len(got) == count
        for group, value in enumerate(got.to_list()):
            expected = reference_aggregate(
                name, [values[row] for row in members[group]])
            assert _same(name, value, expected), (name, argument, group)


def _sql_rows(database, sql):
    return database.execute(sql).to_rows()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", ["plain", "coded", "rechunked"])
@pytest.mark.parametrize("seed", range(6))
def test_sql_group_by_matches_reference(seed, layout, workers):
    """The same through SQL, on the serial executor and on the morsel
    executor with morsels far smaller than the table."""
    rng = np.random.default_rng(4000 + seed)
    rows = int(rng.choice([5, 64, 180]))
    values = {
        "k": _random_values(rng, "varchar", rows),
        "j": _random_values(rng, "double", rows),
        "x": _random_values(rng, "double", rows),
        "s": _random_values(rng, "varchar", rows),
        "b": _random_values(rng, "boolean", rows),
    }
    table = Table()
    held = {}
    for name, column_values in values.items():
        column, held[name] = _layout(column_values, layout)
        table.add_column(name, column)
    database = Database(parallelism=workers, morsel_rows=16)
    database.load_table("t", table)
    if layout == "coded" and any(v is not None for v in held["k"]):
        assert table.column("k").codes is not None

    select = ", ".join(
        "{}({}) AS a{}".format(name, argument, position)
        for position, (name, _, argument) in enumerate(_CALLS[1:]))
    got = _sql_rows(database, "SELECT k, j, COUNT(*) AS n, {} FROM t "
                              "GROUP BY k, j".format(select))
    keys = list(zip(held["k"], held["j"]))
    ids, count, first = reference_groups(keys, rows)
    assert len(got) == count
    for group, row in enumerate(got):
        assert (row["k"], row["j"]) == keys[first[group]]
        members = [r for r in range(rows) if ids[r] == group]
        assert row["n"] == float(len(members))
        for position, (name, _, argument) in enumerate(_CALLS[1:]):
            expected = reference_aggregate(
                name, [held[argument][r] for r in members])
            assert _same(name, row["a{}".format(position)], expected), \
                (name, argument, group)

    # no GROUP BY: one group; no rows: one group of nothing, or no group
    everything = _sql_rows(
        database, "SELECT COUNT(*) AS n, SUM(x) AS t, MAX(s) AS m FROM t")
    assert everything == [{
        "n": float(rows),
        "t": pytest.approx(reference_aggregate("SUM", held["x"]), rel=1e-12),
        "m": reference_aggregate("MAX", held["s"]),
    }]
    assert _sql_rows(
        database, "SELECT COUNT(*) AS n, COUNT(x) AS c, SUM(x) AS t, "
                  "MIN(s) AS m FROM t WHERE j > 1e300"
    ) == [{"n": 0.0, "c": 0.0, "t": None, "m": None}]
    assert _sql_rows(
        database, "SELECT k, COUNT(*) AS n, MIN(s) AS m FROM t "
                  "WHERE j > 1e300 GROUP BY k") == []
