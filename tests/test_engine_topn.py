"""Tests for the top-N (ORDER BY + LIMIT) partial-sort fast path."""

import numpy as np
import pytest

from repro.engine import Database, Table
from repro.engine.binder import bind
from repro.engine.logical import Limit, Sort, walk_plan
from repro.engine.optimizer import optimize
from repro.engine.parser import parse_select


@pytest.fixture
def db():
    rng = np.random.default_rng(3)
    database = Database()
    database.load_table(
        "t",
        Table.from_columns(
            x=list(rng.normal(size=500)) + [None] * 5,
            k=[("key%d" % (i % 50)) for i in range(505)],
        ),
    )
    return database


class TestAnnotation:
    def test_limit_over_sort_annotated(self, db):
        plan = bind(parse_select("SELECT x FROM t ORDER BY x LIMIT 10"),
                    db.catalog)
        plan = optimize(plan, db.catalog)
        sort = next(n for n in walk_plan(plan) if isinstance(n, Sort))
        assert sort.limit_hint == 10

    def test_offset_included_in_hint(self, db):
        plan = bind(
            parse_select("SELECT x FROM t ORDER BY x LIMIT 10 OFFSET 5"),
            db.catalog,
        )
        plan = optimize(plan, db.catalog)
        sort = next(n for n in walk_plan(plan) if isinstance(n, Sort))
        assert sort.limit_hint == 15

    def test_sort_without_limit_not_annotated(self, db):
        plan = bind(parse_select("SELECT x FROM t ORDER BY x"), db.catalog)
        plan = optimize(plan, db.catalog)
        sort = next(n for n in walk_plan(plan) if isinstance(n, Sort))
        assert sort.limit_hint is None


class TestCorrectness:
    def full_sort(self, db, sql_order, limit):
        full = db.execute(
            "SELECT x FROM t ORDER BY x {}".format(sql_order)
        ).to_rows()
        return full[:limit]

    @pytest.mark.parametrize("order", ["ASC", "DESC"])
    def test_topn_matches_full_sort(self, db, order):
        top = db.execute(
            "SELECT x FROM t ORDER BY x {} LIMIT 20".format(order)
        ).to_rows()
        assert top == self.full_sort(db, order, 20)

    def test_topn_with_offset(self, db):
        top = db.execute(
            "SELECT x FROM t ORDER BY x ASC LIMIT 10 OFFSET 7"
        ).to_rows()
        assert top == self.full_sort(db, "ASC", 17)[7:]

    def test_topn_varchar_key(self, db):
        top = db.execute(
            "SELECT k FROM t ORDER BY k ASC LIMIT 15"
        ).to_rows()
        full = db.execute("SELECT k FROM t ORDER BY k ASC").to_rows()
        assert top == full[:15]

    def test_nulls_respected_desc(self, db):
        # DESC: NULLs are largest, so they lead the top-N.
        top = db.execute(
            "SELECT x FROM t ORDER BY x DESC LIMIT 8"
        ).to_rows()
        assert [row["x"] for row in top[:5]] == [None] * 5

    def test_nulls_last_asc(self, db):
        top = db.execute(
            "SELECT x FROM t ORDER BY x ASC LIMIT 20"
        ).to_rows()
        assert all(row["x"] is not None for row in top)

    def test_multi_key_falls_back(self, db):
        # Multi-key sorts skip the fast path but stay correct.
        top = db.execute(
            "SELECT k, x FROM t ORDER BY k ASC, x DESC LIMIT 10"
        ).to_rows()
        full = db.execute(
            "SELECT k, x FROM t ORDER BY k ASC, x DESC"
        ).to_rows()
        assert top == full[:10]

    def test_limit_larger_than_table(self, db):
        rows = db.execute(
            "SELECT x FROM t ORDER BY x LIMIT 10000"
        ).to_rows()
        assert len(rows) == 505


class TestStablePrefix:
    """``ORDER BY k [DESC] [NULLS FIRST|LAST] LIMIT n [OFFSET m]`` is the
    ``[m, m+n)`` slice of the *stable* full sort — on the selection side
    (``n + m`` under a quarter of the rows), on the truncated-full-sort
    side, and on inputs below and above one morsel — checked against a
    pure-Python stable sort, row identities included."""

    MORSEL = 50

    @staticmethod
    def keys(kind, num_rows):
        """Five distinct values (ties straddle every boundary), NULLs,
        and for doubles NaN (folds to NULL at load)."""
        rng = np.random.default_rng(num_rows)
        draws = rng.integers(0, 7, num_rows)
        if kind == "varchar":
            return [None if d == 5 else "k%d" % d for d in draws]
        return [None if d == 5 else float("nan") if d == 6
                else float(d) - 2.0 for d in draws]

    @staticmethod
    def stable_order(values, descending, nulls_first):
        if nulls_first is None:
            nulls_first = descending  # Postgres: NULLs sort largest
        rows = range(len(values))
        missing = [row for row in rows
                   if values[row] is None or values[row] != values[row]]
        present = sorted(set(rows) - set(missing))
        # list.sort is stable, also under reverse=True
        present.sort(key=lambda row: values[row], reverse=descending)
        return missing + present if nulls_first else present + missing

    @pytest.mark.parametrize("kind", ["double", "varchar"])
    @pytest.mark.parametrize("num_rows", [40, 230])
    @pytest.mark.parametrize("side", ["selection", "full"])
    def test_limit_is_a_slice_of_the_stable_sort(self, kind, num_rows, side):
        values = self.keys(kind, num_rows)
        database = Database(morsel_rows=self.MORSEL)
        database.load_table("t", Table.from_columns(
            i=[float(row) for row in range(num_rows)], k=values))
        limit = num_rows // 8 if side == "selection" else num_rows // 3
        for descending in (False, True):
            for nulls_first in (None, True, False):
                expect = self.stable_order(values, descending, nulls_first)
                for offset in (0, 3):
                    sql = 'SELECT "i" FROM "t" ORDER BY "k"{}{} LIMIT {}{}'
                    sql = sql.format(
                        " DESC" if descending else "",
                        "" if nulls_first is None else
                        " NULLS FIRST" if nulls_first else " NULLS LAST",
                        limit,
                        " OFFSET {}".format(offset) if offset else "",
                    )
                    got = [int(row["i"])
                           for row in database.execute(sql).to_rows()]
                    assert got == expect[offset:offset + limit], sql
