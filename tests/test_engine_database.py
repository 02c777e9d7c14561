"""Tests for the Database facade: statement routing, stats, guards."""

import pytest

from repro.engine import (
    CatalogError,
    Column,
    Database,
    EngineError,
    SQLSyntaxError,
    Table,
)


@pytest.fixture
def db():
    database = Database()
    database.load_table(
        "t", Table.from_columns(x=[1.0, 2.0, None], k=["a", "b", "a"])
    )
    return database


class TestStatementRouting:
    def test_select_returns_table(self, db):
        result = db.execute("SELECT x FROM t")
        assert result.num_rows == 3

    def test_insert_returns_count(self, db):
        assert db.execute("INSERT INTO t (x, k) VALUES (9, 'z')") == 1
        assert db.table("t").num_rows == 4

    def test_drop_removes(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.table("t")

    def test_create_duplicate_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a DOUBLE)")

    def test_insert_type_mismatch_rejected(self, db):
        with pytest.raises(EngineError):
            db.execute("INSERT INTO t (x, k) VALUES ('text', 'z')")

    def test_syntax_error_carries_position(self, db):
        with pytest.raises(SQLSyntaxError) as excinfo:
            db.execute("SELECT x FROM t WHERE @")
        assert "position" in str(excinfo.value)

    def test_plan_requires_select(self, db):
        with pytest.raises(EngineError):
            db.plan("DROP TABLE t")

    def test_queries_executed_counter(self, db):
        before = db.queries_executed
        db.execute("SELECT x FROM t")
        db.execute("SELECT k FROM t")
        assert db.queries_executed == before + 2

    def test_trailing_semicolon_accepted(self, db):
        assert db.execute("SELECT x FROM t;").num_rows == 3


class TestStatistics:
    def test_stats_computed(self, db):
        stats = db.stats("t")
        assert stats.row_count == 3
        assert stats.columns["x"].null_count == 1
        assert stats.columns["k"].distinct_estimate == 2
        assert stats.columns["x"].min_value == 1.0
        assert stats.columns["x"].max_value == 2.0

    def test_stats_cached(self, db):
        first = db.stats("t")
        assert db.stats("t") is first

    def test_reload_invalidates_stats(self, db):
        db.stats("t")
        db.load_table("t", Table.from_columns(x=[5.0], k=["z"]))
        assert db.stats("t").row_count == 1

    def test_row_width(self, db):
        width = db.stats("t").row_width()
        assert width > 8.0  # a number column plus a text column

    def test_varchar_avg_width(self, db):
        db.load_table(
            "s", Table.from_columns(name=["ab", "abcd"])
        )
        assert db.stats("s").columns["name"].avg_width == 3.0


class TestIncrementalStatistics:
    """``append_stats`` must return what a rescan of the merged table
    returns, field by field, whichever branch a column takes: coded
    (dictionary use), plain under the distinct sample (re-estimated),
    plain over it (the kept sample count rescaled)."""

    @staticmethod
    def batch(rng, rows, words):
        def nullable(values):
            return [None if rng.random() < 0.15 else v for v in values]

        return Table.from_columns(
            x=nullable(rng.normal(0.0, 50.0, rows).round(1).tolist()),
            n=nullable(rng.integers(0, 7, rows).astype(float).tolist()),
            s=nullable([str(w) for w in rng.choice(words, rows)]),
            u=["u{}".format(rng.integers(0, 10 ** 9)) for _ in range(rows)],
            b=nullable([bool(v) for v in rng.integers(0, 2, rows)]),
            z=[None] * rows,
        )

    @pytest.mark.parametrize("sample", [30, 100_000])
    @pytest.mark.parametrize("coded", [True, False])
    def test_append_matches_rescan(self, monkeypatch, coded, sample):
        import numpy as np

        from repro.engine import append_stats, catalog, compute_stats
        from repro.data import concat_tables

        monkeypatch.setattr(catalog, "_DISTINCT_SAMPLE", sample)
        rng = np.random.default_rng(5)
        merged = self.batch(rng, 20, ["a", "bb", "ccc"])
        if coded:
            Database().load_table("t", merged)
            assert merged.column("s").codes is not None
            assert merged.column("u").codes is None  # all distinct
        stats = compute_stats(merged)
        for step, rows in enumerate([1, 25, 40, 3]):
            incoming = self.batch(rng, rows, ["bb", "dddd", "", "é" * step])
            merged = concat_tables([merged, incoming])
            stats = append_stats(stats, merged, incoming)
            assert stats == compute_stats(merged)
            assert (merged.column("s").codes is not None) == coded

    def test_first_values_after_an_all_null_history(self):
        from repro.engine import append_stats, compute_stats
        from repro.data import concat_tables

        old = Table.from_columns(x=[None, None], s=[None, None])
        new = Table.from_columns(x=[3.0, -1.0], s=["ab", None])
        merged = concat_tables([old, new])
        stats = append_stats(compute_stats(old), merged, new)
        assert stats == compute_stats(merged)
        assert stats.columns["x"].min_value == -1.0
        assert stats.columns["s"].avg_width == 2.0

    def test_one_pass_scan_equals_the_row_loop(self):
        """The definitions, spelled out row by row."""
        import numpy as np

        from repro.engine import compute_stats

        table = self.batch(np.random.default_rng(9), 200, ["a", "bb", ""])
        plain = compute_stats(table)
        Database().load_table("t", table)
        assert table.column("s").codes is not None
        # coding changes no estimate (only: a coded column keeps no sample)
        coded = compute_stats(table)
        # nor does spilling: dictionary chunks flatten to the same coding
        column = table.column("s")
        spilled = Column.from_chunks(column.type, [
            column.slice(lo, hi).storage_chunks()[0]
            for lo, hi in ((0, 90), (90, 200))])
        assert compute_stats(Table({"s": spilled})).columns["s"] \
            == coded.columns["s"]
        coded.columns["s"].sample_distinct = 3
        assert coded == plain
        for name, stats in plain.columns.items():
            values = [v for v in table.column(name).to_list()
                      if v is not None]
            assert stats.null_count == 200 - len(values)
            assert stats.distinct_estimate == len(set(values))
            if name in ("x", "n"):
                assert (stats.min_value, stats.max_value) == (
                    min(values), max(values))
            if name in ("s", "u"):
                assert stats.avg_width == \
                    sum(len(v) for v in values) / len(values)


class TestOptimizerFlags:
    def test_flags_stored(self):
        database = Database(enable_pushdown=False, enable_pruning=False)
        assert database.enable_pushdown is False
        assert database.enable_pruning is False

    def test_disabled_flags_still_correct(self, db):
        plain = db.execute(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"
        ).to_rows()
        weak = Database(enable_pushdown=False, enable_pruning=False)
        weak.load_table("t", db.table("t"))
        assert weak.execute(
            "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"
        ).to_rows() == plain
