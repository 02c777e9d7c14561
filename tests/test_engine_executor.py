"""Execution tests: SELECT semantics end-to-end through the Database."""

import numpy as np
import pytest

from repro.engine import Database, ExecutionError, PlanError, Table


@pytest.fixture
def db():
    database = Database()
    database.load_table(
        "sales",
        Table.from_columns(
            region=["east", "west", "east", "west", "east", None],
            amount=[10.0, 20.0, 30.0, None, 50.0, 60.0],
            qty=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            product=["apple", "banana", "apple", "cherry", "banana", "apple"],
        ),
    )
    database.load_table(
        "regions",
        Table.from_columns(
            region=["east", "west"],
            manager=["Ann", "Bob"],
        ),
    )
    return database


def rows(db, sql):
    return db.execute(sql).to_rows()


class TestProjection:
    def test_star(self, db):
        result = db.execute("SELECT * FROM sales")
        assert result.num_rows == 6
        assert result.column_names == ["region", "amount", "qty", "product"]

    def test_expressions(self, db):
        result = rows(db, "SELECT amount * qty AS total FROM sales LIMIT 1")
        assert result == [{"total": 10.0}]

    def test_null_propagation_in_arithmetic(self, db):
        result = rows(db, "SELECT amount + 1 AS a FROM sales WHERE qty = 4")
        assert result == [{"a": None}]

    def test_string_concat(self, db):
        result = rows(
            db, "SELECT region || '-' || product AS tag FROM sales LIMIT 1"
        )
        assert result == [{"tag": "east-apple"}]

    def test_duplicate_aliases_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT amount AS a, qty AS a FROM sales")


class TestWhere:
    def test_comparison(self, db):
        assert len(rows(db, "SELECT * FROM sales WHERE amount > 15")) == 4

    def test_null_comparison_filters_out(self, db):
        # NULL > 15 is unknown -> excluded.
        result = rows(db, "SELECT qty FROM sales WHERE amount > 15 OR amount <= 15")
        assert len(result) == 5  # the NULL-amount row never qualifies

    def test_is_null(self, db):
        assert rows(db, "SELECT qty FROM sales WHERE amount IS NULL") == [
            {"qty": 4.0}
        ]

    def test_in_list(self, db):
        result = rows(
            db, "SELECT DISTINCT product FROM sales "
            "WHERE product IN ('apple', 'cherry') ORDER BY product"
        )
        assert [r["product"] for r in result] == ["apple", "cherry"]

    def test_not_in(self, db):
        result = rows(
            db,
            "SELECT DISTINCT product FROM sales "
            "WHERE product NOT IN ('apple') ORDER BY product",
        )
        assert [r["product"] for r in result] == ["banana", "cherry"]

    def test_between(self, db):
        assert len(rows(db, "SELECT * FROM sales WHERE qty BETWEEN 2 AND 4")) == 3

    def test_like(self, db):
        result = rows(db, "SELECT DISTINCT product FROM sales WHERE product LIKE 'a%'")
        assert result == [{"product": "apple"}]

    def test_regexp(self, db):
        result = rows(
            db, "SELECT DISTINCT product FROM sales WHERE product REGEXP 'an'"
        )
        assert result == [{"product": "banana"}]

    def test_kleene_and_with_null(self, db):
        # (NULL > 0) AND FALSE must be FALSE, not NULL: row excluded either way,
        # but (NULL > 0) OR TRUE must be TRUE: row included.
        result = rows(db, "SELECT qty FROM sales WHERE amount > 0 OR qty > 0")
        assert len(result) == 6


class TestAggregation:
    def test_global_aggregates(self, db):
        result = rows(
            db,
            "SELECT COUNT(*) AS n, COUNT(amount) AS valid, SUM(amount) AS s, "
            "AVG(amount) AS m, MIN(amount) AS lo, MAX(amount) AS hi FROM sales",
        )
        assert result == [
            {"n": 6.0, "valid": 5.0, "s": 170.0, "m": 34.0, "lo": 10.0, "hi": 60.0}
        ]

    def test_group_by(self, db):
        result = rows(
            db,
            "SELECT region, SUM(amount) AS s FROM sales "
            "GROUP BY region ORDER BY region NULLS LAST",
        )
        assert result == [
            {"region": "east", "s": 90.0},
            {"region": "west", "s": 20.0},
            {"region": None, "s": 60.0},
        ]

    def test_group_by_expression(self, db):
        result = rows(
            db,
            "SELECT FLOOR(qty / 2) AS bucket, COUNT(*) AS n FROM sales "
            "GROUP BY FLOOR(qty / 2) ORDER BY bucket",
        )
        assert [r["bucket"] for r in result] == [0.0, 1.0, 2.0, 3.0]

    def test_having(self, db):
        result = rows(
            db,
            "SELECT product, COUNT(*) AS n FROM sales GROUP BY product "
            "HAVING COUNT(*) > 1 ORDER BY product",
        )
        assert [r["product"] for r in result] == ["apple", "banana"]

    def test_count_distinct(self, db):
        result = rows(db, "SELECT COUNT(DISTINCT product) AS d FROM sales")
        assert result == [{"d": 3.0}]

    def test_statistics(self, db):
        result = rows(
            db, "SELECT MEDIAN(qty) AS md, STDDEV(qty) AS sd, VARIANCE(qty) AS v "
            "FROM sales"
        )
        assert result[0]["md"] == 3.5
        assert abs(result[0]["v"] - 3.5) < 1e-9

    def test_quantile(self, db):
        result = rows(db, "SELECT QUANTILE(qty, 0.5) AS q FROM sales")
        assert result == [{"q": 3.5}]

    def test_sum_of_empty_group_is_null(self, db):
        result = rows(db, "SELECT SUM(amount) AS s FROM sales WHERE qty > 100")
        assert result == [{"s": None}]

    def test_count_of_empty_is_zero(self, db):
        result = rows(db, "SELECT COUNT(*) AS n FROM sales WHERE qty > 100")
        assert result == [{"n": 0.0}]

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT region FROM sales WHERE SUM(amount) > 10")

    def test_min_max_varchar(self, db):
        result = rows(db, "SELECT MIN(product) AS lo, MAX(product) AS hi FROM sales")
        assert result == [{"lo": "apple", "hi": "cherry"}]

    def test_aggregate_expression_arithmetic(self, db):
        result = rows(
            db, "SELECT SUM(amount) / COUNT(amount) AS mean FROM sales"
        )
        assert result == [{"mean": 34.0}]

    def test_wide_group_keys_do_not_wrap_around_int64(self):
        """Four key columns of 70 000 distinct values each: the
        mixed-radix group code needs 65 bits.  Unguarded, rows
        (0, 0, 21292, 8384) and (53780, 41648, 0, 0) get one group id,
        because 53780 C^3 + 41648 C^2 - 21292 C - 8384 = 0 mod 2^64 for
        C = 70000."""
        table = wraparound_table()
        database = Database()
        database.load_table("t", table)
        result = database.execute(
            "SELECT a, b, c, d, COUNT(*) AS n FROM t GROUP BY a, b, c, d"
        )
        assert result.num_rows == table.num_rows
        assert set(result.column("n").data.tolist()) == {1.0}
        keys = set(zip(*[result.column(k).data.tolist() for k in "abcd"]))
        assert {(0.0, 0.0, 21292.0, 8384.0),
                (53780.0, 41648.0, 0.0, 0.0)} <= keys


def wraparound_table(size=70000):
    """``size`` rows with pairwise distinct keys, every column a
    permutation of ``0..size-1``, holding the two colliding rows."""
    columns = [np.arange(size, dtype=np.float64) for _ in range(4)]

    def place(column, row, value):
        other = int(np.flatnonzero(column == value)[0])
        column[row], column[other] = column[other], column[row]

    for row, key in ((0, (0, 0, 21292, 8384)),
                     (53780, (53780, 41648, 0, 0))):
        for column, value in zip(columns, key):
            place(column, row, float(value))
    return Table.from_columns(**{
        name: column.tolist() for name, column in zip("abcd", columns)
    })


class TestWindow:
    def test_row_number(self, db):
        result = rows(
            db,
            "SELECT qty, ROW_NUMBER() OVER (ORDER BY qty DESC) AS rn "
            "FROM sales ORDER BY qty",
        )
        assert [r["rn"] for r in result] == [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]

    def test_partitioned_running_sum(self, db):
        result = rows(
            db,
            "SELECT product, qty, SUM(qty) OVER (PARTITION BY product "
            "ORDER BY qty ASC) AS run FROM sales ORDER BY product, qty",
        )
        apples = [r["run"] for r in result if r["product"] == "apple"]
        assert apples == [1.0, 4.0, 10.0]

    def test_full_partition_aggregate_without_order(self, db):
        result = rows(
            db,
            "SELECT product, SUM(qty) OVER (PARTITION BY product) AS total "
            "FROM sales ORDER BY product, qty",
        )
        assert [r["total"] for r in result if r["product"] == "banana"] == [7.0, 7.0]

    def test_window_over_group_by(self, db):
        result = rows(
            db,
            "SELECT product, SUM(SUM(qty)) OVER (ORDER BY product ASC) AS c "
            "FROM sales GROUP BY product ORDER BY product",
        )
        assert [r["c"] for r in result] == [10.0, 17.0, 21.0]

    def test_lag(self, db):
        result = rows(
            db,
            "SELECT qty, LAG(qty) OVER (ORDER BY qty ASC) AS prev "
            "FROM sales ORDER BY qty",
        )
        assert result[0]["prev"] is None
        assert result[1]["prev"] == 1.0

    def test_rank_with_ties(self, db):
        db.load_table("t", Table.from_columns(v=[10.0, 10.0, 20.0]))
        result = rows(
            db,
            "SELECT v, RANK() OVER (ORDER BY v ASC) AS r, "
            "DENSE_RANK() OVER (ORDER BY v ASC) AS d FROM t ORDER BY v, r",
        )
        assert [r["r"] for r in result] == [1.0, 1.0, 3.0]
        assert [r["d"] for r in result] == [1.0, 1.0, 2.0]


class TestJoin:
    def test_inner_join(self, db):
        result = rows(
            db,
            "SELECT sales.qty AS qty, regions.manager AS manager FROM sales "
            "JOIN regions ON sales.region = regions.region ORDER BY qty",
        )
        assert len(result) == 5  # NULL region row drops out
        assert result[0]["manager"] == "Ann"

    def test_left_join_pads_nulls(self, db):
        result = rows(
            db,
            "SELECT sales.qty AS qty, regions.manager AS manager FROM sales "
            "LEFT JOIN regions ON sales.region = regions.region ORDER BY qty",
        )
        assert len(result) == 6
        managers = {r["qty"]: r["manager"] for r in result}
        assert managers[6.0] is None

    def test_non_equi_join_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute(
                "SELECT * FROM sales JOIN regions ON sales.qty > regions.region"
            )


class TestOrderLimit:
    def test_order_desc_nulls_first(self, db):
        result = rows(db, "SELECT amount FROM sales ORDER BY amount DESC")
        assert result[0]["amount"] is None  # Postgres-style: nulls are largest

    def test_order_asc_nulls_last(self, db):
        result = rows(db, "SELECT amount FROM sales ORDER BY amount ASC")
        assert result[-1]["amount"] is None

    def test_nulls_override(self, db):
        result = rows(
            db, "SELECT amount FROM sales ORDER BY amount ASC NULLS FIRST"
        )
        assert result[0]["amount"] is None

    def test_multi_key(self, db):
        result = rows(
            db, "SELECT product, qty FROM sales ORDER BY product ASC, qty DESC"
        )
        assert result[0] == {"product": "apple", "qty": 6.0}

    def test_order_by_expression_not_in_select(self, db):
        result = rows(db, "SELECT product FROM sales ORDER BY qty * -1")
        assert result[0]["product"] == "apple"  # qty=6 first
        # Hidden sort column must not leak into output.
        assert list(result[0].keys()) == ["product"]

    def test_limit_offset(self, db):
        result = rows(db, "SELECT qty FROM sales ORDER BY qty LIMIT 2 OFFSET 1")
        assert [r["qty"] for r in result] == [2.0, 3.0]

    def test_order_by_alias(self, db):
        result = rows(
            db, "SELECT qty * 2 AS dq FROM sales ORDER BY dq DESC LIMIT 1"
        )
        assert result == [{"dq": 12.0}]


class TestSubqueries:
    def test_nested_pipeline(self, db):
        result = rows(
            db,
            "SELECT region, total FROM ("
            "  SELECT region, SUM(amount) AS total FROM sales GROUP BY region"
            ") AS s WHERE total > 30 ORDER BY total DESC",
        )
        assert result == [
            {"region": "east", "total": 90.0},
            {"region": None, "total": 60.0},
        ]

    def test_doubly_nested(self, db):
        result = rows(
            db,
            "SELECT MAX(total) AS top FROM ("
            "  SELECT region, total FROM ("
            "    SELECT region, SUM(amount) AS total FROM sales GROUP BY region"
            "  ) AS inner1 WHERE region IS NOT NULL"
            ") AS outer1",
        )
        assert result == [{"top": 90.0}]


class TestDdlDml:
    def test_create_insert_select(self):
        db = Database()
        db.execute("CREATE TABLE t (a DOUBLE, b VARCHAR)")
        inserted = db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert inserted == 2
        assert rows(db, "SELECT * FROM t ORDER BY a") == [
            {"a": 1.0, "b": "x"},
            {"a": 2.0, "b": None},
        ]

    def test_drop(self):
        db = Database()
        db.execute("CREATE TABLE t (a DOUBLE)")
        db.execute("DROP TABLE t")
        assert "t" not in db.table_names()

    def test_explain_statement(self, db):
        text = db.execute("EXPLAIN SELECT region FROM sales WHERE qty > 1")
        assert "Filter" in text
        assert "Scan sales" in text


class TestFunctions:
    def test_scalar_functions(self, db):
        result = rows(
            db,
            "SELECT ABS(-1 * qty) AS a, POWER(qty, 2) AS p, "
            "UPPER(product) AS u FROM sales WHERE qty = 2",
        )
        assert result == [{"a": 2.0, "p": 4.0, "u": "BANANA"}]

    def test_coalesce(self, db):
        result = rows(
            db, "SELECT COALESCE(amount, 0) AS a FROM sales WHERE qty = 4"
        )
        assert result == [{"a": 0.0}]

    def test_least_greatest(self, db):
        result = rows(
            db, "SELECT LEAST(qty, 3) AS lo, GREATEST(qty, 3) AS hi "
            "FROM sales WHERE qty = 5"
        )
        assert result == [{"lo": 3.0, "hi": 5.0}]

    def test_sqrt_negative_is_null(self, db):
        result = rows(db, "SELECT SQRT(0 - qty) AS s FROM sales WHERE qty = 1")
        assert result == [{"s": None}]

    def test_division_by_zero_is_null(self, db):
        result = rows(db, "SELECT qty / 0 AS d FROM sales WHERE qty = 1")
        assert result == [{"d": None}]

    def test_unknown_function(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT FROBNICATE(qty) FROM sales")

    def test_strpos(self, db):
        result = rows(
            db, "SELECT STRPOS(product, 'an') AS p FROM sales WHERE qty = 2"
        )
        assert result == [{"p": 2.0}]

    def test_cast(self, db):
        result = rows(
            db, "SELECT CAST(qty AS VARCHAR) AS s FROM sales WHERE qty = 1"
        )
        assert result == [{"s": "1"}]
