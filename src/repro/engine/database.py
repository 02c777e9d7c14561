"""The embedded database facade.

``Database`` ties the engine together: parse -> bind -> optimize ->
execute.  It is the "DuckDB stand-in" of this reproduction — an embedded
analytical SQL engine the VegaPlus middleware can offload work to.
"""

import threading

from repro.data import Column, SQLType, Table
from repro.engine.binder import bind
from repro.engine.catalog import Catalog
from repro.engine.errors import EngineError
from repro.engine.executor import (
    MorselExecutor,
    annotate_stats,
    stats_preorder,
)
from repro.engine.logical import format_plan
from repro.engine.optimizer import optimize
from repro.engine.parser import parse_statement


class Database:
    """An in-process columnar SQL database.

    Example::

        db = Database()
        db.load_table("t", Table.from_columns(x=[1.0, 2.0, 3.0]))
        result = db.execute("SELECT SUM(x) AS total FROM t")
        result.to_rows()  # [{'total': 6.0}]

    ``enable_pushdown`` / ``enable_pruning`` switch the logical optimizer
    rules on and off; benchmarks use them for ablations.

    ``parallelism`` is the number of worker threads that share a
    query's morsel tasks (:mod:`repro.engine.executor`); the default, 1,
    runs them inline on the calling thread.  ``morsel_rows`` is the
    rows-per-morsel split (default 65536).  Neither changes an answer.
    """

    def __init__(self, enable_pushdown=True, enable_pruning=True,
                 parallelism=None, morsel_rows=None):
        self.catalog = Catalog()
        self.enable_pushdown = enable_pushdown
        self.enable_pruning = enable_pruning
        self._executor = MorselExecutor(
            1 if parallelism is None else parallelism, morsel_rows
        )
        self.parallelism = self._executor.workers
        self.morsel_rows = self._executor.morsel_rows
        self.queries_executed = 0
        # Queries may arrive from several client threads at once (the
        # executor keeps per-call state, so execution itself is
        # reentrant); the counter needs its own lock to stay exact.
        self._counter_lock = threading.Lock()

    def _count_query(self):
        with self._counter_lock:
            self.queries_executed += 1

    # -- data management -----------------------------------------------------

    def load_table(self, name, table, replace=True):
        """Register a Table (or list of row dicts) under ``name``."""
        if not isinstance(table, Table):
            table = Table.from_rows(table)
        self.catalog.create(name, table, replace=replace)

    def table(self, name):
        return self.catalog.get(name)

    def table_names(self):
        return self.catalog.names()

    def stats(self, name):
        return self.catalog.stats(name)

    # -- SQL entry points ------------------------------------------------------

    def execute(self, sql):
        """Execute one SQL statement.

        SELECT returns a Table; DDL/DML return None (or the inserted row
        count for INSERT).
        """
        statement = parse_statement(sql)
        kind = statement[0]
        if kind == "select":
            return self._run_select(statement[1])
        if kind == "explain":
            return self.explain_select(statement[1])
        if kind == "create":
            _, name, columns = statement
            table = Table()
            for column_name, type_name in columns:
                table.add_column(
                    column_name,
                    Column.from_values([], SQLType.from_name(type_name)),
                )
            self.catalog.create(name, table)
            return None
        if kind == "insert":
            return self._run_insert(statement)
        if kind == "drop":
            self.catalog.drop(statement[1])
            return None
        raise EngineError("unsupported statement kind {!r}".format(kind))

    def plan(self, sql):
        """Return the optimized logical plan for a SELECT."""
        statement = parse_statement(sql)
        if statement[0] not in ("select", "explain"):
            raise EngineError("plan() requires a SELECT")
        plan = bind(statement[1], self.catalog)
        return optimize(
            plan,
            self.catalog,
            enable_pushdown=self.enable_pushdown,
            enable_pruning=self.enable_pruning,
        )

    def explain(self, sql):
        """EXPLAIN text for a SELECT statement."""
        return format_plan(self.plan(sql))

    def explain_analyze(self, sql):
        """Execute a SELECT and return the plan annotated with measured
        per-node rows-in/rows-out and (inclusive) times."""
        plan = self.plan(sql)
        _, annotated = self._analyze(plan)
        return format_plan(plan, stats=annotated)

    def explain_analyze_data(self, sql):
        """Structured EXPLAIN ANALYZE: executes a SELECT and returns
        ``(table, nodes)`` where nodes is a pre-order list of per-plan-
        node dicts (label, depth, parent, rows_in, rows_out, seconds,
        self_seconds — plus a ``morsels`` log on nodes the executor
        split).  The table is the actual query result, so
        callers can correlate node cardinalities with what was
        returned."""
        plan = self.plan(sql)
        table, annotated = self._analyze(plan)
        return table, stats_preorder(plan, annotated)

    def _analyze(self, plan):
        """Execute ``plan`` with per-node stats; returns
        ``(table, annotated)``."""
        self._count_query()
        table, stats, morsels, fallbacks = self._executor.execute_with_stats(
            plan, self.catalog
        )
        annotated = annotate_stats(plan, stats, self.catalog)
        for node_id, records in morsels.items():
            if node_id in annotated:
                annotated[node_id]["morsels"] = records
        for node_id, reason in fallbacks.items():
            if node_id in annotated:
                annotated[node_id]["fallback"] = reason
        return table, annotated

    def explain_select(self, select):
        plan = bind(select, self.catalog)
        plan = optimize(
            plan,
            self.catalog,
            enable_pushdown=self.enable_pushdown,
            enable_pruning=self.enable_pruning,
        )
        return format_plan(plan)

    # -- internals -----------------------------------------------------------------

    def _run_select(self, select):
        plan = bind(select, self.catalog)
        plan = optimize(
            plan,
            self.catalog,
            enable_pushdown=self.enable_pushdown,
            enable_pruning=self.enable_pruning,
        )
        self._count_query()
        return self._executor.execute(plan, self.catalog)

    def _run_insert(self, statement):
        _, name, column_names, rows = statement
        existing = self.catalog.get(name)
        if column_names is None:
            column_names = existing.column_names
        incoming = Table.from_rows(
            [dict(zip(column_names, row)) for row in rows],
            column_order=existing.column_names,
        )
        merged = Table()
        import numpy as np

        for col_name, column in existing.columns.items():
            new_column = incoming.column(col_name)
            if existing.num_rows == 0:
                merged.add_column(col_name, new_column)
            else:
                if new_column.type is not column.type:
                    raise EngineError(
                        "type mismatch inserting into {!r}.{}".format(
                            name, col_name
                        )
                    )
                merged.add_column(
                    col_name,
                    Column(
                        column.type,
                        np.concatenate([column.data, new_column.data]),
                        np.concatenate([column.valid, new_column.valid]),
                    ),
                )
        self.catalog.create(name, merged, replace=True)
        return len(rows)
