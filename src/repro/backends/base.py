"""Backend interface: the middleware's view of a DBMS.

The paper's middleware supports multiple DBMS back-ends (PostgreSQL,
OmniSciDB, DuckDB).  This reproduction keeps the same pluggable boundary:
everything above talks SQL text to a :class:`Backend` and receives engine
:class:`~repro.data.Table` results plus wall-clock timings.
"""

import abc
import time
from dataclasses import dataclass

from repro.data import Table


@dataclass
class QueryResult:
    """A backend response: the rows plus the measured server time."""

    table: Table
    seconds: float
    sql: str


class BackendError(Exception):
    """A backend failed to load data or execute a query."""


class Backend(abc.ABC):
    """Abstract DBMS adapter."""

    #: human-readable backend name ("embedded", "sqlite")
    name = "abstract"

    @abc.abstractmethod
    def load_table(self, name, table):
        """Register ``table`` (engine Table) under ``name``."""

    @abc.abstractmethod
    def execute(self, sql):
        """Run a SELECT; returns :class:`QueryResult`."""

    @abc.abstractmethod
    def table_names(self):
        """Names of loaded tables."""

    @abc.abstractmethod
    def row_count(self, name):
        """Row count of a loaded table."""

    def explain(self, sql):
        """Optional: backend plan text (default: unsupported note)."""
        return "(no EXPLAIN support in backend {!r})".format(self.name)

    def execute_with_node_stats(self, sql):
        """Run a SELECT and, when the backend supports it, also return
        per-plan-node EXPLAIN ANALYZE rows.

        Returns ``(QueryResult, nodes_or_None)`` where nodes is the
        pre-order list of dicts produced by the embedded engine's
        ``explain_analyze_data`` (label, depth, parent, rows_in,
        rows_out, seconds).  The default falls back to a plain execute
        with ``None`` stats, so tracing degrades gracefully on backends
        without plan instrumentation.
        """
        return self.execute(sql), None

    def table_schema(self, name):
        """Optional: ((column, SQLType), ...) of a loaded table, or None
        when the backend cannot report types."""
        return None

    def _timed(self, fn, sql):
        start = time.perf_counter()
        table = fn()
        elapsed = time.perf_counter() - start
        return QueryResult(table=table, seconds=elapsed, sql=sql)
