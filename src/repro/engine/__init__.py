"""Embedded columnar SQL engine (the reproduction's DBMS substrate)."""

from repro.data import Column, SQLType, Table, concat_tables
from repro.engine.catalog import (
    Catalog,
    ColumnStats,
    TableStats,
    append_stats,
    compute_stats,
)
from repro.engine.database import Database
from repro.engine.errors import (
    CatalogError,
    EngineError,
    ExecutionError,
    PlanError,
    SQLSyntaxError,
    TypeMismatchError,
)
from repro.engine.executor import MorselExecutor

__all__ = [
    "Catalog",
    "CatalogError",
    "Column",
    "ColumnStats",
    "Database",
    "EngineError",
    "ExecutionError",
    "MorselExecutor",
    "PlanError",
    "SQLSyntaxError",
    "SQLType",
    "Table",
    "TableStats",
    "TypeMismatchError",
    "append_stats",
    "compute_stats",
    "concat_tables",
]
