"""Compatibility shim: columnar storage now lives in :mod:`repro.data`.

The engine historically owned ``Table``/``Column``; the classes moved to
the layer-neutral ``repro.data`` package so the middleware and client
dataflow can share them without importing the engine.  Everything the
engine (and existing tests) imported from here keeps working.
"""

from repro.data.batch import (
    Column,
    ColumnBatch,
    Table,
    concat_batches,
    concat_columns,
    concat_tables,
)

__all__ = [
    "Column",
    "ColumnBatch",
    "Table",
    "concat_batches",
    "concat_columns",
    "concat_tables",
]
