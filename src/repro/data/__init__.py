"""Layer-neutral columnar data plane.

``repro.data`` owns the interchange format every layer shares: typed
:class:`Column` arrays grouped into a :class:`ColumnBatch`.  The engine,
backends, cache, network payload model, and the client dataflow all pass
batches across their boundaries; row dicts are a lazy *view* produced
only where an operator genuinely needs one.
"""

from repro.data.batch import (
    Column,
    ColumnBatch,
    Table,
    concat_batches,
    concat_columns,
    concat_tables,
)
from repro.data.chunked import (
    DEFAULT_CHUNK_ROWS,
    ArrayChunk,
    DictChunk,
    consolidation_count,
    resolve_chunk_rows,
)
from repro.data.store import ColumnWriter, MemmapBacking, SpillStore
from repro.data.types import SQLType, infer_type, python_value_type

__all__ = [
    "Column",
    "ColumnBatch",
    "Table",
    "concat_batches",
    "concat_columns",
    "concat_tables",
    "SQLType",
    "infer_type",
    "python_value_type",
    "DEFAULT_CHUNK_ROWS",
    "ArrayChunk",
    "DictChunk",
    "consolidation_count",
    "resolve_chunk_rows",
    "ColumnWriter",
    "MemmapBacking",
    "SpillStore",
]
