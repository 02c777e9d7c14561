"""Transform operator base class and registry.

Each Vega transform type registers itself here by its spec name
("filter", "bin", "aggregate", ...).  The spec compiler instantiates
transforms via :func:`create_transform`; the SQL generator looks up
translation capability per type in :mod:`repro.sqlgen.translate`.
"""

from repro.data import ColumnBatch, concat_batches
from repro.data.grouping import Unvectorizable
from repro.dataflow.operator import Operator
from repro.dataflow.pulse import Pulse


class TransformError(Exception):
    """Bad transform parameters or unsupported usage."""


_REGISTRY = {}


def register_transform(spec_type):
    """Class decorator: register a Transform under its Vega spec name."""

    def wrap(cls):
        cls.spec_type = spec_type
        _REGISTRY[spec_type] = cls
        return cls

    return wrap


def transform_types():
    return sorted(_REGISTRY)


def create_transform(spec_type, name, params, source):
    cls = _REGISTRY.get(spec_type)
    if cls is None:
        raise TransformError("unknown transform type {!r}".format(spec_type))
    return cls(name, params=params, source=source)


class Transform(Operator):
    """A data operator computing output rows from input rows.

    Subclasses implement ``transform(rows, params, signals) -> rows``.
    Rows must be treated as immutable: transforms that modify fields copy
    the affected dicts (matching Vega's derive-on-write tuples).
    """

    kind = "transform"
    spec_type = "?"
    #: when True and the incoming pulse carries a ColumnBatch, try the
    #: vectorized ``transform_batch`` first; an Unvectorizable raise
    #: falls back to the row path (set False — per instance or per
    #: class — to force row-at-a-time execution, e.g. for differential
    #: testing of the two paths)
    columnar = True
    #: when True the transform is row-local given its params (filter,
    #: formula, project, bin): a chunked input batch runs the vectorized
    #: kernel per chunk and the output preserves the chunk layout, so a
    #: disk-backed dataset streams through without consolidating
    streaming = False

    def run(self, pulse, params, signals):
        if self.columnar and pulse.batch is not None:
            try:
                batch = self._transform_batch_chunked(
                    pulse.batch, params, signals
                )
            except Unvectorizable:
                pass
            else:
                return Pulse(batch=batch, changed=True)
        rows = self.transform(pulse.rows, params, signals)
        return Pulse(rows=rows, changed=True)

    def _transform_batch_chunked(self, batch, params, signals):
        if not (self.streaming and batch.is_chunked):
            return self.transform_batch(batch, params, signals)
        pieces = []
        for lo, hi, piece in batch.iter_chunk_batches():
            pieces.append(self.transform_batch(piece, params, signals))
            for column in batch.columns.values():
                column.release(lo, hi)
        if not pieces:
            return self.transform_batch(batch.slice(0, 0), params, signals)
        return concat_batches(pieces, chunked=True)

    def transform(self, rows, params, signals):
        raise NotImplementedError

    def transform_batch(self, batch, params, signals):
        """Columnar counterpart of ``transform``; the default declines so
        only transforms with a vectorized implementation opt in."""
        raise Unvectorizable(type(self).__name__)


class ValueTransform(Transform):
    """A transform whose primary output is a value (e.g. extent).

    The rows pass through unchanged; ``compute_value`` fills
    ``pulse.value`` for parameter consumers.
    """

    def run(self, pulse, params, signals):
        if self.columnar and pulse.batch is not None:
            try:
                value = self.compute_value_batch(pulse.batch, params, signals)
            except Unvectorizable:
                pass
            else:
                return pulse.with_value(value)
        value = self.compute_value(pulse.rows, params, signals)
        return pulse.with_value(value)

    def compute_value(self, rows, params, signals):
        raise NotImplementedError

    def compute_value_batch(self, batch, params, signals):
        raise Unvectorizable(type(self).__name__)


class DataSource(Operator):
    """A root operator holding raw data (the Vega ``data`` source).

    Accepts either a list of row dicts or a :class:`ColumnBatch`; with a
    batch the data stays columnar until a consumer actually needs the
    row view (``.rows`` materializes it lazily, then caches it so
    repeated pulses share one materialization).
    """

    kind = "source"
    spec_type = "source"

    def __init__(self, name, rows=None):
        super().__init__(name, params={}, source=None)
        self._batch = None
        self._rows = []
        self.set_rows(rows)

    @property
    def rows(self):
        if self._rows is None:
            self._rows = self._batch.to_rows()
        return self._rows

    @property
    def batch(self):
        return self._batch

    def set_rows(self, rows):
        if isinstance(rows, ColumnBatch):
            self._batch = rows
            self._rows = None
        else:
            self._batch = None
            self._rows = list(rows or [])

    def run(self, pulse, params, signals):
        return Pulse(rows=self._rows, changed=True, batch=self._batch)
