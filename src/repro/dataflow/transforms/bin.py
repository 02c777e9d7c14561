"""Binning and extent transforms (the heart of the flights histogram)."""

import math

import numpy as np

from repro.data import Column, ColumnBatch, SQLType
from repro.data.grouping import Unvectorizable
from repro.dataflow.transforms.base import (
    Transform,
    TransformError,
    ValueTransform,
    register_transform,
)


def bin_params(extent, maxbins=20, step=None, nice=True, minstep=0.0):
    """Compute the bin step and (niced) start/stop, following
    vega-statistics ``bin()``.

    Returns ``(start, stop, step)``.  The SQL translation reuses this so
    client and server produce identical bucket boundaries.
    """
    lo, hi = float(extent[0]), float(extent[1])
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise TransformError("bin extent must be finite")
    if lo == hi:
        hi = lo + 1.0
    span = hi - lo
    if step is not None:
        step = float(step)
        if step <= 0:
            raise TransformError("bin step must be positive")
    else:
        # Choose a nice step of the form {1, 2, 5} * 10^k.
        raw = span / max(int(maxbins), 1)
        raw = max(raw, minstep)
        power = math.floor(math.log10(raw)) if raw > 0 else 0
        step = 10.0 ** power
        for multiple in (1.0, 2.0, 5.0, 10.0):
            candidate = multiple * 10.0 ** power
            if span / candidate <= maxbins:
                step = candidate
                break
    if nice:
        start = math.floor(lo / step) * step
        stop = math.ceil(hi / step) * step
    else:
        start, stop = lo, hi
    return start, stop, step


def bin_index(value, start, step):
    """Bucket start for ``value`` (the bin0 boundary)."""
    return start + math.floor((value - start) / step) * step


@register_transform("extent")
class ExtentTransform(ValueTransform):
    """Compute [min, max] of a field as an operator value (Vega `extent`).

    Downstream bin transforms reference it via an operator/signal param.
    """

    def compute_value(self, rows, params, signals):
        field = params.get("field")
        if not field:
            raise TransformError("extent requires 'field'")
        lo = math.inf
        hi = -math.inf
        for row in rows:
            value = row.get(field)
            if value is None or isinstance(value, str):
                continue
            if isinstance(value, float) and math.isnan(value):
                continue
            value = float(value)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        if lo > hi:
            return [None, None]
        return [lo, hi]

    def compute_value_batch(self, batch, params, signals):
        field = params.get("field")
        if not field:
            raise TransformError("extent requires 'field'")
        column = batch.columns.get(field)
        if column is None or column.type is SQLType.VARCHAR:
            return [None, None]
        # min/max are associative, so a chunked (or disk-backed) column
        # reduces chunk by chunk without ever consolidating.
        lo = math.inf
        hi = -math.inf
        for start, stop, piece in column.iter_chunks():
            values = piece.data[piece.valid]
            if column.type is SQLType.BOOLEAN:
                values = values.astype(np.float64)
            else:
                values = values[~np.isnan(values)]
            if values.size:
                lo = min(lo, float(values.min()))
                hi = max(hi, float(values.max()))
            column.release(start, stop)
        if lo > hi:
            return [None, None]
        return [lo, hi]


@register_transform("bin")
class BinTransform(Transform):
    """Assign bin boundaries bin0/bin1 per row (Vega `bin`)."""

    # row-local once 'extent' is a resolved parameter value
    streaming = True

    def transform(self, rows, params, signals):
        field = params.get("field")
        if not field:
            raise TransformError("bin requires 'field'")
        extent = params.get("extent")
        if extent is None:
            raise TransformError("bin requires an 'extent' parameter")
        as_fields = params.get("as", ["bin0", "bin1"])
        if extent[0] is None:
            # A [None, None] extent means the upstream data had no numeric
            # values (e.g. an empty dataset): every row gets null bins.
            bin0_name, bin1_name = as_fields
            out = []
            for row in rows:
                derived = dict(row)
                derived[bin0_name] = None
                derived[bin1_name] = None
                out.append(derived)
            return out
        start, stop, step = bin_params(
            extent,
            maxbins=params.get("maxbins", 20),
            step=params.get("step"),
            nice=params.get("nice", True),
            minstep=params.get("minstep", 0.0),
        )
        bin0_name, bin1_name = as_fields
        out = []
        for row in rows:
            value = row.get(field)
            derived = dict(row)
            if value is None or isinstance(value, str) or (
                isinstance(value, float) and math.isnan(value)
            ):
                derived[bin0_name] = None
                derived[bin1_name] = None
            else:
                bin0 = bin_index(float(value), start, step)
                # Clamp the top edge: values == stop land in the last bin.
                if bin0 >= stop:
                    bin0 = stop - step
                derived[bin0_name] = bin0
                derived[bin1_name] = bin0 + step
            out.append(derived)
        return out

    def transform_batch(self, batch, params, signals):
        field = params.get("field")
        if not field:
            raise TransformError("bin requires 'field'")
        extent = params.get("extent")
        if extent is None:
            raise TransformError("bin requires an 'extent' parameter")
        as_fields = params.get("as", ["bin0", "bin1"])
        bin0_name, bin1_name = as_fields
        count = batch.num_rows
        out = ColumnBatch(batch.columns)
        if not out.columns:
            out._num_rows = count
        if extent[0] is None:
            out.set_column(bin0_name, Column.nulls(SQLType.DOUBLE, count))
            out.set_column(bin1_name, Column.nulls(SQLType.DOUBLE, count))
            return out
        start, stop, step = bin_params(
            extent,
            maxbins=params.get("maxbins", 20),
            step=params.get("step"),
            nice=params.get("nice", True),
            minstep=params.get("minstep", 0.0),
        )
        column = batch.columns.get(field)
        if column is None or column.type is SQLType.VARCHAR:
            # every value is missing or a string: all bins are null
            view = np.full(count, np.nan)
        elif column.type is SQLType.BOOLEAN:
            view = np.where(column.valid,
                            column.data.astype(np.float64), np.nan)
        else:
            view = np.where(column.valid, column.data, np.nan)
        if np.isinf(view).any():
            # math.floor(inf) raises in the row path
            raise Unvectorizable("infinite bin input")
        with np.errstate(invalid="ignore"):
            # identical IEEE double arithmetic to bin_index()
            bin0 = start + np.floor((view - start) / step) * step
            # Clamp the top edge: values == stop land in the last bin.
            bin0 = np.where(bin0 >= stop, stop - step, bin0)
        missing = np.isnan(bin0)
        valid = ~missing
        out.set_column(bin0_name, Column(
            SQLType.DOUBLE, np.where(missing, 0.0, bin0), valid))
        out.set_column(bin1_name, Column(
            SQLType.DOUBLE, np.where(missing, 0.0, bin0 + step), valid))
        return out
