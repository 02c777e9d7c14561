"""The benchmark's own oracle: expected outputs in plain numpy.

Computed from the raw generated columns, never through ``repro.engine``,
``repro.dataflow`` or sqlite, so a bug shared by every execution path of
the program still shows as a mismatch.  A column is a ``(values, valid)``
pair of arrays; NULL is ``valid == False``.
"""

import math

import numpy as np

#: relative tolerance for float comparisons (sums accumulate in a
#: different order here than in any of the program's executors)
REL = 1e-9


# -- binning (vega-statistics bin(), nice=True) ------------------------------


def nice_bins(lo, hi, maxbins):
    """``(start, stop, step)`` with a step of {1, 2, 5} x 10^k."""
    lo, hi = float(lo), float(hi)
    if lo == hi:
        hi = lo + 1.0
    span = hi - lo
    power = math.floor(math.log10(span / maxbins))
    step = 10.0 ** (power + 1)
    for multiple in (1.0, 2.0, 5.0):
        if span / (multiple * 10.0 ** power) <= maxbins:
            step = multiple * 10.0 ** power
            break
    return math.floor(lo / step) * step, math.ceil(hi / step) * step, step


def bin_column(values, valid, lo, hi, maxbins):
    """``(bin0, step)``: bucket starts as floats, NaN where NULL; a value
    equal to the niced stop lands in the last bucket."""
    start, stop, step = nice_bins(lo, hi, maxbins)
    bin0 = start + np.floor((values - start) / step) * step
    bin0 = np.where(bin0 >= stop, stop - step, bin0)
    return np.where(valid, bin0, np.nan), step


def extent(values, valid):
    kept = values[valid]
    return float(kept.min()), float(kept.max())


# -- group-by ------------------------------------------------------------------


def _key(value):
    """Canonical group-key component: None for NULL/NaN, floats rounded
    to 12 significant digits so a last-bit difference in a bucket edge
    still names the same group."""
    if value is None:
        return None
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return None
        return float("{:.12g}".format(float(value)))
    if isinstance(value, (int, np.integer)):
        return float(value)
    return str(value)


def group_by(keys, measures):
    """``{key tuple: {name: value}}``.

    ``keys`` is a list of arrays (floats with NaN for NULL, or strings);
    ``measures`` a list of ``(name, op, values, valid)`` with op one of
    count / mean / max (``values`` is ignored for count).  NULLs form
    their own group and are skipped by mean and max.
    """
    rows = len(keys[0])
    if rows == 0:
        return {}
    combined = np.zeros(rows, dtype=np.int64)
    for array in keys:
        uniques, inverse = np.unique(array, return_inverse=True)
        combined = combined * len(uniques) + inverse
    groups, inverse = np.unique(combined, return_inverse=True)
    first = np.empty(len(groups), dtype=np.int64)
    first[inverse[::-1]] = np.arange(rows - 1, -1, -1)

    columns = {}
    for name, op, values, valid in measures:
        if op == "count":
            columns[name] = np.bincount(inverse, minlength=len(groups))
            continue
        seen = np.bincount(inverse, weights=valid, minlength=len(groups))
        if op == "mean":
            total = np.bincount(inverse, weights=np.where(valid, values, 0.0),
                                minlength=len(groups))
            with np.errstate(invalid="ignore", divide="ignore"):
                out = total / seen
        elif op == "max":
            out = np.full(len(groups), -np.inf)
            np.maximum.at(out, inverse[valid], values[valid])
        else:
            raise ValueError("unsupported reference measure " + op)
        columns[name] = np.where(seen > 0, out, np.nan)

    expected = {}
    for group, row in enumerate(first):
        key = tuple(_key(array[row]) for array in keys)
        expected[key] = {
            name: (None if isinstance(column[group], np.floating)
                   and math.isnan(column[group]) else float(column[group]))
            for name, column in columns.items()
        }
    return expected


def compare_groups(rows, expected, key_fields, rel=REL):
    """Mismatch descriptions (empty = equal) between the program's output
    rows and an expected ``group_by`` table; row order is ignored."""
    errors = []
    actual = {}
    for row in rows:
        key = tuple(_key(row.get(name)) for name in key_fields)
        if key in actual:
            errors.append("duplicate group {}".format(key))
        actual[key] = row
    for key in expected.keys() - actual.keys():
        errors.append("missing group {}".format(key))
    for key in actual.keys() - expected.keys():
        errors.append("unexpected group {}".format(key))
    for key in expected.keys() & actual.keys():
        for name, want in expected[key].items():
            got = actual[key].get(name)
            if not close(got, want, rel):
                errors.append("group {} {}: got {!r}, expected {!r}".format(
                    key, name, got, want))
    return errors


def close(got, want, rel=REL):
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(float(got), float(want), rel_tol=rel, abs_tol=1e-12)


# -- per-workload expectations ---------------------------------------------------


def histogram(column, maxbins):
    """flights histogram: extent -> bin -> count per (bin0, bin1)."""
    values, valid = column
    lo, hi = extent(values, valid)
    bin0, step = bin_column(values, valid, lo, hi, maxbins)
    return group_by([bin0, bin0 + step], [("count", "count", None, None)])


def delay_cube(columns, threshold, maxbins=20):
    """flights_cold: delay filter -> extent/bin(distance) -> per
    (bin0, bin1, carrier) count and mean(air_time)."""
    dep, dep_ok = columns["dep_delay"]
    arr, arr_ok = columns["arr_delay"]
    keep = dep_ok & arr_ok & (dep + arr > threshold)
    distance, distance_ok = (a[keep] for a in columns["distance"])
    air, air_ok = (a[keep] for a in columns["air_time"])
    carrier = columns["carrier"][0][keep]
    lo, hi = extent(distance, distance_ok)
    bin0, step = bin_column(distance, distance_ok, lo, hi, maxbins)
    return group_by([bin0, bin0 + step, carrier],
                    [("n", "count", None, None),
                     ("mean_air", "mean", air, air_ok)])


def brushed_views(columns, lo, hi):
    """brush_stream: both linked views under one distance brush."""
    distance, distance_ok = columns["distance"]
    keep = distance_ok & (distance >= lo) & (distance < hi)
    delay, delay_ok = (a[keep] for a in columns["dep_delay"])
    carrier = columns["carrier"][0][keep]
    bin0, step = bin_column(delay, delay_ok, -30.0, 600.0, 30)
    return {
        "hist": group_by([bin0, bin0 + step],
                         [("cnt", "count", None, None)]),
        "by_carrier": group_by([carrier],
                               [("cnt", "count", None, None),
                                ("avg_delay", "mean", delay, delay_ok)]),
    }


def log_window(source, severity, latency, latency_ok):
    """logs_spill: the rows already cut to the time window -> per
    (source, severity) count, mean and max latency."""
    return group_by([source, severity],
                    [("n", "count", None, None),
                     ("mean_latency", "mean", latency, latency_ok),
                     ("max_latency", "max", latency, latency_ok)])


def check_scatter(columns, min_distance, sample_size, points, trend,
                  rel=REL):
    """scatter_client: the trend line against ``numpy.polyfit``; the
    sample against "every point is a filtered row, count = min(size, n)"
    (which rows a reservoir keeps is the program's business)."""
    errors = []
    distance, distance_ok = columns["distance"]
    air, air_ok = columns["air_time"]
    keep = distance_ok & (distance >= min_distance)
    want = min(sample_size, int(keep.sum()))
    if len(points) != want:
        errors.append("sample has {} points, expected {}".format(
            len(points), want))
    carrier = columns["carrier"][0]
    population = set(zip(distance[keep].tolist(),
                         np.where(air_ok, air, np.nan)[keep].tolist(),
                         carrier[keep].tolist()))
    strangers = sum(
        (row["distance"], row["air_time"], row["carrier"]) not in population
        for row in points)
    if strangers:
        errors.append("{} sampled points are not filtered rows".format(
            strangers))

    fit = keep & air_ok
    slope, intercept = np.polyfit(distance[fit], air[fit], 1)
    ends = (float(distance[fit].min()), float(distance[fit].max()))
    if len(trend) != 2:
        errors.append("trend has {} rows, expected 2".format(len(trend)))
        return errors
    for row, x in zip(sorted(trend, key=lambda r: r["distance"]), ends):
        if not close(row["distance"], x, rel):
            errors.append("trend x: got {!r}, expected {!r}".format(
                row["distance"], x))
        # polyfit solves by SVD, the program by centred sums: the fitted
        # values agree to ~1e-12 relative, far inside ``rel``
        if not close(row["air_time"], intercept + slope * x, rel):
            errors.append("trend y at {}: got {!r}, expected {!r}".format(
                x, row["air_time"], intercept + slope * x))
    return errors
