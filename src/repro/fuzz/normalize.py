"""Result-table canonicalization for differential comparison.

Different executions of the same pipeline legitimately differ in
*presentation*: column order (SQL SELECT order vs client dict insertion
order), row order (hash aggregation vs GROUP BY output order), float
formatting (numpy float64 vs sqlite REAL round-trips), and integer-vs-
float typing (sqlite COUNT returns int, the client returns float).  The
canonical form erases exactly those differences — and nothing else — so
that equality of canonical forms means "the chart would look the same".

Encoded intentional equivalences (the documented divergences the oracle
tolerates):

* floats compare after rounding to :data:`FLOAT_DIGITS` significant
  digits (cross-backend summation order);
* ``-0.0`` equals ``0.0``;
* ``NaN`` equals NULL (the engine's data model maps JS NaN to SQL NULL);
* booleans and ints equal their float value (sqlite has no BOOLEAN);
* row order is ignored (rows are sorted by their canonical cells);
* column order is ignored (columns are sorted by name);
* when ``fields`` is given, only those columns are compared — the final
  server cut projects the transfer to mark-consumed fields, earlier cuts
  carry the full schema to the client.
"""

import math

#: significant digits floats are rounded to before sorting/comparison
FLOAT_DIGITS = 9

# Type tags keep heterogeneous cells orderable without Python TypeErrors.
_TAG_NULL = 0
_TAG_NUM = 1
_TAG_STR = 2
_TAG_OTHER = 3


def canonical_cell(value, float_digits=FLOAT_DIGITS):
    """Canonical, totally-orderable form of one cell value.

    Returns a ``(tag, payload)`` tuple: NULL/NaN -> (0, ""), numbers
    (bool/int/float) -> (1, rounded float), strings -> (2, str), anything
    else -> (3, repr).
    """
    if value is None:
        return (_TAG_NULL, "")
    if isinstance(value, bool):
        return (_TAG_NUM, 1.0 if value else 0.0)
    if isinstance(value, (int, float)):
        number = float(value)
        if math.isnan(number):
            return (_TAG_NULL, "")
        if math.isinf(number):
            return (_TAG_NUM, number)
        if number == 0.0:
            return (_TAG_NUM, 0.0)  # -0.0 folds into 0.0
        rounded = float("{:.{}g}".format(number, float_digits))
        return (_TAG_NUM, rounded)
    if isinstance(value, str):
        return (_TAG_STR, value)
    return (_TAG_OTHER, repr(value))


def canonical_rows(rows, fields=None, float_digits=FLOAT_DIGITS):
    """Canonical form of a row-dict list: ``(columns, sorted row tuples)``.

    ``fields`` optionally restricts the compared columns (mark-consumed
    fields).  Missing keys read as NULL, so rows with ragged key sets
    canonicalize consistently.
    """
    rows = list(rows)
    if fields is not None:
        columns = sorted(fields)
    else:
        seen = set()
        columns = []
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    columns.append(key)
        columns = sorted(columns)
    body = sorted(
        tuple(
            canonical_cell(row.get(name), float_digits) for name in columns
        )
        for row in rows
    )
    return (tuple(columns), tuple(body))


def canonical_table(table, fields=None, float_digits=FLOAT_DIGITS):
    """Canonical form of an engine :class:`~repro.data.Table`."""
    return canonical_rows(table.to_rows(), fields=fields,
                          float_digits=float_digits)


def _cells_close(left, right, rel_tol=1e-6, abs_tol=1e-9):
    if left == right:
        return True
    if left[0] != right[0]:
        return False
    if left[0] == _TAG_NUM:
        return math.isclose(left[1], right[1],
                            rel_tol=rel_tol, abs_tol=abs_tol)
    return False


def rows_equivalent(canon_a, canon_b, rel_tol=1e-6, abs_tol=1e-9):
    """Equality of canonical forms, with a float-tolerance fallback.

    Rounding to significant digits can land two nearly-equal values on
    different sides of a rounding boundary; when exact canonical equality
    fails but shapes match, compare sorted rows cell-wise with isclose.
    """
    if canon_a == canon_b:
        return True
    columns_a, body_a = canon_a
    columns_b, body_b = canon_b
    if columns_a != columns_b or len(body_a) != len(body_b):
        return False
    for row_a, row_b in zip(body_a, body_b):
        if len(row_a) != len(row_b):
            return False
        for cell_a, cell_b in zip(row_a, row_b):
            if not _cells_close(cell_a, cell_b, rel_tol, abs_tol):
                return False
    return True


def _format_cell(cell):
    tag, payload = cell
    if tag == _TAG_NULL:
        return "NULL"
    if tag == _TAG_STR:
        return repr(payload)
    return repr(payload)


def _format_row(row):
    return "(" + ", ".join(_format_cell(cell) for cell in row) + ")"


def diff_canonical(canon_a, canon_b, label_a="a", label_b="b", limit=8):
    """Human-readable difference report between two canonical forms."""
    lines = []
    columns_a, body_a = canon_a
    columns_b, body_b = canon_b
    if columns_a != columns_b:
        lines.append("columns differ:")
        lines.append("  {}: {}".format(label_a, list(columns_a)))
        lines.append("  {}: {}".format(label_b, list(columns_b)))
        return "\n".join(lines)
    lines.append("columns: {}".format(list(columns_a)))
    if len(body_a) != len(body_b):
        lines.append("row count differs: {}={} {}={}".format(
            label_a, len(body_a), label_b, len(body_b)))
    set_a, set_b = set(body_a), set(body_b)
    only_a = [row for row in body_a if row not in set_b]
    only_b = [row for row in body_b if row not in set_a]
    for label, only in ((label_a, only_a), (label_b, only_b)):
        if only:
            lines.append("rows only in {} ({} total):".format(
                label, len(only)))
            for row in only[:limit]:
                lines.append("  " + _format_row(row))
            if len(only) > limit:
                lines.append("  ... {} more".format(len(only) - limit))
    if not only_a and not only_b and len(body_a) == len(body_b):
        lines.append("(forms differ only in duplicate-row multiplicity "
                     "or float rounding)")
    return "\n".join(lines)
