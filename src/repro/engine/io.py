"""Table I/O: CSV and JSON loading/saving.

The demo lets users bring "any dataset they choose"; this module is the
ingestion path — files become engine Tables (typed, null-masked) that the
session loads into backends and converts to client rows.
"""

import csv
import io
import json

from repro.data import Column, Table
from repro.engine.errors import EngineError


def _parse_cell(text):
    """CSV cell -> typed value: empty/NA -> None, numeric -> float."""
    if text is None:
        return None
    stripped = text.strip()
    if stripped == "" or stripped.upper() in ("NA", "NULL", "NAN"):
        return None
    lowered = stripped.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return float(stripped)
    except ValueError:
        return stripped


def read_csv(source, delimiter=","):
    """Read CSV from a path or file object into a Table.

    The first row is the header.  Column types are inferred per column:
    a column is numeric only if *every* non-null cell parses as a number
    (mixed columns stay VARCHAR, preserving the raw text).
    """
    if isinstance(source, str):
        with open(source, newline="") as handle:
            return _read_csv_handle(handle, delimiter)
    return _read_csv_handle(source, delimiter)


def _read_csv_handle(handle, delimiter):
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EngineError("empty CSV input") from None
    raw_columns = [[] for _ in header]
    for row in reader:
        for index in range(len(header)):
            cell = row[index] if index < len(row) else None
            raw_columns[index].append(cell)

    table = Table()
    for name, cells in zip(header, raw_columns):
        parsed = [_parse_cell(cell) for cell in cells]
        non_null = [value for value in parsed if value is not None]
        if non_null and all(
            isinstance(value, float) and not isinstance(value, bool)
            for value in non_null
        ):
            values = parsed
        elif non_null and all(isinstance(value, bool) for value in non_null):
            values = parsed
        else:
            # Mixed or textual column: keep original text for non-nulls.
            values = [
                None if value is None else
                (cell.strip() if isinstance(cell, str) else str(cell))
                for value, cell in zip(parsed, cells)
            ]
        table.add_column(name, Column.from_values(values))
    return table


def write_csv(table, destination):
    """Write a Table to a path or file object as CSV (NULL -> empty)."""
    def write_handle(handle):
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        for row in table.to_rows():
            writer.writerow([
                "" if row[name] is None else row[name]
                for name in table.column_names
            ])

    if isinstance(destination, str):
        with open(destination, "w", newline="") as handle:
            write_handle(handle)
    else:
        write_handle(destination)


def read_json(source):
    """Read a JSON array of row objects (path, file object, or text)."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError:
            with open(source) as handle:
                data = json.load(handle)
    else:
        data = json.load(source)
    if not isinstance(data, list):
        raise EngineError("JSON input must be an array of row objects")
    rows = []
    for index, row in enumerate(data):
        if not isinstance(row, dict):
            raise EngineError(
                "JSON row {} is not an object".format(index)
            )
        rows.append({
            key: (float(value) if isinstance(value, int)
                  and not isinstance(value, bool) else value)
            for key, value in row.items()
        })
    return Table.from_rows(rows)


def write_json(table, destination=None):
    """Write a Table as a JSON array; returns the text when destination
    is None."""
    text = json.dumps(table.to_rows())
    if destination is None:
        return text
    if isinstance(destination, str):
        with open(destination, "w") as handle:
            handle.write(text)
    else:
        destination.write(text)
    return None
