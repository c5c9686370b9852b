"""Tabular input and deterministic result serialization.

CSV input is UTF-8 with a header row, comma-delimited, '.' decimal.  Every
cell must parse as a finite number; missing, NaN and infinite values are
rejected rather than imputed.  Row/column positions in error messages are
1-based (rows count data rows, excluding the header).  The body is parsed
by numpy's C parser; a body it cannot read in full goes through the csv
module row by row, which gives the same values and reports every error.

Output floats are rendered with 17 significant digits so a reload
reproduces the exact value; the JSON emitter below keeps key order and
whitespace fixed, making equal documents byte-identical.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import numbers
import os

import numpy as np

from .errors import ArgumentError, DataError
from .kernels import DataMatrix


def _resolve_response_columns(header, response_columns):
    if not response_columns:
        raise ArgumentError("at least one response column is required")
    positions = []
    for item in response_columns:
        if isinstance(item, str) and item in header:
            if header.count(item) > 1:
                where = [j + 1 for j, name in enumerate(header) if name == item]
                raise ArgumentError(
                    f"response column {item!r} appears at positions {where} of the "
                    "header; select one by its 1-based position"
                )
            positions.append(header.index(item))
            continue
        if isinstance(item, bool) or not isinstance(item, (str, numbers.Integral)):
            raise ArgumentError(f"response column {item!r} is neither a name nor an integer")
        try:
            idx = int(item)
        except ValueError:
            raise ArgumentError(
                f"response column {item!r} not found among the header's {len(header)} names"
            ) from None
        if not 1 <= idx <= len(header):
            raise ArgumentError(
                f"response column position {idx} outside 1..{len(header)}"
            )
        positions.append(idx - 1)
    if len(set(positions)) != len(positions):
        raise ArgumentError("duplicate response columns")
    return positions


def _parse_row(row, i, header) -> np.ndarray:
    """Data row i as floats, cell by cell, naming the first cell that is
    missing or does not parse."""
    if len(row) != len(header):
        raise DataError(f"row {i}: expected {len(header)} cells, found {len(row)}")
    values = np.empty(len(header))
    for j, cell in enumerate(row):
        text = cell.strip()
        if text == "":
            raise DataError(f"missing value at row {i}, column {j + 1} ('{header[j]}')")
        try:
            values[j] = float(text)
        except ValueError:
            raise DataError(
                f"could not parse '{text}' at row {i}, column {j + 1} ('{header[j]}')"
            ) from None
    return values


def _column_positions(header, response_columns) -> tuple:
    """(y_pos, x_pos): the response columns' 0-based positions and the
    remaining columns' positions, in file order."""
    y_pos = _resolve_response_columns(header, response_columns)
    x_pos = [j for j in range(len(header)) if j not in y_pos]
    if not x_pos:
        raise ArgumentError("every column was taken as a response; no predictors remain")
    return y_pos, x_pos


def _read_header(reader, path) -> list:
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    return [h.strip() for h in header]


# loadtxt skips blank lines, which the row path rejects; each one is passed
# on as this text, which no float parser reads, so that the parse fails.
_BLANK_LINE = "?\n"


def _parse_body(lines, width: int):
    """The data rows of an open CSV body as an (n, width) float array, by
    numpy's C parser, or None if it cannot stand in for the row path.

    ``lines`` yields the file's lines after the header.  None is returned
    when the body has no line, when loadtxt rejects a line (quotes, missing
    or unparsable cells, ragged or blank lines), and when a cell is NaN or
    infinite; the row path then reports the error where it always has.
    Every cell loadtxt reads is one float() reads to the same value.
    """
    first = next(lines, None)
    if first is None:
        return None
    body = itertools.chain([first], lines)
    try:
        values = np.loadtxt(
            (line if line.strip("\r\n") else _BLANK_LINE for line in body),
            delimiter=",", comments=None, ndmin=2,
        )
    except ValueError:
        return None
    if values.shape[1] != width or not np.isfinite(values).all():
        return None
    return values


def _parse_rows(reader, header, path) -> np.ndarray:
    """The data rows below the header as an (n, p) array, row by row: the
    first missing, unparsable or miscounted cell is reported before any
    NaN/Inf cell, which is reported at its first occurrence in row-major
    order."""
    first = next(reader, None)
    if first is None:
        raise DataError(f"{path}: no data rows below the header")
    rows = []
    non_finite = None
    for i, row in enumerate(itertools.chain([first], reader), start=1):
        parsed = _parse_row(row, i, header)
        # float() accepts nan/inf spellings; keep the first such cell.
        if non_finite is None and not np.isfinite(parsed).all():
            j = int(np.argmin(np.isfinite(parsed)))
            non_finite = (
                f"non-finite value '{row[j].strip()}' at row {i}, "
                f"column {j + 1} ('{header[j]}')"
            )
        rows.append(parsed)
    if non_finite is not None:
        raise DataError(non_finite)
    return np.array(rows)


def load_csv(path, response_columns):
    """Load a CSV file into predictor and response matrices.

    response_columns entries are header names or 1-based positions; a name
    the header holds more than once must be given by position.  The
    remaining columns become predictors, preserving file order; column
    names are retained on both matrices.

    The header is read by the csv module.  The body goes line by line
    through numpy's C parser (np.loadtxt); a body it cannot parse in full,
    or that holds a NaN or infinite cell, is read again from the start by
    the row path, which converts each csv row as it is read.  The two give
    bitwise the same values, and every error comes from the row path: a
    missing, unparsable or miscounted cell anywhere is reported before any
    NaN/Inf cell, which is reported at its first occurrence in row-major
    order.

    Returns
    -------
    (x, y) : pair of DataMatrix
    """
    # open() would take an integer as a file descriptor.
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ArgumentError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    try:
        # utf-8-sig drops a leading byte-order mark, as written by spreadsheet
        # "CSV UTF-8" exports, also when the row path reads from the start
        # again; a file without one decodes as plain UTF-8.
        fh = open(path, newline="", encoding="utf-8-sig")
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        header = _read_header(csv.reader(fh), path)
        # The response columns are checked before any row is parsed.
        y_pos, x_pos = _column_positions(header, response_columns)
        values = _parse_body(fh, len(header))
        if values is None:
            fh.seek(0)
            reader = csv.reader(fh)
            _read_header(reader, path)
            values = _parse_rows(reader, header, path)
    y = DataMatrix(values=values[:, y_pos], columns=[header[j] for j in y_pos])
    # The parsed table is dropped before DataMatrix copies the predictor
    # block, so the table is held at most twice.
    block = values[:, x_pos]
    del values
    x = DataMatrix(values=block, columns=[header[j] for j in x_pos])
    return x, y


def format_float(v: float) -> str:
    """17-significant-digit rendering; round-trips through float()."""
    return format(float(v), ".17g")


# A result document repeats a few keys in every row, so each key's JSON
# text is formed once; the cache is bounded for documents with many keys.
_key_text = functools.lru_cache(maxsize=1024)(json.dumps)


def _emit(value, indent: int, out: list):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for k, (key, v) in enumerate(items):
            out.append(f"{pad}  {_key_text(str(key))}: ")
            _emit(v, indent + 1, out)
            out.append(",\n" if k + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for k, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, indent + 1, out)
            out.append(",\n" if k + 1 < len(seq) else "\n")
        out.append(pad + "]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ArgumentError(f"cannot serialize {value!r} to JSON: not a finite number")
        out.append(format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    else:
        raise ArgumentError(f"cannot serialize {type(value).__name__} to JSON")


def json_dumps(doc) -> str:
    """Deterministic JSON text: fixed key order, fixed whitespace, 17-digit
    floats.  A NaN or infinite float, which JSON cannot hold, is an ArgumentError."""
    out: list = []
    _emit(doc, 0, out)
    out.append("\n")
    return "".join(out)


def write_csv_rows(fh, header, rows):
    """Write rows of mixed atoms with the same float rendering as JSON."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
        )
