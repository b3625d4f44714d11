"""Deterministic CSV writing with comment headers."""

from __future__ import annotations

import itertools

import numpy as np

# Rows formatted by one '%' at a time: bounds the strings held at once.
CHUNK_ROWS = 256


def format_value(x) -> str:
    """A float, numpy's included, as the ``repr`` of the Python float; else ``str``."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _chunk(column, lo: int, hi: int):
    """The '%' conversion and the values of rows lo:hi of one column, as
    ``format_value`` writes them."""
    part = column[lo:hi]
    if isinstance(part, np.ndarray):
        if part.dtype == np.float64:
            return "%r", part.tolist()  # Python floats already
        part = part.tolist()
    if all(isinstance(x, float) for x in part):
        return "%r", list(map(float, part))
    if all(type(x) is str for x in part):
        return "%s", part
    return "%s", [format_value(x) for x in part]


def write_csv(path, column_names, columns, meta=()):
    """Write '#' comment header lines, a column header, then the columns' rows.

    ``columns`` holds one equal-length sequence per column name; each value
    is written as ``format_value`` writes it.  ``meta`` lines (config hash,
    tool version, ...) go first so repeated runs with the same configuration
    produce byte-identical files.  Rows are formatted ``CHUNK_ROWS`` at a
    time, so no string holds the whole file.  Raises ValueError when the
    columns differ in length.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(c) != rows for c in columns):
        raise ValueError("CSV columns differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        fh.write(",".join(column_names) + "\n")
        for lo in range(0, rows, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, rows)
            specs, parts = zip(*(_chunk(c, lo, hi) for c in columns))
            line = ",".join(specs) + "\n"
            fh.write(line * (hi - lo) % tuple(itertools.chain.from_iterable(zip(*parts))))
