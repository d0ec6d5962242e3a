"""Run files: how the files of a run are read and written.

A run file is opened here and nowhere else, its text as UTF-8 whatever the
locale (:func:`_open`).  A file from outside is read through :func:`reading`,
so its errors name it.  Every artifact is written through :func:`replacing`,
so a write that fails part-way leaves the old file, or none, where the
artifact goes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import operator
import os

import numpy as np

from .errors import DataError


def _open(path, mode):
    """Open ``path`` with ``mode``: text as UTF-8 whatever the locale, its line ends as written."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    return open(path, mode, **text)


@contextlib.contextmanager
def reading(path, mode="r"):
    """``path`` opened with ``mode``; what goes wrong while it is read is a DataError naming it.

    Text that is not UTF-8 gives ``"<path>: not UTF-8 text"``.  A DataError
    keeps its class, and it and a CSV syntax error get ``"<path>: "`` in front.
    """
    try:
        with _open(path, mode) as f:
            yield f
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"{path}: {exc}") from None
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def csv_columns(f, header):
    """The line numbers of the non-blank rows, then each of the header's columns, as lists.

    The first row of the open CSV ``f`` must name each column of ``header``
    once.  A row's line number is that of its last line; missing cells of a
    short row read None.
    """
    reader = csv.reader(f)
    names = next(reader, [])
    missing = [c for c in header if c not in names]
    if missing:
        raise DataError(f"missing column(s) {', '.join(missing)}")
    repeated = [c for c in header if names.count(c) > 1]
    if repeated:
        raise DataError(f"column {repeated[0]!r} appears twice")
    lines, rows = [], []
    for row in reader:
        if row:
            lines.append(reader.line_num)
            rows.append(row if len(row) >= len(names) else row + [None] * (len(names) - len(row)))
    return [lines, *(list(map(operator.itemgetter(names.index(c)), rows)) for c in header)]


def csv_table(f, header):
    """The first column, as a list, and the rest, as a (columns, rows) float array, of the open
    CSV ``f`` read by numpy's C reader; None where :func:`csv_columns` might read it otherwise.

    It vouches only for UTF-8 text whose first line is exactly ``header``, with at least one
    row, no line longer than the csv module's field limit, no NUL or ``\\x1c``-``\\x1f``
    character and ``len(header)`` cells in every non-empty row, each after the first a number
    numpy parses: an ASCII float, spaces around it allowed, which Python's ``float`` reads to
    the same bits.  A first cell is kept to 11 characters, one more than a YYYY-MM-DD date,
    so a longer one stays no date.
    """
    try:
        text = f.read()
    except UnicodeDecodeError:  # csv_columns may meet another fault first
        return None
    first, _, rest = text.partition("\n")
    if first.removesuffix("\r") != ",".join(header) or not rest.strip():
        return None  # another header, or no row: numpy would warn of an empty input
    limit = csv.field_size_limit()
    if len(rest) > limit and max(map(len, rest.split("\n"))) > limit:
        return None  # a cell may be over the csv module's limit; numpy's reader has none
    if any(c in rest for c in "\x00\x1c\x1d\x1e\x1f"):
        return None  # numpy drops a string's trailing NULs, and reads \x1c-\x1f as space
    dtype = [("", "U11")] + [("", "f8")] * (len(header) - 1)
    try:
        first_column, *columns = np.loadtxt(io.StringIO(rest, newline=""), dtype=dtype,
                                            delimiter=",", comments=None, ndmin=1, unpack=True)
    except ValueError:
        return None
    return first_column.tolist(), np.array(columns)


@contextlib.contextmanager
def replacing(path, mode="w"):
    """A new file, opened with ``mode``, that replaces ``path`` once the block ends.

    It is written as ``<path>.part`` beside ``path``, in a directory made if it
    is missing, and renamed over it.  On any exception the part file is
    removed and ``path`` is left as it was.
    """
    part = f"{path}.part"
    os.makedirs(os.path.dirname(part) or ".", exist_ok=True)
    try:
        with _open(part, mode) as f:
            yield f
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def write_csv(path, header, rows):
    """Write the ``header`` row, then ``rows``, each line ended by ``\\r\\n``; floats as repr."""
    with replacing(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload):
    """Write ``payload`` as JSON with sorted keys, indented by two, and a final newline."""
    with replacing(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
