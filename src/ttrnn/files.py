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
import json
import operator
import os

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


def csv_rows(f, header):
    """The line number and the header's columns, in header order, of each non-blank row.

    The first row of the open CSV ``f`` must name each column of ``header``
    once.  The line number is that of the row's last line; missing cells of a
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
    pick = operator.itemgetter(*map(names.index, header))
    for row in filter(None, reader):
        yield reader.line_num, pick(row + [None] * (len(names) - len(row)))


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
