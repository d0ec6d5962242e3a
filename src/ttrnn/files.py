"""Run files: how the files of a run are read and written.

A file from outside is read inside :func:`reading`, so its errors name it.
Every artifact is written through :func:`replacing`, so a write that fails
part-way leaves the old file, or none, where the artifact goes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import operator
import os

from .errors import DataError


@contextlib.contextmanager
def reading(path):
    """Raise what goes wrong while ``path`` is read as a DataError that names it.

    Text that is not UTF-8 gives ``"<path>: not UTF-8 text"``.  A DataError
    keeps its class, and it and a CSV syntax error get ``"<path>: "`` in front.
    """
    try:
        yield
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

    It is written as ``<path>.part`` beside ``path`` and renamed over it.  On
    any exception the part file is removed and ``path`` is left as it was.
    Text goes out as UTF-8, its line ends as written.
    """
    part = f"{path}.part"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(part, mode, **text) as f:
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
