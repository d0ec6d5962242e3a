"""Training-dynamics report: normalized per-core change between epochs.

The squared Frobenius norm of each core's epoch-to-epoch delta, divided by
the core's element count, measures how much the map along that tensor mode
moved during training; ranking cores by it points at the data modes the
model leaned on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError
from .files import csv_columns, reading, write_csv, write_json


class ShapeDrift(ShapeError):
    """A core changed shape between epoch snapshots."""


@dataclass
class CoreChangeLog:
    """values[n, k] is the normalized change of core n+1 from epoch k+1 to k+2."""

    epochs: list  # epoch numbers e >= 2, one per change column
    values: np.ndarray  # (n_cores, n_epochs - 1)

    @property
    def n_cores(self) -> int:
        return len(self.values)


def core_change(snapshots) -> CoreChangeLog:
    """Normalized change per core between consecutive epoch snapshots.

    ``snapshots[e][n]`` is core n at the end of epoch e+1.  Entry (n, e) of
    the result is ||delta||_F^2 / core_element_count.  n snapshots give
    n - 1 change columns, so one snapshot gives an ``(n_cores, 0)`` log.
    """
    if not snapshots:
        raise DataError("need at least one epoch snapshot")
    shapes = [np.asarray(c).shape for c in snapshots[0]]
    for e, snap in enumerate(snapshots):
        if len(snap) != len(shapes):
            raise ShapeDrift(f"epoch {e + 1} has {len(snap)} cores, expected {len(shapes)}")
        for n, c in enumerate(snap):
            if np.asarray(c).shape != shapes[n]:
                raise ShapeDrift(
                    f"core {n + 1} changed shape at epoch {e + 1}: "
                    f"{np.asarray(c).shape} != {shapes[n]}"
                )
    n_cores = len(shapes)
    values = np.zeros((n_cores, len(snapshots) - 1))
    for e in range(1, len(snapshots)):
        for n in range(n_cores):
            delta = np.asarray(snapshots[e][n]) - np.asarray(snapshots[e - 1][n])
            values[n, e - 1] = float(np.sum(delta * delta)) / delta.size
    return CoreChangeLog(epochs=list(range(2, len(snapshots) + 1)), values=values)


def modal_ranking(log: CoreChangeLog):
    """Cores ordered by total normalized change, largest first.

    Ties break toward the lower core index.  Returns (core_number, total)
    pairs with 1-based core numbers.
    """
    if log.n_cores == 0 or log.values.size == 0:
        raise DataError("empty core-change log")
    totals = log.values.sum(axis=1)
    order = sorted(range(log.n_cores), key=lambda n: (-totals[n], n))
    return [(n + 1, float(totals[n])) for n in order]


CORE_CHANGE_HEADER = ["core", "epoch", "normalized_change"]


def write_core_change_csv(log: CoreChangeLog, path):
    rows = ([n + 1, e, value] for n, changes in enumerate(log.values.tolist())
            for e, value in zip(log.epochs, changes))
    write_csv(path, CORE_CHANGE_HEADER, rows)


def read_core_change_csv(path) -> CoreChangeLog:
    """Rebuild a log: one finite change >= 0 per core 1..n and epoch."""
    cells = {}
    with reading(path) as f:
        for line, core, epoch, value in zip(*csv_columns(f, CORE_CHANGE_HEADER)):
            try:
                core, epoch, value = int(core), int(epoch), float(value)
            except (TypeError, ValueError):
                raise DataError(f"malformed core-change line {line}") from None
            if core < 1:
                raise DataError(f"line {line}: core {core} is not >= 1")
            if (core, epoch) in cells:
                raise DataError(f"line {line}: duplicate row for core {core} epoch {epoch}")
            if not (math.isfinite(value) and value >= 0.0):
                raise DataError(f"line {line}: change {value!r} is not finite and >= 0")
            cells[core, epoch] = value
        if not cells:
            raise DataError("no core-change rows")
        cores = range(1, max(core for core, _ in cells) + 1)
        epochs = sorted({epoch for _, epoch in cells})
        # a generator, not itertools.product, which would first copy every core number
        missing = next(((c, e) for c in cores for e in epochs if (c, e) not in cells), None)
        if missing:
            raise DataError(f"no row for core {missing[0]} epoch {missing[1]}")
    values = np.array([[cells[c, e] for e in epochs] for c in cores])
    return CoreChangeLog(epochs=epochs, values=values)


def write_ranking_json(log: CoreChangeLog, path, labels=None) -> list:
    ranking = modal_ranking(log)
    if labels is None:
        labels = [f"data mode {n + 1}" for n in range(log.n_cores)]
    payload = {
        "ranking": [
            {
                "core": core,
                "mode": labels[core - 1],
                "total_normalized_change": total,
            }
            for core, total in ranking
        ],
        "epochs": log.epochs,
    }
    write_json(path, payload)
    return payload["ranking"]
