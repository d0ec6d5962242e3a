"""Daily market-data features for a 24-instrument, 4-class panel.

Each instrument contributes 20 features per day: the log-difference of the
close, rolling moments of the log-differences over 5/10/22-day windows,
relative min-max position of the close over the same windows, the
high-low-close position, the high-low spread, volume and open interest.
The transforms run along the last axis, so the whole panel is computed at
once as 24 rows of daily series.  Per day the 24 feature vectors stack into
a (20, 6, 4) tensor (feature x component slot x asset class), reinterpreted
without copying as a (2, 2, 5, 6, 4) tensor for the TT model.

All rolling quantities are trailing, so day-t features depend only on data
up to day t; labels look exactly one day ahead.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .files import csv_columns, csv_table, reading, write_csv
from .rng import stream_rng
from .tensor import DenseTensor, reshape

ASSET_CLASSES = ("equities", "currencies", "commodities", "fixed_income")
N_SLOTS = 6
N_INSTRUMENTS = len(ASSET_CLASSES) * N_SLOTS
N_FEATURES = 20
WINDOWS = (5, 10, 22)
WARMUP = max(WINDOWS)  # rolling stats of log-diffs need this many prior days
LABEL_DEADZONE = 1e-4
TENSOR_DIMS_5 = (2, 2, 5, N_SLOTS, len(ASSET_CLASSES))
# what each TT core's data mode means in TENSOR_DIMS_5, one label per core
MODE_LABELS = tuple(
    [f"feature sub-mode {n + 1} (size {d})" for n, d in enumerate(TENSOR_DIMS_5[:-2])]
    + [f"class components (size {N_SLOTS})", f"asset classes (size {len(ASSET_CLASSES)})"]
)
PANEL_SERIES = ("close", "high", "low", "volume", "open_interest")  # AssetPanel arrays, CSV order

FEATURE_NAMES = (
    ["log_diff"]
    + [f"{stat}_{w}" for w in WINDOWS for stat in ("mean", "std", "skew", "kurt")]
    + [f"minmax_{w}" for w in WINDOWS]
    + ["rel_hlc", "hl_spread", "volume", "open_interest"]
)
assert len(FEATURE_NAMES) == N_FEATURES


class NonPositivePrice(DataError):
    pass


class WindowTooLarge(DataError):
    pass


class MisalignedDates(DataError):
    pass


class InsufficientHistory(DataError):
    pass


class UnknownTarget(DataError):
    pass


@dataclass(frozen=True)
class InstrumentMeta:
    symbol: str
    asset_class: str
    class_slot: int  # 1..6


def column_index(asset_class: str, class_slot: int) -> int:
    if asset_class not in ASSET_CLASSES:
        raise DataError(f"unknown asset class {asset_class!r}")
    if not 1 <= class_slot <= N_SLOTS:
        raise DataError(f"class_slot must be 1..{N_SLOTS}, got {class_slot}")
    return ASSET_CLASSES.index(asset_class) * N_SLOTS + (class_slot - 1)


@dataclass
class AssetPanel:
    """Aligned daily OHLCV-style data for the full 4x6 instrument grid.

    Columns are in canonical order: asset classes in declaration order,
    slots 1..6 within each class.
    """

    instruments: list
    dates: list
    close: np.ndarray
    high: np.ndarray
    low: np.ndarray
    volume: np.ndarray
    open_interest: np.ndarray

    def __post_init__(self):
        if len(self.instruments) != N_INSTRUMENTS:
            raise DataError(f"panel needs {N_INSTRUMENTS} instruments, got {len(self.instruments)}")
        for k, meta in enumerate(self.instruments):
            if column_index(meta.asset_class, meta.class_slot) != k:
                raise DataError(
                    f"instrument {meta.symbol!r} out of canonical (class, slot) order"
                )
        t = len(self.dates)
        for name in PANEL_SERIES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != (t, N_INSTRUMENTS):
                raise ShapeError(f"{name} must have shape {(t, N_INSTRUMENTS)}, got {arr.shape}")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(t - 1)):
            raise MisalignedDates("dates must be strictly increasing")
        for name in ("close", "low"):
            self._reject(getattr(self, name) <= 0, f"{name} must be positive", NonPositivePrice)
        self._reject(self.high < self.low, "high < low")

    def _reject(self, bad: np.ndarray, message: str, error=DataError):
        """Raise ``error`` naming the instrument and the first date of a True in ``bad`` (T, 24)."""
        if bad.any():
            t, k = np.argwhere(bad)[0]
            raise error(f"{message}: {self.instruments[k].symbol} on {self.dates[t]}")

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def column_of(self, symbol: str) -> int:
        for k, meta in enumerate(self.instruments):
            if meta.symbol == symbol:
                return k
        raise UnknownTarget(f"no instrument named {symbol!r}")


# --- feature transforms ------------------------------------------------------
# Each transform works along the last axis (time), so one call covers a
# single (T,) series or a stack of (N, T) series.


def log_diff(prices) -> np.ndarray:
    """Day-over-day log change; the first entry is NaN (no prior day)."""
    p = np.asarray(prices, dtype=np.float64)
    if np.any(p <= 0):
        raise NonPositivePrice("log_diff needs strictly positive prices")
    out = np.full(p.shape, np.nan)
    out[..., 1:] = np.log(p[..., 1:]) - np.log(p[..., :-1])
    return out


def rolling_stats(values, window: int):
    """Trailing mean, std, skewness and kurtosis (population moments).

    Entry t summarizes values[t-window+1 .. t]; it is NaN where that window
    is not yet full or holds a NaN, which the moments carry.  Zero-variance
    windows get std, skew and kurtosis 0.
    """
    v = np.asarray(values, dtype=np.float64)
    if window > v.shape[-1]:
        raise WindowTooLarge(f"window {window} > series length {v.shape[-1]}")
    with np.errstate(invalid="ignore", divide="ignore"):
        m, m2, m3, m4 = _window_moments(v, window)
        # a window of identical values can carry rounding noise of order
        # eps*|value|; treat variance at that level as exactly zero
        scale = _sliding_fold(np.maximum, np.abs(v), window)
        degenerate = m2 <= (1e-12 * np.maximum(scale, 1e-300)) ** 2
        s = np.where(degenerate, 0.0, np.sqrt(m2))
        g1 = np.where(degenerate, 0.0, m3 / np.where(degenerate, 1.0, m2**1.5))
        g2 = np.where(degenerate, 0.0, m4 / np.where(degenerate, 1.0, m2**2))
    out = np.full((4,) + v.shape, np.nan)
    out[..., window - 1 :] = m, s, g1, g2
    return tuple(out)


def rel_minmax(prices, window: int) -> np.ndarray:
    """Position of the close within its trailing window range, in [0, 1]."""
    p = np.asarray(prices, dtype=np.float64)
    if window > p.shape[-1]:
        raise WindowTooLarge(f"window {window} > series length {p.shape[-1]}")
    out = np.full(p.shape, np.nan)
    high, low = (_sliding_fold(fold, p, window) for fold in (np.maximum, np.minimum))
    out[..., window - 1 :] = rel_hlc(p[..., window - 1 :], high, low)
    return out


def _sliding_fold(fold, v, window: int) -> np.ndarray:
    """``fold`` (np.maximum or np.minimum) over each trailing window of ``v``'s last axis.

    Entry t folds v[..., t .. t + window - 1], as ``sliding_window_view``'s
    max or min along the window would, and as exactly: a max or min is one
    of its inputs whatever the order.  ``window - 1`` elementwise passes over
    shifted views beat a reduction along each short window.
    """
    n = v.shape[-1] - window + 1
    out = v[..., :n].copy()
    for k in range(1, window):
        fold(out, v[..., k : k + n], out=out)
    return out


def _window_moments(v, window: int):
    """Mean and central moments m2, m3, m4 of each trailing window of ``v``'s last axis.

    Bit for bit what ``sliding_window_view(v, window, axis=-1)`` gives as
    ``win.mean(-1)``, then as the ``mean(-1)`` of ``dev * dev``,
    ``dev * dev * dev`` and ``(dev * dev) * (dev * dev)`` for
    ``dev = win - mean``: each window's terms are the shifted views
    ``v[..., k : k + n]``, summed by :func:`_pairwise_sum` in numpy's order.
    One pass gives the mean, a second pass the three moments together.  The
    reduction's identity, +0.0, is added last: it turns a sum of -0.0 into +0.0.
    """
    n = v.shape[-1] - window + 1
    (total,) = _pairwise_sum(lambda k: [v[..., k : k + n].copy()], window)
    m = (total + 0.0) / window

    def powers(k):
        # products, not dev**3/dev**4: numpy sends those to libm pow
        dev = v[..., k : k + n] - m
        dev2 = dev * dev
        return [dev2, dev2 * dev, np.multiply(dev2, dev2, out=dev)]

    return (m, *((total + 0.0) / window for total in _pairwise_sum(powers, window)))


def _pairwise_sum(terms, count: int, start: int = 0) -> list:
    """Sum ``terms(k)`` over k = start .. start + count - 1, mirroring numpy's order.

    Each ``terms(k)`` is a list of fresh arrays, summed elementwise into the
    first ones.  The sums add as numpy's ``pairwise_sum`` adds ``count``
    contiguous values, which is how ``np.add.reduce`` sums each window of a
    ``sliding_window_view`` along its last axis, so the bits match:

    - fewer than 8 terms are added in order, starting from -0.0 (which
      leaves the first term as it is);
    - 8 to 128 terms go to 8 interleaved lanes, lane j taking terms
      j, j + 8, ... up to the last whole group of 8; the lanes combine as
      ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the
      leftover terms are added after, in order;
    - more than 128 terms split at half the count, rounded down to a
      multiple of 8, and the halves' sums are added.
    """
    if count > 128:
        half = count // 2 - count // 2 % 8
        left = _pairwise_sum(terms, half, start)
        return _added(left, _pairwise_sum(terms, count - half, start + half))
    if count < 8:
        total, rest = terms(start), range(start + 1, start + count)
    else:
        end = start + count - count % 8
        lanes = []
        for j in range(start, start + 8):
            lane = terms(j)
            for k in range(j + 8, end, 8):
                _added(lane, terms(k))
            lanes.append(lane)
        while len(lanes) > 1:  # adjacent lanes pair up: 8 -> 4 -> 2 -> 1
            lanes = [_added(x, y) for x, y in zip(lanes[::2], lanes[1::2])]
        total, rest = lanes[0], range(end, start + count)
    for k in rest:
        _added(total, terms(k))
    return total


def _added(total: list, term: list) -> list:
    """``total`` with ``term`` added in place, array by array."""
    for a, b in zip(total, term):
        np.add(a, b, out=a)
    return total


def rel_hlc(close, high, low) -> np.ndarray:
    """Close position within the day's high-low range; 0.5 when high == low."""
    c = np.asarray(close, dtype=np.float64)
    h = np.asarray(high, dtype=np.float64)
    low_ = np.asarray(low, dtype=np.float64)
    span = h - low_
    flat = span == 0
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (c - low_) / np.where(flat, 1.0, span)
    return np.where(flat, 0.5, val)


def hl_spread(high, low) -> np.ndarray:
    """Day range relative to the low."""
    h = np.asarray(high, dtype=np.float64)
    low_ = np.asarray(low, dtype=np.float64)
    return (h - low_) / low_


def instrument_features(close, high, low, volume, open_interest) -> np.ndarray:
    """The 20 features on a new last axis (NaN during warm-up).

    A (T,) series gives (T, 20); (N, T) rows give (N, T, 20), a view of the
    features stacked feature-major, one contiguous block each.
    """
    r = log_diff(close)
    cols = [r]
    for w in WINDOWS:
        cols.extend(rolling_stats(r, w))
    cols.extend(rel_minmax(close, w) for w in WINDOWS)
    cols.append(rel_hlc(close, high, low))
    cols.append(hl_spread(high, low))
    cols.append(np.asarray(volume, dtype=np.float64))
    cols.append(np.asarray(open_interest, dtype=np.float64))
    return np.moveaxis(np.stack(cols), 0, -1)


# --- assembled feature panel --------------------------------------------------


@dataclass(frozen=True)
class Sample:
    """A training window: seq_len consecutive day tensors plus the label."""

    inputs: list  # DenseTensor, shape (2, 2, 5, 6, 4) each
    label: int
    end_index: int
    date: str

    @property
    def pair(self):
        return (self.inputs, self.label)


@dataclass
class FeaturePanel:
    """Per-day feature tensors with labels for one target instrument.

    ``raw`` holds the features as computed; ``normalized`` is z-scored with
    mean/std estimated on the first ``n_train`` days only.  Features that
    are constant over the training split keep std 1 in the divisor, which
    zeroes them on the training days.
    """

    dates: list
    raw: np.ndarray  # (days, 20, 6, 4), each day fastest-first in memory
    normalized: np.ndarray
    labels: np.ndarray  # (days,) values in {+1, 0, -1}
    target_next_return: np.ndarray  # (days,) realized next-day log return
    n_train: int
    symbols: list  # canonical column order, for audit dumps

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def samples(self, seq_len: int):
        """Sliding stride-1 windows, split train/test at the n_train boundary."""
        if seq_len < 1:
            raise ConfigError("seq_len must be >= 1")
        if seq_len > self.n_days:
            raise InsufficientHistory(
                f"{self.n_days} feature days cannot fit a window of {seq_len}"
            )
        # row t is day t's buffer, fastest-first: assemble's layout, so no copy
        rows = np.ascontiguousarray(self.normalized.transpose(0, 3, 2, 1)).reshape(self.n_days, -1)
        day_shape = self.normalized.shape[1:]
        day_tensors = [reshape(DenseTensor(day_shape, row), TENSOR_DIMS_5) for row in rows]
        train, test = [], []
        for end in range(seq_len - 1, self.n_days):
            sample = Sample(
                inputs=day_tensors[end - seq_len + 1 : end + 1],
                label=int(self.labels[end]),
                end_index=end,
                date=self.dates[end],
            )
            (train if end < self.n_train else test).append(sample)
        return train, test


def movement_label(next_return: float) -> int:
    """+1 / -1 for a next-day move beyond the dead zone, else 0."""
    if next_return > LABEL_DEADZONE:
        return 1
    if next_return < -LABEL_DEADZONE:
        return -1
    return 0


def assemble(panel: AssetPanel, target: str, split: float = 0.9) -> FeaturePanel:
    """Compute all features, trim warm-up, label against the target, z-score.

    Day t keeps only information available at t; the label and the stored
    next-day return use day t+1 of the target.  Normalization statistics
    come from the first ``split`` fraction of usable days.
    """
    target_col = panel.column_of(target)
    t_total = panel.n_days
    first = WARMUP  # first day with every rolling feature defined
    last = t_total - 2  # last day with a next-day return
    if not 0.0 < split < 1.0:
        raise ConfigError(f"split must be in (0, 1), got {split}")
    if last < first:
        raise InsufficientHistory(
            f"panel has {t_total} days; need at least {WARMUP + 2}"
        )

    # one contiguous time row per instrument: the windowed sums then add in
    # the same order as for a single series
    series = [np.ascontiguousarray(getattr(panel, name).T) for name in PANEL_SERIES]
    per_inst = instrument_features(*series)  # (24, T, 20), a view of (20, 24, T)
    # canonical columns are class-major: (class, slot, T, 20) -> (T, class, slot, 20)
    grid = per_inst.reshape(len(ASSET_CLASSES), N_SLOTS, t_total, N_FEATURES)
    grid = grid.transpose(2, 0, 1, 3)

    days = slice(first, last + 1)
    # the one copy out of the feature stack, seen as (T, 20, slot, class): each
    # day's block lies fastest-first, as its DenseTensor's buffer does
    raw = np.ascontiguousarray(grid[days]).transpose(0, 3, 2, 1)
    if np.isnan(raw).any():
        raise InsufficientHistory("NaNs remain after warm-up trimming")
    dates = list(panel.dates[days])

    target_r = log_diff(panel.close[:, target_col])
    next_r = target_r[first + 1 : last + 2]
    labels = np.array([movement_label(x) for x in next_r], dtype=np.int64)

    n_days = raw.shape[0]
    n_train = int(split * n_days)
    if n_train < 1 or n_train >= n_days:
        raise InsufficientHistory(
            f"split {split} leaves no usable train/test days out of {n_days}"
        )
    # finite input can still overflow here; the check below names the column
    with np.errstate(over="ignore", invalid="ignore"):
        mean = raw[:n_train].mean(axis=0)
        std = raw[:n_train].std(axis=0)
        safe = np.where(std < 1e-12, 1.0, std)
        normalized = raw - mean
        normalized /= safe
    finite = np.isfinite(std) & np.isfinite(normalized).all(axis=0)
    if not finite.all():
        f, slot, cls = np.argwhere(~finite)[0]
        symbol = panel.instruments[cls * N_SLOTS + slot].symbol
        raise DataError(f"feature {FEATURE_NAMES[f]} of {symbol} overflows float64 when z-scored")

    return FeaturePanel(
        dates=dates,
        raw=raw,
        normalized=normalized,
        labels=labels,
        target_next_return=np.asarray(next_r, dtype=np.float64),
        n_train=n_train,
        symbols=[meta.symbol for meta in panel.instruments],
    )


# --- synthetic panel ----------------------------------------------------------

SYNTH_PREFIXES = {"equities": "EQ", "currencies": "FX", "commodities": "CO", "fixed_income": "FI"}
SYNTH_DAILY_VOL = 0.01
SYNTH_START = np.datetime64("2006-05-01")
SYNTH_MAX_DAYS = (datetime.date.max - SYNTH_START.item()).days + 1  # the last date is 9999-12-31


def synth_symbols() -> list:
    out = []
    for cls in ASSET_CLASSES:
        for slot in range(1, N_SLOTS + 1):
            out.append(InstrumentMeta(f"{SYNTH_PREFIXES[cls]}{slot}", cls, slot))
    return out


@dataclass
class SynthConfig:
    """Controls the synthetic correlated-random-walk panel.

    ``signal_strength`` in [0, 1] blends the target's next-day return
    between pure noise (0) and a move whose sign copies the driver
    instrument's current-day log return (1), making next-day direction
    learnable from the driver's log_diff feature.
    """

    days: int = 600
    signal_strength: float = 0.0
    target: str = "FX6"
    driver: str = "EQ1"

    def validate(self):
        if self.days < WARMUP + 10:
            raise ConfigError(f"days must be >= {WARMUP + 10}, got {self.days}")
        if self.days > SYNTH_MAX_DAYS:
            raise ConfigError(
                f"synth_days {self.days} would date the panel past 9999-12-31 "
                f"(at most {SYNTH_MAX_DAYS})"
            )
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must be in [0, 1]")
        symbols = {m.symbol for m in synth_symbols()}
        if self.target not in symbols:
            raise ConfigError(f"unknown target {self.target!r}")
        if self.driver not in symbols or self.driver == self.target:
            raise ConfigError("driver must be a different instrument from target")
        return self


def synth_panel(config: SynthConfig, seed: int) -> AssetPanel:
    """Generate a deterministic 24-instrument panel, optionally with signal."""
    config.validate()
    rng = stream_rng(seed, "synth")
    instruments = synth_symbols()
    t_total = config.days
    class_of = np.repeat(np.arange(len(ASSET_CLASSES)), N_SLOTS)  # per canonical column

    class_factor = rng.normal(0.0, 1.0, size=(t_total, len(ASSET_CLASSES)))
    idio = rng.normal(0.0, 1.0, size=(t_total, N_INSTRUMENTS))
    rets = SYNTH_DAILY_VOL * (0.5 * class_factor[:, class_of] + math.sqrt(0.75) * idio)

    symbols = [m.symbol for m in instruments]
    driver_col = symbols.index(config.driver)
    target_col = symbols.index(config.target)
    s = config.signal_strength
    magnitude = np.abs(rng.normal(0.0, SYNTH_DAILY_VOL, size=t_total))
    noise = rng.normal(0.0, SYNTH_DAILY_VOL, size=t_total)
    target_rets = np.empty(t_total)
    target_rets[0] = noise[0]
    target_rets[1:] = s * magnitude[1:] * np.sign(rets[:-1, driver_col]) + (1.0 - s) * noise[1:]
    rets[:, target_col] = target_rets

    start_price = 100.0 * rng.uniform(0.5, 2.0, size=N_INSTRUMENTS)
    close = start_price * np.exp(np.cumsum(rets, axis=0))
    up = np.abs(rng.normal(0.0, 0.5 * SYNTH_DAILY_VOL, size=(t_total, N_INSTRUMENTS)))
    down = np.abs(rng.normal(0.0, 0.5 * SYNTH_DAILY_VOL, size=(t_total, N_INSTRUMENTS)))
    high = close * np.exp(up)
    low = close * np.exp(-down)
    volume = 1e5 * np.exp(rng.normal(0.0, 0.3, size=(t_total, N_INSTRUMENTS)))
    open_interest = np.zeros((t_total, N_INSTRUMENTS))
    commodities = class_of == ASSET_CLASSES.index("commodities")
    open_interest[:, commodities] = 1e4 * np.exp(rng.normal(0.0, 0.2, size=(N_SLOTS, t_total))).T

    return AssetPanel(
        instruments=instruments,
        dates=(SYNTH_START + np.arange(t_total)).astype(str).tolist(),
        close=close,
        high=high,
        low=low,
        volume=volume,
        open_interest=open_interest,
    )


# --- CSV interchange ----------------------------------------------------------

PANEL_HEADER = ["date", *PANEL_SERIES]
MANIFEST_HEADER = ["symbol", "asset_class", "class_slot", "path"]


def write_panel(panel: AssetPanel, out_dir) -> str:
    """One CSV per instrument plus a manifest, written last; returns the manifest path."""
    table = np.stack([getattr(panel, name) for name in PANEL_SERIES], axis=-1)  # (T, 24, 5)
    for k, meta in enumerate(panel.instruments):
        rows = ([date, *values] for date, values in zip(panel.dates, table[:, k].tolist()))
        write_csv(os.path.join(out_dir, f"{meta.symbol}.csv"), PANEL_HEADER, rows)
    manifest_path = os.path.join(out_dir, "manifest.csv")
    rows = ([m.symbol, m.asset_class, m.class_slot, f"{m.symbol}.csv"] for m in panel.instruments)
    write_csv(manifest_path, MANIFEST_HEADER, rows)
    return manifest_path


def _is_iso_date(text) -> bool:
    """True for a zero-padded YYYY-MM-DD date, the form whose text order is day order."""
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except (TypeError, ValueError):
        return False


def read_manifest(manifest_path) -> list:
    """The (instrument, file path) of each manifest row, in canonical (class, slot) order.

    A row without a path, of an unknown class or slot, or at a (class, slot)
    or of a symbol another row holds, and a (class, slot) no row holds, raise
    DataError naming the manifest and the row or the slot.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = [None] * N_INSTRUMENTS
    with reading(manifest_path) as f:
        for row in zip(*csv_columns(f, MANIFEST_HEADER)[1:]):
            symbol, asset_class, slot, rel_path = row
            try:
                if not rel_path:  # joined to base, it would name the data directory
                    raise ValueError
                meta = InstrumentMeta(symbol, asset_class, int(slot))
                column = column_index(asset_class, meta.class_slot)
                if entries[column]:
                    raise DataError(f"({asset_class}, {meta.class_slot}) is given twice")
                if any(entry and entry[0].symbol == symbol for entry in entries):
                    raise DataError(f"symbol {symbol!r} is given twice")
                entries[column] = (meta, os.path.join(base, rel_path))
            except DataError as exc:
                raise DataError(f"bad manifest row {row}: {exc}") from None
            except (TypeError, ValueError):
                raise DataError(f"bad manifest row {row}") from None
        if None in entries:
            asset_class, slot = divmod(entries.index(None), N_SLOTS)
            raise MisalignedDates(f"no row for ({ASSET_CLASSES[asset_class]}, {slot + 1})")
    return entries


def load_panel(manifest_path) -> AssetPanel:
    """Read a manifest + instrument CSVs, aligning on the date intersection."""
    return read_panel(read_manifest(manifest_path))


def read_panel(entries) -> AssetPanel:
    """The panel of :func:`read_manifest`'s entries: their CSVs aligned on the common dates."""
    per_instrument = []
    common = None
    iso_dates = set()  # each distinct date string is checked once
    last = None  # the previous file's dates: a file that repeats them changes no date set
    for _, path in entries:
        with reading(path) as f:
            dates, values = _read_instrument(f, iso_dates, last)
            if dates != last:
                own = set(dates)
                iso_dates |= own
                common = own if common is None else common & own
                if not common:
                    raise MisalignedDates("instrument files share no common dates")
        per_instrument.append((dates, values))
        last = dates
    dates = sorted(common)

    table = np.empty((len(PANEL_SERIES), len(entries), len(dates)))
    for k, (own_dates, values) in enumerate(per_instrument):
        if own_dates != dates:
            at = {date: i for i, date in enumerate(own_dates)}
            values = values[:, [at[date] for date in dates]]
        table[:, k] = values
    # each series is a (T, 24) view of its contiguous (24, T) rows, the layout assemble reads
    return AssetPanel(
        instruments=[meta for meta, _ in entries],
        dates=dates,
        **{name: rows.T for name, rows in zip(PANEL_SERIES, table)},
    )


def _read_instrument(f, iso_dates, last):
    """The dates and (5, days) values of an open instrument CSV, checked as :func:`_clean`.

    numpy's reader (:func:`csv_table`) reads a file it can vouch for.  Any other file, and
    one it reads unclean, is read again by the csv module, which names the first bad row.
    """
    table = csv_table(f, PANEL_HEADER)
    if table is not None and _clean(*table, iso_dates, last):
        return table
    f.seek(0)
    _, dates, *columns = csv_columns(f, PANEL_HEADER)
    try:  # whole columns first; a fault is then found row by row, as it is reported
        values = np.array([list(map(float, column)) for column in columns])  # (5, days)
        if _clean(dates, values, iso_dates, last):
            return dates, values
    except (TypeError, ValueError):
        pass
    _raise_first_bad_row(dates, columns)


def _clean(dates, values, iso_dates, last) -> bool:
    """True if ``values`` are finite and ``dates`` distinct YYYY-MM-DD dates: the already
    checked ``last``, or dates whose strings not in ``iso_dates`` pass :func:`_is_iso_date`."""
    if dates != last:
        own = set(dates)
        if len(own) < len(dates) or not all(map(_is_iso_date, own - iso_dates)):
            return False
    return bool(np.isfinite(values).all())


def _raise_first_bad_row(dates, columns):
    """Raise the error of the first bad row of an instrument file, checking each row in turn."""
    seen = set()
    for date, *cells in zip(dates, *columns):
        if not _is_iso_date(date):
            raise DataError(f"date {date!r} is not a YYYY-MM-DD date")
        if date in seen:
            raise MisalignedDates(f"duplicate date {date}")
        seen.add(date)
        try:
            row = tuple(map(float, cells))
        except (TypeError, ValueError):
            raise DataError(f"non-numeric value on {date}") from None
        if not all(map(math.isfinite, row)):
            raise DataError(f"non-finite value on {date}")


def dump_features_csv(fp: FeaturePanel, path):
    """Audit dump of raw (pre-normalization) features, one row per date per instrument."""
    # (T, 20, slot, class) -> (T, 24 canonical columns, 20)
    per_inst = fp.raw.transpose(0, 3, 2, 1).reshape(fp.n_days, N_INSTRUMENTS, N_FEATURES)
    rows = ([date, symbol, *values] for date, day in zip(fp.dates, per_inst.tolist())
            for symbol, values in zip(fp.symbols, day))
    write_csv(path, ["date", "symbol", *FEATURE_NAMES], rows)
