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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ShapeError
from .files import csv_rows, reading, write_csv
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
        if np.any(self.close <= 0) or np.any(self.low <= 0):
            raise NonPositivePrice("prices must be positive")
        if np.any(self.high < self.low):
            raise DataError("high < low")

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

    Entry t summarizes values[t-window+1 .. t]; positions without a full
    window of finite values are NaN.  Zero-variance windows get std, skew
    and kurtosis 0.
    """
    v = np.asarray(values, dtype=np.float64)
    if window > v.shape[-1]:
        raise WindowTooLarge(f"window {window} > series length {v.shape[-1]}")
    sw = sliding_window_view(v, window, axis=-1)
    ok = ~np.isnan(sw).any(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        m = sw.mean(axis=-1)
        dev = sw - m[..., None]
        # products, not dev**3/dev**4: numpy sends those to libm pow
        dev2 = dev * dev
        m2 = dev2.mean(axis=-1)
        m3 = (dev2 * dev).mean(axis=-1)
        m4 = (dev2 * dev2).mean(axis=-1)
        # a window of identical values can carry rounding noise of order
        # eps*|value|; treat variance at that level as exactly zero
        scale = np.max(np.abs(sw), axis=-1)
        degenerate = m2 <= (1e-12 * np.maximum(scale, 1e-300)) ** 2
        s = np.where(degenerate, 0.0, np.sqrt(m2))
        g1 = np.where(degenerate, 0.0, m3 / np.where(degenerate, 1.0, m2**1.5))
        g2 = np.where(degenerate, 0.0, m4 / np.where(degenerate, 1.0, m2**2))
    out = np.full((4,) + v.shape, np.nan)
    out[..., window - 1 :] = np.where(ok, np.stack([m, s, g1, g2]), np.nan)
    return tuple(out)


def rel_minmax(prices, window: int) -> np.ndarray:
    """Position of the close within its trailing window range, in [0, 1]."""
    p = np.asarray(prices, dtype=np.float64)
    if window > p.shape[-1]:
        raise WindowTooLarge(f"window {window} > series length {p.shape[-1]}")
    sw = sliding_window_view(p, window, axis=-1)
    out = np.full(p.shape, np.nan)
    out[..., window - 1 :] = rel_hlc(p[..., window - 1 :], sw.max(axis=-1), sw.min(axis=-1))
    return out


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

    A (T,) series gives (T, 20); (N, T) rows give (N, T, 20).
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
    return np.stack(cols, axis=-1)


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
    raw: np.ndarray  # (days, 20, 6, 4)
    normalized: np.ndarray
    labels: np.ndarray  # (days,) values in {+1, 0, -1}
    target_next_return: np.ndarray  # (days,) realized next-day log return
    n_train: int
    feature_mean: np.ndarray  # (20, 6, 4)
    feature_std: np.ndarray
    target: str
    symbols: list  # canonical column order, for audit dumps

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def z_tensor(self, t: int) -> DenseTensor:
        return DenseTensor.from_ndarray(self.normalized[t])

    def x_tensor(self, t: int) -> DenseTensor:
        return reshape(self.z_tensor(t), TENSOR_DIMS_5)

    def samples(self, seq_len: int):
        """Sliding stride-1 windows, split train/test at the n_train boundary."""
        if seq_len < 1:
            raise ConfigError("seq_len must be >= 1")
        if seq_len > self.n_days:
            raise InsufficientHistory(
                f"{self.n_days} feature days cannot fit a window of {seq_len}"
            )
        day_tensors = [self.x_tensor(t) for t in range(self.n_days)]
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
    per_inst = instrument_features(*series)  # (24, T, 20)
    # canonical columns are class-major: (class, slot, T, 20) -> (T, 20, slot, class)
    grid = per_inst.reshape(len(ASSET_CLASSES), N_SLOTS, t_total, N_FEATURES)
    grid = grid.transpose(2, 3, 1, 0)

    days = slice(first, last + 1)
    raw = np.ascontiguousarray(grid[days])
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
        normalized = (raw - mean) / safe
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
        feature_mean=mean,
        feature_std=std,
        target=target,
        symbols=[meta.symbol for meta in panel.instruments],
    )


# --- synthetic panel ----------------------------------------------------------

SYNTH_PREFIXES = {"equities": "EQ", "currencies": "FX", "commodities": "CO", "fixed_income": "FI"}
SYNTH_DAILY_VOL = 0.01


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

    start = datetime.date(2006, 5, 1)
    dates = [(start + datetime.timedelta(days=t)).isoformat() for t in range(t_total)]
    return AssetPanel(
        instruments=instruments,
        dates=dates,
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
    """The (instrument, file path) of each manifest row, in file order."""
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = []
    with reading(manifest_path) as f:
        for _, row in csv_rows(f, MANIFEST_HEADER):
            symbol, asset_class, slot, rel_path = row
            try:
                if not rel_path:  # joined to base, it would name the data directory
                    raise ValueError
                meta = InstrumentMeta(symbol, asset_class, int(slot))
                entries.append((meta, os.path.join(base, rel_path)))
            except (TypeError, ValueError):
                raise DataError(f"bad manifest row {row}") from None
    return entries


def load_panel(manifest_path) -> AssetPanel:
    """Read a manifest + instrument CSVs, aligning on the date intersection."""
    entries = read_manifest(manifest_path)
    if len(entries) != N_INSTRUMENTS:
        raise MisalignedDates(
            f"manifest lists {len(entries)} instruments, need {N_INSTRUMENTS}"
        )
    entries.sort(key=lambda e: column_index(e[0].asset_class, e[0].class_slot))

    per_instrument = []
    common = None
    iso_dates = set()  # each distinct date string is checked once
    for _, path in entries:
        rows = {}
        with reading(path) as f:
            for _, (date, *values) in csv_rows(f, PANEL_HEADER):
                if date not in iso_dates:
                    if not _is_iso_date(date):
                        raise DataError(f"date {date!r} is not a YYYY-MM-DD date")
                    iso_dates.add(date)
                if date in rows:
                    raise MisalignedDates(f"duplicate date {date}")
                try:
                    rows[date] = tuple(map(float, values))
                except (TypeError, ValueError):
                    raise DataError(f"non-numeric value on {date}") from None
                if not all(map(math.isfinite, rows[date])):
                    raise DataError(f"non-finite value on {date}")
        per_instrument.append(rows)
        common = set(rows) if common is None else common & set(rows)
    if not common:
        raise MisalignedDates("instrument files share no common dates")
    dates = sorted(common)

    table = np.array([[rows[d] for rows in per_instrument] for d in dates])  # (T, 24, 5)
    return AssetPanel(
        instruments=[meta for meta, _ in entries],
        dates=dates,
        **dict(zip(PANEL_SERIES, np.moveaxis(table, -1, 0))),
    )


def dump_features_csv(fp: FeaturePanel, path):
    """Audit dump of raw (pre-normalization) features, one row per date per instrument."""
    # (T, 20, slot, class) -> (T, 24 canonical columns, 20)
    per_inst = fp.raw.transpose(0, 3, 2, 1).reshape(fp.n_days, N_INSTRUMENTS, N_FEATURES)
    rows = ([date, symbol, *values] for date, day in zip(fp.dates, per_inst.tolist())
            for symbol, values in zip(fp.symbols, day))
    write_csv(path, ["date", "symbol", *FEATURE_NAMES], rows)
