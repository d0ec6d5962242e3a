import ast
import datetime
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import traced_peak
from oracles import feature_vector_scalar, rolling_stats_per_window, sliding_window_moments
import ttrnn
from ttrnn.errors import ConfigError, DataError
from ttrnn.features import (
    ASSET_CLASSES,
    FEATURE_NAMES,
    InsufficientHistory,
    MisalignedDates,
    MODE_LABELS,
    N_FEATURES,
    N_SLOTS,
    NonPositivePrice,
    PANEL_HEADER,
    PANEL_SERIES,
    SynthConfig,
    UnknownTarget,
    WARMUP,
    WINDOWS,
    WindowTooLarge,
    AssetPanel,
    _sliding_fold,
    _window_moments,
    assemble,
    dump_features_csv,
    hl_spread,
    instrument_features,
    load_panel,
    log_diff,
    movement_label,
    rel_hlc,
    rel_minmax,
    rolling_stats,
    synth_panel,
    write_panel,
)
from ttrnn.tensor import DenseTensor, reshape


def small_panel(days=80, strength=0.0, seed=0):
    return synth_panel(SynthConfig(days=days, signal_strength=strength), seed)


def cut_panel(panel, cut):
    """The panel's first ``cut`` days."""
    return AssetPanel(
        instruments=panel.instruments,
        dates=panel.dates[:cut],
        close=panel.close[:cut],
        high=panel.high[:cut],
        low=panel.low[:cut],
        volume=panel.volume[:cut],
        open_interest=panel.open_interest[:cut],
    )


def panel_series(panel):
    """The panel's series as ``assemble`` passes them: one contiguous row per instrument."""
    return [np.ascontiguousarray(getattr(panel, name).T) for name in PANEL_SERIES]


@st.composite
def moment_series(draw, windows=WINDOWS + (2, 3), signed_zero=False, whole_last_window=False):
    """(N, T) series with heavy tails, flat stretches, a NaN head, any scale.

    With ``signed_zero``, a row may be all -0.0 instead. With
    ``whole_last_window``, the NaN head leaves the last window whole, so a
    long window still has one without a NaN; otherwise every window of a
    row may hold one.
    """
    window = draw(st.sampled_from(windows))
    n, t = draw(st.integers(1, 3)), draw(st.integers(window, max(50, window + 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    df = draw(st.sampled_from([1.0, 2.0, 5.0, 1e9]))  # 1: Cauchy; 1e9: about normal
    level = draw(st.sampled_from([0.0, 1e-6, 1.0, 1e6]))
    spread = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    x = level + spread * rng.standard_t(df, size=(n, t))
    for row in range(n):  # a flat stretch (degenerate windows), then a NaN head
        start = draw(st.integers(0, t - 1))
        x[row, start : start + draw(st.integers(0, 2 * window))] = x[row, start]
        head = min(t // 2, t - window) if whole_last_window else t // 2
        x[row, : draw(st.integers(0, head))] = np.nan
    if signed_zero and draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = -0.0
    return x, window


def bits(a) -> bytes:
    """The array's bytes with one NaN for all: signed zeros count, NaN payloads do not."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


class TestLogDiff:
    def test_simple_value(self):
        r = log_diff([100.0, 101.0])
        assert math.isnan(r[0])
        assert r[1] == pytest.approx(math.log(101.0) - math.log(100.0), rel=1e-14)

    def test_constant_series_is_zero(self):
        r = log_diff([5.0] * 10)
        assert np.array_equal(r[1:], np.zeros(9))

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            log_diff([1.0, 0.0, 2.0])


class TestRollingStats:
    def test_constant_window_degenerates(self):
        mean, std, skew, kurt = rolling_stats([0.1] * 8, 5)
        assert mean[7] == pytest.approx(0.1, rel=1e-12)
        assert std[7] == 0.0 and skew[7] == 0.0 and kurt[7] == 0.0

    def test_one_to_five(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, std, skew, kurt = rolling_stats(vals, 5)
        # population moments: m2 = 2, m3 = 0, m4 = 6.8
        assert mean[4] == pytest.approx(3.0, abs=1e-14)
        assert std[4] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert skew[4] == pytest.approx(0.0, abs=1e-14)
        assert kurt[4] == pytest.approx(6.8 / 4.0, rel=1e-14)

    def test_symmetric_window_zero_skew(self):
        mean, std, skew, kurt = rolling_stats([-2.0, -1.0, 0.0, 1.0, 2.0], 5)
        assert skew[4] == pytest.approx(0.0, abs=1e-14)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            rolling_stats([1.0, 2.0], 5)

    def test_nan_warmup(self):
        series = np.array([np.nan, 1.0, 2.0, 3.0])
        mean, _, _, _ = rolling_stats(series, 3)
        assert math.isnan(mean[2])  # window still touches the NaN
        assert mean[3] == pytest.approx(2.0)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(moment_series())
    def test_matches_per_window_oracle(self, case):
        x, window = case
        got = rolling_stats(x, window)
        want = rolling_stats_per_window(x, window)
        for name, g, w in zip(("mean", "std"), got[:2], want[:2]):
            assert np.array_equal(g, w, equal_nan=True), name
        for name, g, w in zip(("skew", "kurtosis"), got[2:], want[2:]):
            assert np.allclose(g, w, rtol=1e-12, atol=1e-12, equal_nan=True), name

    # every branch of the pairwise mirror: under 8 terms, 8 lanes with and
    # without leftovers, a split above 128 terms, a split rounded down to a
    # multiple of 8 (150: 72 + 78) and, at 257, a split in a split
    @pytest.mark.parametrize("window", [2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 22, 128, 129, 150, 257])
    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(st.data())
    def test_window_moments_are_the_sliding_reductions(self, window, data):
        x, _ = data.draw(moment_series(windows=(window,), signed_zero=True, whole_last_window=True))
        with np.errstate(invalid="ignore", over="ignore"):
            got = _window_moments(x, window)
        want = sliding_window_moments(x, window)
        for name, g, w in zip(("mean", "m2", "m3", "m4"), got, want, strict=True):
            assert g.shape == w.shape and bits(g) == bits(w), name


class TestRelMinMax:
    def test_extremes(self):
        p = [1.0, 2.0, 3.0, 4.0, 5.0]
        out = rel_minmax(p, 5)
        assert out[4] == pytest.approx(1.0)
        out = rel_minmax(list(reversed(p)), 5)
        assert out[4] == pytest.approx(0.0)

    def test_inner_window_value(self):
        p = [1.0, 2.0, 3.0, 4.0, 5.0, 4.5]
        out = rel_minmax(p, 5)
        # window (2, 3, 4, 5, 4.5): (4.5 - 2) / (5 - 2)
        assert out[5] == pytest.approx((4.5 - 2.0) / 3.0, rel=1e-12)

    def test_flat_window(self):
        out = rel_minmax([3.0, 3.0, 3.0], 3)
        assert out[2] == 0.5

    def test_bounds(self):
        rng = np.random.default_rng(0)
        p = np.exp(rng.normal(size=200).cumsum() * 0.01) * 50
        out = rel_minmax(p, 10)
        valid = out[~np.isnan(out)]
        assert np.all((valid >= 0.0) & (valid <= 1.0))

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_sliding_folds_are_the_window_reductions(self, data):
        n, t = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 40))
        window = data.draw(st.integers(1, t))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(size=(n, t)) * data.draw(st.sampled_from([1e-300, 1.0, 1e300]))
        if data.draw(st.booleans()):  # ties
            v = np.round(v)
        v[rng.random((n, t)) < data.draw(st.sampled_from([0.0, 0.05, 0.5]))] = np.nan
        sw = sliding_window_view(v, window, axis=-1)
        for fold, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            got = _sliding_fold(fold, v, window)
            assert np.array_equal(got, reduce(sw, axis=-1), equal_nan=True), fold.__name__
        # a window that holds a NaN gives NaN for all four moments, the mean no other window
        has_nan = np.isnan(sw).any(axis=-1)
        with np.errstate(over="ignore"):  # the higher moments of values near 1e300
            stats = np.array(rolling_stats(v, window))
        assert np.isnan(stats[..., : window - 1]).all()
        assert np.isnan(stats[..., window - 1 :][:, has_nan]).all()
        assert np.array_equal(np.isnan(stats[0, :, window - 1 :]), has_nan)


class TestDailyRangeFeatures:
    def test_rel_hlc_extremes(self):
        assert rel_hlc(100.0, 105.0, 100.0) == pytest.approx(0.0)
        assert rel_hlc(105.0, 105.0, 100.0) == pytest.approx(1.0)

    def test_reference_values(self):
        assert rel_hlc(103.0, 105.0, 100.0) == pytest.approx(0.6, rel=1e-14)
        assert hl_spread(105.0, 100.0) == pytest.approx(0.05, rel=1e-14)

    def test_degenerate_day(self):
        assert rel_hlc(100.0, 100.0, 100.0) == 0.5
        assert hl_spread(100.0, 100.0) == 0.0

    def test_bounds_on_panel_data(self):
        panel = small_panel(days=120, seed=41)
        for col in range(24):
            pos = rel_hlc(panel.close[:, col], panel.high[:, col], panel.low[:, col])
            spread = hl_spread(panel.high[:, col], panel.low[:, col])
            assert np.all((pos >= 0.0) & (pos <= 1.0))
            assert np.all(spread >= 0.0)


class TestPanelWideTransforms:
    """Each row of an (N, T) input gets exactly what it gets as a (T,) series."""

    def test_instrument_features_rows(self):
        panel = small_panel(days=70, seed=37)
        rows = [np.ascontiguousarray(getattr(panel, name).T) for name in PANEL_HEADER[1:]]
        got = instrument_features(*rows)
        assert got.shape == (24, 70, N_FEATURES)
        for k in range(24):
            want = instrument_features(*(r[k] for r in rows))
            assert np.array_equal(got[k], want, equal_nan=True), f"instrument {k}"

    def test_transforms_on_two_rows(self):
        rng = np.random.default_rng(41)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=(2, 40)), axis=1))
        prices[1, 10:17] = prices[1, 10]  # flat stretch: degenerate moments and range
        r = log_diff(prices)
        assert np.array_equal(r, [log_diff(p) for p in prices], equal_nan=True)
        for w in (5, 10, 22):
            both = rolling_stats(r, w)
            for k in range(2):
                for got, want in zip(both, rolling_stats(r[k], w)):
                    assert np.array_equal(got[k], want, equal_nan=True)
            want = [rel_minmax(p, w) for p in prices]
            assert np.array_equal(rel_minmax(prices, w), want, equal_nan=True)

    def test_window_measured_along_last_axis(self):
        with pytest.raises(WindowTooLarge):
            rolling_stats(np.ones((3, 4)), 5)
        with pytest.raises(WindowTooLarge):
            rel_minmax(np.ones((3, 4)), 5)


class TestMovementLabel:
    def test_dead_zone(self):
        assert movement_label(5e-5) == 0
        assert movement_label(1e-4) == 0  # boundary inside the dead zone
        assert movement_label(-1e-4) == 0

    def test_directions(self):
        assert movement_label(2e-4) == 1
        assert movement_label(-2e-4) == -1


class TestAssemble:
    def test_shapes_and_counts(self):
        panel = small_panel()
        fp = assemble(panel, "FX6", split=0.9)
        assert len(FEATURE_NAMES) == N_FEATURES == 20
        assert fp.raw.shape == (panel.n_days - WARMUP - 1, 20, 6, 4)
        assert fp.dates[0] == panel.dates[WARMUP]
        assert not np.isnan(fp.raw).any()

    def test_every_entry_matches_scalar_recomputation(self):
        panel = small_panel(days=60, seed=3)
        fp = assemble(panel, "FX6", split=0.9)
        for i in range(fp.n_days):
            t = i + WARMUP
            for col in range(24):
                want = feature_vector_scalar(
                    panel.close[:, col],
                    panel.high[:, col],
                    panel.low[:, col],
                    panel.volume[:, col],
                    panel.open_interest[:, col],
                    t,
                )
                got = fp.raw[i, :, col % N_SLOTS, col // N_SLOTS]
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (
                    f"day {i} instrument {col}"
                )

    def test_labels_from_next_day_return(self):
        panel = small_panel(days=70, seed=5)
        fp = assemble(panel, "FX6", split=0.9)
        target_col = panel.column_of("FX6")
        r = log_diff(panel.close[:, target_col])
        for i in range(fp.n_days):
            nxt = r[i + WARMUP + 1]
            assert fp.labels[i] == movement_label(nxt)
            assert fp.target_next_return[i] == pytest.approx(nxt, rel=1e-14)

    def test_normalization_on_training_split(self):
        panel = small_panel(days=120, seed=7)
        fp = assemble(panel, "FX6", split=0.9)
        train = fp.normalized[: fp.n_train]
        nondegenerate = fp.raw[: fp.n_train].std(axis=0) > 1e-12
        mean = train.mean(axis=0)
        std = train.std(axis=0)
        assert np.max(np.abs(mean[nondegenerate])) < 1e-10
        assert np.max(np.abs(std[nondegenerate] - 1.0)) < 1e-10
        # open interest is identically zero outside commodities -> zeroed
        assert not nondegenerate[19, :, ASSET_CLASSES.index("equities")].any()
        assert np.array_equal(
            train[:, 19, :, ASSET_CLASSES.index("equities")],
            np.zeros((fp.n_train, N_SLOTS)),
        )

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(WARMUP + 3, 90))
    def test_no_lookahead_under_truncation(self, cut):
        panel = small_panel(days=90, seed=11)
        full = assemble(panel, "FX6", split=0.9)
        part = assemble(cut_panel(panel, cut), "FX6", split=0.9)
        n = part.n_days
        assert n == cut - WARMUP - 1
        assert np.array_equal(full.raw[:n], part.raw)
        assert np.array_equal(full.labels[:n], part.labels)
        # the trimmed days stop one short of the cut; untrimmed, the cut
        # panel's last day stays, where a feature reading a day ahead differs
        want = instrument_features(*panel_series(panel))[:, :cut]
        got = instrument_features(*panel_series(cut_panel(panel, cut)))
        assert np.array_equal(want, got, equal_nan=True)

    def test_tensor_views_share_buffer(self):
        fp = assemble(small_panel(), "FX6", split=0.9)
        train, _ = fp.samples(1)
        x = train[0].inputs[0]
        assert x.shape == (2, 2, 5, 6, 4)
        assert np.array_equal(x.data, DenseTensor.from_ndarray(fp.normalized[0]).data)
        assert np.shares_memory(x.data, fp.normalized)
        z = reshape(x, (20, 6, 4))
        assert reshape(z, (2, 2, 5, 6, 4)).data is z.data

    def test_samples_split(self):
        fp = assemble(small_panel(days=100), "FX6", split=0.9)
        train, test = fp.samples(10)
        assert all(s.end_index < fp.n_train for s in train)
        assert all(s.end_index >= fp.n_train for s in test)
        assert len(train) + len(test) == fp.n_days - 9
        assert all(len(s.inputs) == 10 for s in train + test)

    def test_unknown_target(self):
        with pytest.raises(UnknownTarget):
            assemble(small_panel(), "NOPE", split=0.9)

    @pytest.mark.parametrize(
        "series, high, low",
        [
            ("volume", 1e308, 9e307),  # the mean overflows: NaN
            ("open_interest", 1e200, -1e200),  # only the variance overflows: all zeros
        ],
    )
    def test_overflowing_normalization_names_the_column(self, series, high, low):
        panel = small_panel()
        getattr(panel, series)[:, 3] = np.where(np.arange(panel.n_days) % 2, low, high)
        with pytest.raises(DataError, match=f"feature {series} of EQ4 overflows"):
            assemble(panel, "FX6", split=0.9)

    def test_insufficient_history(self):
        tiny = cut_panel(small_panel(days=80), WARMUP + 1)
        with pytest.raises(InsufficientHistory):
            assemble(tiny, "FX6", split=0.9)


class TestSynthPanel:
    def test_deterministic(self):
        a = small_panel(days=50, seed=9)
        b = small_panel(days=50, seed=9)
        assert a.dates == b.dates
        assert np.array_equal(a.close, b.close)
        assert np.array_equal(a.open_interest, b.open_interest)

    def test_panel_invariants(self):
        p = small_panel(days=50, seed=2)
        assert len(p.instruments) == 24
        assert np.all(p.high >= p.low)
        assert np.all(p.close > 0)
        by_class = {}
        for meta in p.instruments:
            by_class.setdefault(meta.asset_class, []).append(meta.class_slot)
        assert set(by_class) == set(ASSET_CLASSES)
        assert all(sorted(slots) == list(range(1, 7)) for slots in by_class.values())

    def test_no_signal_label_frequencies(self):
        panel = small_panel(days=1000, strength=0.0, seed=13)
        fp = assemble(panel, "FX6", split=0.9)
        n = fp.n_days
        vol = 0.01
        p_up = 0.5 * math.erfc(1e-4 / (vol * math.sqrt(2.0)))
        band = 3.0 * math.sqrt(p_up * (1 - p_up) / n)
        freq_up = float(np.mean(fp.labels == 1))
        freq_down = float(np.mean(fp.labels == -1))
        assert abs(freq_up - p_up) <= band
        assert abs(freq_down - p_up) <= band

    def test_full_signal_bayes_rule(self):
        panel = small_panel(days=400, strength=1.0, seed=17)
        fp = assemble(panel, "FX6", split=0.9)
        driver_r = log_diff(panel.close[:, panel.column_of("EQ1")])
        hits = 0
        for i in range(fp.n_days):
            rule = 1 if driver_r[i + WARMUP] > 0 else -1
            hits += rule == fp.labels[i]
        assert hits / fp.n_days > 0.9

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SynthConfig(days=10).validate()
        with pytest.raises(ConfigError):
            SynthConfig(signal_strength=1.5).validate()
        with pytest.raises(ConfigError):
            SynthConfig(target="EQ1", driver="EQ1").validate()

    def test_days_end_at_the_calendar(self):
        # the last date of SynthConfig(days=2919628) is 9999-12-31; its panel is never drawn
        SynthConfig(days=2919628).validate()
        with pytest.raises(ConfigError, match="^synth_days 2919629 would date the panel past "):
            SynthConfig(days=2919629).validate()

    def test_dates_are_consecutive_iso_days(self):
        start = datetime.date(2006, 5, 1)
        want = [(start + datetime.timedelta(days=t)).isoformat() for t in range(700)]
        assert small_panel(days=700).dates == want


class TestPanelCSV:
    def test_write_load_roundtrip(self, tmp_path):
        panel = small_panel(days=40, seed=19)
        manifest = write_panel(panel, tmp_path)
        back = load_panel(manifest)
        assert back.dates == panel.dates
        assert [m.symbol for m in back.instruments] == [m.symbol for m in panel.instruments]
        for name in ("close", "high", "low", "volume", "open_interest"):
            assert np.array_equal(getattr(back, name), getattr(panel, name))

    def test_write_is_deterministic(self, tmp_path):
        panel = small_panel(days=40, seed=23)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_panel(panel, d1)
        write_panel(panel, d2)
        for f in sorted(p.name for p in d1.iterdir()):
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()

    def test_duplicate_dates_rejected(self, tmp_path):
        panel = small_panel(days=40, seed=29)
        manifest = write_panel(panel, tmp_path)
        victim = tmp_path / "EQ1.csv"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(MisalignedDates):
            load_panel(manifest)

    def test_wrong_instrument_count_rejected(self, tmp_path):
        panel = small_panel(days=40, seed=31)
        manifest = write_panel(panel, tmp_path)
        lines = (tmp_path / "manifest.csv").read_text().splitlines()
        (tmp_path / "manifest.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MisalignedDates):
            load_panel(manifest)

    def test_dates_disjoint_from_earlier_files_name_the_file(self, tmp_path):
        manifest = write_panel(small_panel(days=40, seed=37), tmp_path)
        victim = tmp_path / "FX2.csv"
        victim.write_text(victim.read_text().replace("2006-", "2016-"))
        with pytest.raises(MisalignedDates, match=rf"FX2\.csv: instrument files share no common"):
            load_panel(manifest)

    @staticmethod
    def set_cell(path, row, column, value):
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[PANEL_HEADER.index(column)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return cells[0]

    @pytest.mark.parametrize(
        "column, value", [("close", "nan"), ("volume", "-inf"), ("open_interest", "inf")]
    )
    def test_non_finite_value_rejected(self, tmp_path, column, value):
        manifest = write_panel(small_panel(days=40, seed=43), tmp_path)
        date = self.set_cell(tmp_path / "CO2.csv", 5, column, value)
        with pytest.raises(DataError, match=rf"CO2\.csv: non-finite value on {date}$"):
            load_panel(manifest)

    @pytest.mark.parametrize("spelling", ["2006-5-2", "20060502", "2006-02-30", "02/05/2006"])
    def test_non_iso_date_rejected(self, tmp_path, spelling):
        manifest = write_panel(small_panel(days=40, seed=47), tmp_path)
        self.set_cell(tmp_path / "EQ2.csv", 2, "date", spelling)
        with pytest.raises(DataError, match=rf"EQ2\.csv: date '{spelling}' is not"):
            load_panel(manifest)

    @pytest.mark.parametrize(
        "cells, want",
        [
            # the first bad row is reported, whatever is wrong further down
            ([(3, "close", "abc"), (7, "date", "2006-5-9")], "non-numeric value on {date}"),
            # within a row, the date is checked before the values
            ([(3, "close", "abc"), (3, "date", "2006-5-4")], "date '2006-5-4' is not"),
        ],
        ids=["earlier-row-first", "date-before-value"],
    )
    def test_first_fault_in_file_order(self, tmp_path, cells, want):
        manifest = write_panel(small_panel(days=40, seed=53), tmp_path)
        dates = {row: self.set_cell(tmp_path / "FI4.csv", row, col, v) for row, col, v in cells}
        with pytest.raises(DataError, match=rf"FI4\.csv: {want.format(date=dates[3])}"):
            load_panel(manifest)

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-date-order", "rows-shuffled"])
    def test_unequal_date_sets_align_on_the_common_dates(self, tmp_path, shuffled):
        panel = small_panel(days=40, seed=59)
        manifest = write_panel(panel, tmp_path)
        cuts = {"EQ1.csv": slice(3, None), "FX2.csv": slice(None, 36), "CO5.csv": slice(1, 38)}
        for name, days in cuts.items():  # each loses other days, so only days 3..35 are common
            lines = (tmp_path / name).read_text().splitlines()
            (tmp_path / name).write_text("\n".join([lines[0], *lines[1:][days]]) + "\n")
        lines = (tmp_path / "FI3.csv").read_text().splitlines()
        extra = "2030-01-01," + lines[1].partition(",")[2]  # a date no other file has
        body = [*lines[1:], extra]
        if shuffled:
            np.random.default_rng(2).shuffle(body)
        (tmp_path / "FI3.csv").write_text("\n".join([lines[0], *body]) + "\n")
        back = load_panel(manifest)
        assert back.dates == panel.dates[3:36]
        for name in PANEL_SERIES:
            assert np.array_equal(getattr(back, name), getattr(panel, name)[3:36]), name

    def test_load_holds_the_panel_about_once(self, tmp_path):
        manifest = write_panel(small_panel(days=700, seed=61), tmp_path)
        panel, peak = traced_peak(load_panel, manifest)
        arrays = sum(getattr(panel, name).nbytes for name in PANEL_SERIES)  # 0.64 MiB
        # the panel, each file's columns as parsed and their dates, and one file's rows
        # as read; a table of Python floats for all files together took 6.2 MiB
        assert peak < 4 * 2**20, (peak / 2**20, arrays / 2**20)

    def test_feature_dump(self, tmp_path):
        fp = assemble(small_panel(days=60), "FX6", split=0.9)
        path = tmp_path / "features.csv"
        dump_features_csv(fp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,symbol," + ",".join(FEATURE_NAMES)
        assert len(lines) == 1 + fp.n_days * 24
        # spot-check instrument-to-tensor-slot mapping on the first date
        rows = {line.split(",")[1]: line.split(",") for line in lines[1 : 1 + 24]}
        for symbol, slot, cls in (("EQ1", 0, 0), ("FX3", 2, 1), ("FI6", 5, 3)):
            values = [float(x) for x in rows[symbol][2:]]
            assert np.allclose(values, fp.raw[0, :, slot, cls], rtol=0, atol=0)


class TestModeLabels:
    def test_semantic_labels_for_market_layout(self):
        assert MODE_LABELS == (
            "feature sub-mode 1 (size 2)",
            "feature sub-mode 2 (size 2)",
            "feature sub-mode 3 (size 5)",
            "class components (size 6)",
            "asset classes (size 4)",
        )


def test_only_features_holds_the_market_layout():
    """No module but features holds the layout (2, 2, 5, 6, 4) or "2,2,5,6,4" as a constant."""
    found = []
    for source in Path(ttrnn.__file__).parent.glob("*.py"):
        if source.stem == "features":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Constant, ast.Tuple)):
                try:
                    value = ast.literal_eval(node)
                except ValueError:  # a tuple holding names
                    continue
                if value in ("2,2,5,6,4", (2, 2, 5, 6, 4)):
                    found.append((source.name, node.lineno))
    assert found == []
