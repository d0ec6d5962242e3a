import math

import numpy as np
import pytest

from oracles import feature_vector_scalar
from ttrnn.errors import ConfigError, DataError
from ttrnn.features import (
    ASSET_CLASSES,
    FEATURE_NAMES,
    InsufficientHistory,
    MisalignedDates,
    N_FEATURES,
    N_SLOTS,
    NonPositivePrice,
    PANEL_HEADER,
    SynthConfig,
    UnknownTarget,
    WARMUP,
    WindowTooLarge,
    AssetPanel,
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


def small_panel(days=80, strength=0.0, seed=0):
    return synth_panel(SynthConfig(days=days, signal_strength=strength), seed)


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
        nondegenerate = fp.feature_std > 1e-12
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

    def test_no_lookahead_under_truncation(self):
        panel = small_panel(days=90, seed=11)
        cut = 60
        truncated = AssetPanel(
            instruments=panel.instruments,
            dates=panel.dates[:cut],
            close=panel.close[:cut],
            high=panel.high[:cut],
            low=panel.low[:cut],
            volume=panel.volume[:cut],
            open_interest=panel.open_interest[:cut],
        )
        full = assemble(panel, "FX6", split=0.9)
        part = assemble(truncated, "FX6", split=0.9)
        n = part.n_days
        assert np.array_equal(full.raw[:n], part.raw)

    def test_tensor_views_share_buffer(self):
        fp = assemble(small_panel(), "FX6", split=0.9)
        z = fp.z_tensor(0)
        x = fp.x_tensor(0)
        assert z.shape == (20, 6, 4) and x.shape == (2, 2, 5, 6, 4)
        x2 = fp.x_tensor(0)
        assert np.array_equal(x.data, x2.data)
        from ttrnn.tensor import reshape

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

    def test_insufficient_history(self):
        panel = small_panel(days=80)
        cut = WARMUP + 1
        tiny = AssetPanel(
            instruments=panel.instruments,
            dates=panel.dates[:cut],
            close=panel.close[:cut],
            high=panel.high[:cut],
            low=panel.low[:cut],
            volume=panel.volume[:cut],
            open_interest=panel.open_interest[:cut],
        )
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
