import json
import math

import numpy as np
import pytest

from ttrnn.backtest import (
    InvalidDistribution,
    LengthMismatch,
    ZeroVariance,
    directional_accuracy,
    evaluate_predictions,
    run_backtest,
    sharpe,
    size_positions,
    write_report_json,
    write_track_csv,
)


class TestSizePositions:
    def test_certain_up(self):
        assert size_positions([[1.0, 0.0, 0.0]])[0] == pytest.approx(1.0)

    def test_uniform_is_flat(self):
        assert size_positions([[1 / 3, 1 / 3, 1 / 3]])[0] == pytest.approx(0.0)

    def test_signed_expectation(self):
        assert size_positions([[0.5, 0.2, 0.3]])[0] == pytest.approx(0.2, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(size=(200, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        pos = size_positions(probs)
        assert np.all(np.abs(pos) <= 1.0)

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistribution):
            size_positions([[0.5, 0.2, 0.2]])
        with pytest.raises(InvalidDistribution):
            size_positions([[1.2, -0.1, -0.1]])
        with pytest.raises(InvalidDistribution):
            size_positions(np.full((2, 3), np.nan))


class TestRunBacktest:
    def test_flat_positions_flat_pnl(self):
        rep = run_backtest(np.zeros(5), np.array([0.01, -0.02, 0.0, 0.03, 0.01]))
        assert np.array_equal(rep.cumulative_profit, np.zeros(5))
        assert rep.total_return == 0.0

    def test_constant_long_equals_buy_and_hold(self):
        rng = np.random.default_rng(1)
        rets = rng.normal(0, 0.01, size=30)
        rep = run_backtest(np.ones(30), rets)
        assert np.array_equal(rep.daily_returns, rep.baseline.daily_returns)
        assert np.array_equal(rep.cumulative_profit, rep.baseline.cumulative_profit)
        assert rep.total_return == rep.baseline.total_return
        assert rep.sharpe == rep.baseline.sharpe

    def test_two_day_hand_example(self):
        rep = run_backtest(np.array([1.0, -1.0]), np.array([0.01, 0.02]))
        assert np.allclose(rep.daily_returns, [0.01, -0.02], atol=1e-15)
        assert np.allclose(rep.cumulative_profit, [0.01, -0.01], atol=1e-12)
        assert rep.total_return == pytest.approx(-0.01, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            run_backtest(np.zeros(3), np.zeros(4))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(-1, 1, size=40)
        rets = rng.normal(0, 0.01, size=40)
        base = run_backtest(pos, rets)
        scaled = run_backtest(pos, 3.0 * rets)
        assert scaled.sharpe == pytest.approx(base.sharpe, rel=1e-12)
        assert scaled.total_return == pytest.approx(3.0 * base.total_return, rel=1e-12)

    def test_total_return_is_last_cumulative(self):
        rng = np.random.default_rng(3)
        rep = run_backtest(rng.uniform(-1, 1, 25), rng.normal(0, 0.01, 25))
        assert rep.total_return == rep.cumulative_profit[-1]


    @pytest.mark.parametrize("seed", range(5))
    def test_baseline_total_return_is_its_last_cumulative(self, seed):
        rng = np.random.default_rng(seed)
        rep = run_backtest(rng.uniform(-1, 1, 339), rng.normal(0, 0.01, 339))
        assert rep.baseline.total_return == rep.baseline.cumulative_profit[-1]


class TestSharpe:
    def test_alternating_returns_zero(self):
        rets = np.array([0.01, -0.01] * 5)
        assert sharpe(rets) == 0.0

    def test_constant_returns_undefined(self):
        with pytest.raises(ZeroVariance):
            sharpe(np.full(10, 0.01))

    def test_three_day_reference(self):
        rets = [0.01, 0.02, -0.01]
        mu = sum(rets) / 3
        var = sum((r - mu) ** 2 for r in rets) / 3
        want = math.sqrt(252) * mu / math.sqrt(var)
        assert sharpe(rets) == pytest.approx(want, rel=1e-12)
        assert sharpe(rets) == pytest.approx(8.4853, abs=5e-4)

    def test_needs_two_observations(self):
        with pytest.raises(LengthMismatch):
            sharpe([0.01])


class TestAccuracy:
    def test_identical(self):
        assert directional_accuracy([1, 0, -1, 1], [1, 0, -1, 1]) == 1.0

    def test_disjoint(self):
        assert directional_accuracy([1, 1, 1], [-1, -1, -1]) == 0.0

    def test_uniform_random_near_third(self):
        rng = np.random.default_rng(5)
        n = 3000
        labels = rng.choice([1, 0, -1], size=n)
        preds = rng.choice([1, 0, -1], size=n)
        acc = directional_accuracy(list(preds), list(labels))
        band = 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(acc - 1 / 3) <= band

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            directional_accuracy([1], [1, 0])
        with pytest.raises(LengthMismatch):
            directional_accuracy([], [])


class TestEvaluatePredictions:
    def test_report_fields(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(size=(30, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = list(rng.choice([1, 0, -1], size=30))
        rets = rng.normal(0, 0.01, size=30)
        rep = evaluate_predictions(probs, labels, rets)
        assert 0.0 <= rep.accuracy <= 1.0
        assert rep.baseline is not None
        assert rep.cumulative_profit.shape == (30,)

    def test_uniform_probs_give_flat_strategy(self):
        probs = np.full((10, 3), 1 / 3)
        rets = np.random.default_rng(9).normal(0, 0.01, size=10)
        rep = evaluate_predictions(probs, [1] * 10, rets)
        assert np.allclose(rep.daily_positions, 0.0, atol=1e-15)
        assert not rep.sharpe_defined  # zero returns every day
        assert math.isnan(rep.sharpe)


class TestWriters:
    def test_json_and_csv(self, tmp_path):
        rng = np.random.default_rng(11)
        raw = rng.uniform(size=(12, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = list(rng.choice([1, 0, -1], size=12))
        rets = rng.normal(0, 0.01, size=12)
        rep = evaluate_predictions(probs, labels, rets)
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "track.csv"
        write_report_json(rep, jpath)
        dates = [f"2020-01-{d:02d}" for d in range(1, 13)]
        write_track_csv(rep, dates, cpath)
        payload = json.loads(jpath.read_text())
        assert set(payload) >= {"sharpe", "total_return", "accuracy", "baseline"}
        assert set(payload["baseline"]) >= {"sharpe", "total_return"}
        lines = cpath.read_text().splitlines()
        assert lines[0] == "date,position,daily_return,cumulative_profit,baseline_cumulative"
        assert len(lines) == 13
