"""Daily-rebalanced simulated trading from class probabilities.

Positions are the signed expectation p(up) - p(down), so they live in
[-1, 1], vanish under uninformative probabilities and grow with
directional confidence.  Day-t positions earn the target's day t -> t+1
log return; profits accumulate additively.  No transaction costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, LengthMismatch
from .files import write_csv, write_json
from .neural import LABELS

TRADING_DAYS_PER_YEAR = 252


class InvalidDistribution(DataError):
    pass


class ZeroVariance(DataError):
    """Sharpe is undefined for constant returns."""


def size_positions(probs) -> np.ndarray:
    """Map per-day (up, flat, down) probabilities to positions in [-1, 1]."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise InvalidDistribution(f"expected (days, 3) probabilities, got {p.shape}")
    # tests written as what must hold, so that NaN, which passes no comparison, fails
    if not (np.all(p >= -1e-12) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)):
        raise InvalidDistribution("rows must be finite probability distributions")
    return p[:, 0] - p[:, 2]


def sharpe(daily_returns) -> float:
    """Annualized mean-over-std of daily returns (population std)."""
    r = np.asarray(daily_returns, dtype=np.float64)
    if r.size < 2:
        raise LengthMismatch("need at least 2 observations")
    mu = float(r.mean())
    sigma = float(r.std())
    # a constant series leaves rounding noise of order eps*|value| in sigma
    scale = float(np.max(np.abs(r)))
    if sigma <= 1e-12 * max(scale, 1e-300):
        raise ZeroVariance("constant returns have no defined Sharpe ratio")
    return math.sqrt(TRADING_DAYS_PER_YEAR) * mu / sigma


def directional_accuracy(predicted_classes, true_classes) -> float:
    """Fraction of days with an exact 3-class match."""
    pred = list(predicted_classes)
    true = list(true_classes)
    if not pred or len(pred) != len(true):
        raise LengthMismatch(
            f"predictions ({len(pred)}) and labels ({len(true)}) must align and be non-empty"
        )
    hits = sum(1 for a, b in zip(pred, true) if a == b)
    return hits / len(pred)


@dataclass
class BacktestReport:
    daily_positions: np.ndarray
    daily_returns: np.ndarray
    cumulative_profit: np.ndarray
    sharpe: float  # NaN when undefined
    sharpe_defined: bool
    total_return: float
    accuracy: float  # NaN when class data was not supplied
    baseline: "BacktestReport | None" = None


def _track(positions, returns, baseline=None) -> BacktestReport:
    """The report of holding ``positions`` over ``returns``.

    Its total return is its last cumulative profit.
    """
    daily = positions * returns
    cumulative = np.cumsum(daily)
    try:
        sharpe_value, defined = sharpe(daily), True
    except (ZeroVariance, LengthMismatch):  # one-day tracks have no defined Sharpe either
        sharpe_value, defined = float("nan"), False
    return BacktestReport(
        daily_positions=positions,
        daily_returns=daily,
        cumulative_profit=cumulative,
        sharpe=sharpe_value,
        sharpe_defined=defined,
        total_return=float(cumulative[-1]),
        accuracy=float("nan"),
        baseline=baseline,
    )


def run_backtest(positions, target_returns) -> BacktestReport:
    """Simulate the strategy and the constant-long baseline.

    ``target_returns[t]`` is the target's log return from day t to t+1,
    i.e. the return the day-t position captures.
    """
    pos = np.asarray(positions, dtype=np.float64)
    ret = np.asarray(target_returns, dtype=np.float64)
    if pos.shape != ret.shape or pos.ndim != 1:
        raise LengthMismatch(f"positions {pos.shape} and returns {ret.shape} must align")
    if pos.size == 0:
        raise LengthMismatch("empty track")
    return _track(pos, ret, _track(np.ones_like(ret), ret))


def evaluate_predictions(probs, true_labels, target_returns) -> BacktestReport:
    """Full report from model probabilities: sizing, PnL and accuracy."""
    pos = size_positions(probs)
    report = run_backtest(pos, target_returns)
    p = np.asarray(probs, dtype=np.float64)
    predicted = [LABELS[int(k)] for k in np.argmax(p, axis=1)]
    report.accuracy = directional_accuracy(predicted, list(true_labels))
    return report


def write_report_json(report: BacktestReport, path):
    def block(r):
        return {
            "sharpe": None if not r.sharpe_defined else r.sharpe,
            "sharpe_defined": r.sharpe_defined,
            "total_return": r.total_return,
            "accuracy": None if math.isnan(r.accuracy) else r.accuracy,
            "n_days": int(r.daily_returns.size),
        }

    payload = block(report)
    payload["baseline"] = block(report.baseline)
    write_json(path, payload)


def write_track_csv(report: BacktestReport, dates, path):
    """Daily track record, plottable as a cumulative-profit chart."""
    if len(dates) != report.daily_returns.size:
        raise LengthMismatch("dates do not align with the track record")
    table = np.column_stack([report.daily_positions, report.daily_returns,
                             report.cumulative_profit, report.baseline.cumulative_profit])
    header = ["date", "position", "daily_return", "cumulative_profit", "baseline_cumulative"]
    write_csv(path, header, ([date, *values] for date, values in zip(dates, table.tolist())))
