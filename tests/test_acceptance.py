"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import dense_layer_apply, feature_vector_scalar, finite_difference_check
from ttrnn.backtest import ZeroVariance, run_backtest, sharpe
from ttrnn.cli import main as cli_main
from ttrnn.config import stream_rng
from ttrnn.features import (
    WARMUP,
    AssetPanel,
    SynthConfig,
    assemble,
    synth_panel,
)
from ttrnn.interpret import core_change
from ttrnn.neural import (
    TrainConfig,
    TTLinearLayer,
    backward,
    evaluate,
    forward_batch,
    init_model,
    train,
    tt_linear_forward,
)
from ttrnn.tensor import DenseTensor
from ttrnn.ttformat import TTMatrix, tt_reconstruct, tt_svd
from ttrnn.backtest import directional_accuracy

IN_DIMS = (2, 2, 5, 6, 4)
REDUCED_HIDDEN = (2, 2, 2, 2, 2)
REDUCED_RANKS = (1, 2, 2, 2, 2, 1)


@contextmanager
def criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def rel_frobenius(got, want) -> float:
    denom = float(np.linalg.norm(want)) or 1.0
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture(scope="module")
def strong_signal_run():
    """Shared by criteria 6 and 8: reduced TT-RNN trained on the full-signal panel."""
    panel = synth_panel(SynthConfig(days=700, signal_strength=1.0), 101)
    fp = assemble(panel, "FX6", split=0.9)
    train_samples, test_samples = fp.samples(10)
    dataset = [s.pair for s in train_samples]
    testset = [s.pair for s in test_samples]
    model = init_model(IN_DIMS, REDUCED_HIDDEN, REDUCED_RANKS, stream_rng(101, "init"))
    cfg = TrainConfig(
        learning_rate=0.05, epochs=20, batch_size=16, seq_len=10,
        ranks=REDUCED_RANKS, seed=101,
    )
    started = time.perf_counter()
    model, log = train(model, dataset, cfg)
    elapsed = time.perf_counter() - started
    _, _, predicted = evaluate(model, testset)
    accuracy = directional_accuracy(predicted, [label for _, label in testset])
    return {
        "log": log,
        "accuracy": accuracy,
        "elapsed": elapsed,
    }


def test_criterion_01_tt_round_trip():
    with criterion(1, "TT-SVD round trip at full rank"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        for _ in range(100):
            order = int(rng.integers(3, 6))
            shape = tuple(int(d) for d in rng.integers(2, 7, size=order))
            t = DenseTensor.from_ndarray(rng.normal(size=shape))
            rebuilt = tt_reconstruct(tt_svd(t))
            assert rel_frobenius(rebuilt.data, t.data) < 1e-10
        assert time.perf_counter() - started < 10.0


def test_criterion_02_mpo_equals_dense():
    with criterion(2, "TT linear forward matches dense reconstruction"):
        rng = np.random.default_rng(1002)
        started = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(1, 5))
            in_dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
            out_dims = tuple(int(d) for d in rng.integers(1, 5, size=n))
            ranks = (1,) + tuple(int(r) for r in rng.integers(1, 5, size=n - 1)) + (1,)
            cores = [
                rng.normal(size=(ranks[k], in_dims[k], out_dims[k], ranks[k + 1]))
                for k in range(n)
            ]
            layer = TTLinearLayer(
                weights=TTMatrix(cores),
                bias=DenseTensor.from_ndarray(rng.normal(size=out_dims)),
            )
            x = DenseTensor.from_ndarray(rng.normal(size=in_dims))
            got = tt_linear_forward(layer, x).to_ndarray()
            want = dense_layer_apply(layer, x)
            assert rel_frobenius(got, want) < 1e-10
        assert time.perf_counter() - started < 10.0


def test_criterion_03_gradient_check():
    with criterion(3, "analytic gradients vs finite differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(1003)
        model = init_model((2, 2, 2), (2, 2, 2), (1, 2, 2, 1), np.random.default_rng(33))
        batch = []
        for label in (1, 0, -1):
            xs = [DenseTensor.from_ndarray(rng.normal(size=(2, 2, 2))) for _ in range(3)]
            batch.append((xs, label))
        _, cache = forward_batch(model, batch)
        grads = backward(model, batch, cache)
        worst = finite_difference_check(
            model, batch, grads, step=1e-5, rel_tol=1e-4, grad_floor=1e-8
        )
        assert worst < 1e-4
        assert time.perf_counter() - started < 60.0


def test_criterion_04_parameter_count(tmp_path, capsys):
    with criterion(4, "full-size parameter count reported by train command"):
        out = tmp_path / "full_dims"
        code = cli_main(
            [
                "train",
                "--out-dir", str(out),
                "--synth-days", "60",
                "--epochs", "1",
                "--hidden-dims", "4,4,4,4,4",
                "--ranks", "6",
                "--batch-size", "8",
                "--learning-rate", "1e-5",
                "--seed", "1",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "TT input layer parameters: 2016" in printed
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tt_input_layer_params"] == 2016
        assert manifest["dense_equivalent_params"] == 491520
        assert manifest["compression_ratio"] == pytest.approx(243.8, abs=0.05)


def test_criterion_05_feature_oracle():
    with criterion(5, "feature tensor matches scalar-loop recomputation"):
        panel = synth_panel(SynthConfig(days=200, signal_strength=0.3), 555)
        fp = assemble(panel, "FX6", split=0.9)
        assert fp.raw.shape[1:] == (20, 6, 4)
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
                got = fp.raw[i, :, col % 6, col // 6]
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        # no look-ahead: cutting the panel after day t leaves day-t features alone
        cut = 120
        truncated = AssetPanel(
            instruments=panel.instruments,
            dates=panel.dates[:cut],
            close=panel.close[:cut],
            high=panel.high[:cut],
            low=panel.low[:cut],
            volume=panel.volume[:cut],
            open_interest=panel.open_interest[:cut],
        )
        part = assemble(truncated, "FX6", split=0.9)
        assert np.array_equal(fp.raw[: part.n_days], part.raw)


def test_criterion_06_learning_sanity(strong_signal_run):
    with criterion(6, "reduced model learns the planted signal"):
        run = strong_signal_run
        assert run["accuracy"] > 0.5
        losses = run["log"].epoch_losses
        for a, b in zip(losses[:4], losses[1:5]):
            assert b < a
        assert run["elapsed"] < 300.0


def test_criterion_07_backtest_identities():
    with criterion(7, "backtest identities and reference values"):
        rng = np.random.default_rng(1007)
        rets = rng.normal(0, 0.01, size=40)
        held = run_backtest(np.ones(40), rets)
        assert np.array_equal(held.daily_returns, held.baseline.daily_returns)
        assert np.array_equal(held.cumulative_profit, held.baseline.cumulative_profit)
        assert held.sharpe == held.baseline.sharpe

        assert sharpe(np.array([0.01, -0.01] * 6)) == 0.0

        rep = run_backtest(np.array([1.0, -1.0]), np.array([0.01, 0.02]))
        assert np.max(np.abs(rep.daily_returns - np.array([0.01, -0.02]))) < 1e-12
        assert np.max(np.abs(rep.cumulative_profit - np.array([0.01, -0.01]))) < 1e-12

        with pytest.raises(ZeroVariance):
            sharpe(np.full(8, 0.02))


def test_criterion_08_interpretability(strong_signal_run):
    with criterion(8, "core-change formula and modal ranking"):
        # hand-computed perturbation: 8 entries moved by 0.1 -> 0.08 / 8
        base = np.zeros((1, 2, 4, 1))
        log = core_change([[base], [base + 0.1]])
        assert log.values[0, 0] == pytest.approx(0.01, rel=1e-12)
        doubled = core_change([[base], [base + 0.2]])
        assert doubled.values[0, 0] == pytest.approx(0.04, rel=1e-12)

        totals = strong_signal_run["log"].core_change.values.sum(axis=1)
        assert totals.shape == (5,)
        assert totals[0] > float(np.median(totals))


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "identical seeds produce byte-identical artifacts"):
        args = [
            "--synth-days", "80",
            "--epochs", "2",
            "--hidden-dims", "2,2,2,2,2",
            "--ranks", "2",
            "--batch-size", "8",
            "--learning-rate", "0.01",
            "--seed", "21",
        ]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli_main(["train", "--out-dir", str(out)] + args) == 0
        for name in ("checkpoint.txt", "epoch_losses.csv", "core_change.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_criterion_10_rank_controls_capacity():
    with criterion(10, "higher TT rank widens the generalization gap"):
        panel = synth_panel(SynthConfig(days=250, signal_strength=0.5), 77)
        fp = assemble(panel, "FX6", split=0.9)
        train_samples, test_samples = fp.samples(10)
        dataset = [s.pair for s in train_samples]
        testset = [s.pair for s in test_samples]

        def mean_gap(rank):
            gaps = []
            for seed in range(5):
                ranks = (1,) + (rank,) * 4 + (1,)
                model = init_model(IN_DIMS, REDUCED_HIDDEN, ranks, stream_rng(seed, "init"))
                cfg = TrainConfig(
                    learning_rate=0.05, epochs=12, batch_size=16, seq_len=10,
                    ranks=ranks, seed=seed,
                )
                trained, log = train(model, dataset, cfg)
                test_loss, _, _ = evaluate(trained, testset)
                gaps.append(test_loss - log.epoch_losses[-1])
            return float(np.mean(gaps))

        assert mean_gap(8) >= mean_gap(2)
