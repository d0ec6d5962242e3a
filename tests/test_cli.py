import json
import os

import numpy as np
import pytest

from ttrnn.cli import main
from ttrnn.features import SynthConfig, synth_panel, write_panel
from ttrnn.neural import TTLinearLayer, TTRNNModel, save_model
from ttrnn.tensor import DenseTensor
from ttrnn.ttformat import TTMatrix, parse_tt_vector, tt_reconstruct

FAST = [
    "--synth-days", "60",
    "--epochs", "2",
    "--hidden-dims", "2,2,2,2,2",
    "--ranks", "2",
    "--batch-size", "8",
    "--learning-rate", "0.01",
    "--seed", "11",
]


def write_zero_checkpoint(path):
    """Checkpoint of an all-zero model sized for FAST's hidden dims and ranks."""
    in_dims, hidden = (2, 2, 5, 6, 4), (2, 2, 2, 2, 2)
    ranks = (1, 2, 2, 2, 2, 1)
    cores = [
        np.zeros((ranks[k], in_dims[k], hidden[k], ranks[k + 1]))
        for k in range(5)
    ]
    model = TTRNNModel(
        input_layer=TTLinearLayer(weights=TTMatrix(cores), bias=DenseTensor.zeros(hidden)),
        feedback=np.zeros((32, 32)),
        head_weights=np.zeros((3, 32)),
        head_bias=np.zeros(3),
    )
    save_model(model, path)


def assert_one_line_error(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1, err


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestSynth:
    def test_writes_panel_files(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), "--synth-days", "50", "--seed", "3"]) == 0
        files = sorted(os.listdir(tmp_path / "data"))
        assert "manifest.csv" in files
        assert len(files) == 25  # 24 instruments + manifest
        manifest = (tmp_path / "data" / "manifest.csv").read_text().splitlines()
        assert len(manifest) == 25
        classes = [line.split(",")[1] for line in manifest[1:]]
        for cls in ("equities", "currencies", "commodities", "fixed_income"):
            assert classes.count(cls) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out-dir", str(out), "--synth-days", "50", "--seed", "9"]) == 0
        assert read_tree(a) == read_tree(b)


class TestFeaturesCommand:
    def test_writes_audit_csv(self, tmp_path):
        assert main(["features", "--out-dir", str(tmp_path), "--synth-days", "60", "--seed", "2"]) == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert lines[0].startswith("date,symbol,log_diff,")
        assert len(lines) > 24


class TestTrainCommand:
    def test_artifacts_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out-dir", str(out)] + FAST) == 0
        for name in ("checkpoint.txt", "epoch_losses.csv", "core_change.csv", "run_manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tt_input_layer_params"] == 128
        assert manifest["dense_equivalent_params"] == 480 * 32
        assert manifest["config"]["seed"] == 11
        printed = capsys.readouterr().out
        assert "TT input layer parameters: 128" in printed

    def test_deterministic_checkpoints_and_logs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--out-dir", str(out)] + FAST) == 0
        ta, tb = read_tree(a), read_tree(b)
        # out_dir differs inside run_manifest.json; everything else matches
        for name in ("checkpoint.txt", "epoch_losses.csv", "core_change.csv"):
            assert ta[name] == tb[name]

    def test_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synth_days = 60\n"
            "epochs = 1\n"
            "hidden_dims = 2,2,2,2,2\n"
            "ranks = 2\n"
            "batch_size = 8\n"
            "learning_rate = 0.01  # overridden below\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "seed = 4\n"
        )
        assert main(["train", "--config", str(cfg), "--learning-rate", "0.02"]) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["config"]["learning_rate"] == 0.02  # flag beats file


class TestBacktestCommand:
    def test_report_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out-dir", str(out)] + FAST) == 0
        assert (
            main(
                ["backtest", "--checkpoint", str(out / "checkpoint.txt"), "--out-dir", str(out)]
                + FAST
            )
            == 0
        )
        payload = json.loads((out / "backtest.json").read_text())
        assert set(payload) >= {"sharpe", "total_return", "accuracy", "baseline"}
        lines = (out / "track.csv").read_text().splitlines()
        assert lines[0] == "date,position,daily_return,cumulative_profit,baseline_cumulative"
        assert len(lines) > 1


class TestZeroModelBacktest:
    def test_uniform_probabilities_give_flat_pnl(self, tmp_path, capsys):
        # a zero model predicts (1/3, 1/3, 1/3) every day: no position, no PnL
        ckpt = tmp_path / "zero.txt"
        write_zero_checkpoint(ckpt)
        out = tmp_path / "out"
        code = main(
            ["backtest", "--checkpoint", str(ckpt), "--out-dir", str(out)] + FAST
        )
        assert code == 0
        payload = json.loads((out / "backtest.json").read_text())
        assert payload["total_return"] == 0.0
        assert payload["sharpe_defined"] is False
        lines = (out / "track.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[3]) == 0.0 for line in lines)


class TestReportCores:
    def test_ranking_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out-dir", str(out)] + FAST) == 0
        assert main(["report-cores", "--log", str(out / "core_change.csv")]) == 0
        payload = json.loads((out / "core_ranking.json").read_text())
        assert len(payload["ranking"]) == 5
        assert "asset classes" in capsys.readouterr().out


class TestDecompose:
    def test_decompose_tensor_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        t = DenseTensor.from_ndarray(rng.normal(size=(3, 4, 2)))
        src = tmp_path / "tensor.txt"
        src.write_text(
            "tensor dims=3,4,2\n" + " ".join(repr(float(x)) for x in t.data) + "\n"
        )
        dst = tmp_path / "cores.txt"
        assert main(["decompose", "--input", str(src), "--out", str(dst)]) == 0
        tt = parse_tt_vector(dst.read_text())
        err = np.linalg.norm(tt_reconstruct(tt).data - t.data) / np.linalg.norm(t.data)
        assert err < 1e-10

    def test_bad_ranks_exit_code(self, tmp_path, capsys):
        src = tmp_path / "tensor.txt"
        src.write_text("tensor dims=2,2\n1.0 2.0 3.0 4.0\n")
        code = main(
            ["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt"),
             "--max-ranks", "1,2,2,1"]
        )
        assert code == 4  # shape/rank error


class TestExitCodes:
    def test_config_error(self, tmp_path, capsys):
        code = main(["train", "--out-dir", str(tmp_path), "--split", "1.5"] + FAST[:-2])
        assert code == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_data_error(self, tmp_path, capsys):
        panel = synth_panel(SynthConfig(days=50), 1)
        manifest = write_panel(panel, tmp_path / "data")
        lines = open(manifest).read().splitlines()
        with open(manifest, "w") as f:
            f.write("\n".join(lines[:-2]) + "\n")  # drop instruments
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["report-cores", "--log", str(tmp_path / "missing.csv")])
        assert code == 1


class TestBadInputExitCodes:
    """Outside input that is malformed gets its exit code and a one-line message."""

    def test_header_only_core_change_log(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change\n")
        assert main(["report-cores", "--log", str(log)]) == 3
        assert_one_line_error(capsys, "data")

    @pytest.mark.parametrize(
        "cut",
        [
            lambda lines: ["not-a-model v1"] + lines[1:],  # wrong first line
            lambda lines: lines[:7],  # inside the TT core block
            lambda lines: lines[:11],  # after the core block and bias
            lambda lines: lines[:-1] + [lines[-1] + " 0.0"],  # head_bias too long
        ],
        ids=["header", "inside-cores", "after-cores", "field-length"],
    )
    def test_damaged_checkpoint(self, tmp_path, capsys, cut):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        ckpt.write_text("\n".join(cut(ckpt.read_text().splitlines())) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        assert_one_line_error(capsys, "data")

    @pytest.mark.parametrize("field, row", [("core2", 7), ("feedback", 11), ("head_bias", 13)])
    def test_non_finite_checkpoint_value(self, tmp_path, capsys, field, row):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        lines[row] = lines[row].replace("0.0", "nan", 1)
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(ckpt) in err and f"{field} has non-finite" in err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text.replace("\n2006-05-03,", "\n2006-05-03,abc", 1),
            lambda text: "\n".join(
                ",".join(line.split(",")[:4] + line.split(",")[5:])
                for line in text.splitlines()
            ),
        ],
        ids=["non-numeric-cell", "missing-column"],
    )
    def test_damaged_instrument_csv(self, tmp_path, capsys, damage):
        manifest = write_panel(synth_panel(SynthConfig(days=50), 1), tmp_path / "data")
        csv_path = tmp_path / "data" / "EQ3.csv"
        csv_path.write_text(damage(csv_path.read_text()))
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3
        assert_one_line_error(capsys, "data")

    @pytest.mark.parametrize("option", [["--learning-rate", "nan"], ["--ranks", "0"]])
    def test_bad_setting(self, tmp_path, capsys, option):
        code = main(["train", "--out-dir", str(tmp_path)] + FAST + option)
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "epoch_losses.csv").exists()

    def test_divergent_training(self, tmp_path, capsys):
        code = main(["train", "--out-dir", str(tmp_path)] + FAST + ["--learning-rate", "1e3"])
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "checkpoint.txt").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "tensor dims=2,x\n1.0 2.0\n",
            "tensor dims=2,2\n1.0 2.0 abc 4.0\n",
            "",
            "tensor dims=2,2\n1.0 nan 3.0 4.0\n",
        ],
        ids=["bad-dims", "non-numeric-value", "empty-file", "nan-value"],
    )
    def test_malformed_tensor_file(self, tmp_path, capsys, text):
        src = tmp_path / "tensor.txt"
        src.write_text(text)
        code = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt")])
        assert code == 3
        assert_one_line_error(capsys, "data")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance(self, tmp_path, capsys, tol):
        src = tmp_path / "tensor.txt"
        src.write_text("tensor dims=2,2\n1.0 2.0 3.0 4.0\n")
        code = main(
            ["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt"), "--tol", tol]
        )
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "o.txt").exists()

    def test_malformed_max_ranks(self, tmp_path, capsys):
        src = tmp_path / "tensor.txt"
        src.write_text("tensor dims=2,2\n1.0 2.0 3.0 4.0\n")
        code = main(
            ["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt"),
             "--max-ranks", "1,a,1"]
        )
        assert code == 2
        assert_one_line_error(capsys, "config")
