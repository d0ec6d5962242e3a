import argparse
import base64
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from memtrace import traced_peak
from ttrnn.cli import build_parser, main
from ttrnn.config import RunConfig
from ttrnn.features import SynthConfig, synth_panel, write_panel
from ttrnn.neural import TTRNNModel, save_model
from ttrnn.tensor import DenseTensor
from ttrnn.ttformat import parse_tt_vector, tt_reconstruct

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
    params = {f"core{k}": core for k, core in enumerate(cores)}
    params.update(
        feedback=np.zeros((32, 32)),
        bias=np.zeros(32),
        head_weights=np.zeros((3, 32)),
        head_bias=np.zeros(3),
    )
    save_model(TTRNNModel.from_params(params), path)


def b64_floats(text):
    """The float64 values of a base64 checkpoint line, as a writable array."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def b64_text(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def assert_one_line_error(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"{kind} error: ") and err.count("\n") == 1, err


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
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


    def test_omitted_model_settings_come_from_the_checkpoint(self, tmp_path):
        # the checkpoint is hidden 2^5, rank 2; RunConfig's defaults are 4^5, rank 6
        ckpt = tmp_path / "zero.txt"
        write_zero_checkpoint(ckpt)
        out = tmp_path / "out"
        code = main(
            ["backtest", "--checkpoint", str(ckpt), "--out-dir", str(out), "--synth-days", "60"]
        )
        assert code == 0
        assert (out / "backtest.json").exists()


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

    @pytest.mark.parametrize("end", ["\r\n", "\r\n\r\n"], ids=["crlf", "crlf-blank-line"])
    def test_crlf_tensor_file(self, tmp_path, capsys, end):
        src = tmp_path / "tensor.txt"
        src.write_bytes(f"tensor dims=2,2\r\n1.0 2.0 3.0 4.0{end}".encode())
        dst = tmp_path / "cores.txt"
        assert main(["decompose", "--input", str(src), "--out", str(dst)]) == 0
        assert np.allclose(tt_reconstruct(parse_tt_vector(dst.read_text())).data, [1, 2, 3, 4])

    def test_out_into_a_new_directory(self, tmp_path, capsys):
        src = tmp_path / "tensor.txt"
        src.write_text("tensor dims=2,2\n1.0 2.0 3.0 4.0\n")
        dst = tmp_path / "new" / "cores.txt"
        assert main(["decompose", "--input", str(src), "--out", str(dst)]) == 0
        assert parse_tt_vector(dst.read_text()).dims == (2, 2)

    def test_bad_ranks_exit_code(self, tmp_path, capsys):
        src = tmp_path / "tensor.txt"
        src.write_text("tensor dims=2,2\n1.0 2.0 3.0 4.0\n")
        code = main(
            ["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt"),
             "--max-ranks", "1,2,2,1"]
        )
        assert code == 4  # shape/rank error


class TestRunFlags:
    def test_run_flags_are_the_run_config_fields(self):
        """Each RunConfig field is one text flag; build_config is the only parser of its value."""
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        names = {f.name for f in fields(RunConfig)}
        for command in ("synth", "features", "train", "backtest"):
            flags = [a for a in commands[command]._actions if a.dest not in ("help", "checkpoint")]
            assert {a.dest for a in flags} == names | {"config"}, command
            for a in flags:
                assert a.option_strings == ["--" + a.dest.replace("_", "-")], a.option_strings
                assert a.type is None, a.dest


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
        with open(manifest) as f:
            lines = f.read().splitlines()
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

    def test_far_core_number_reported_without_listing_every_gap(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change\n1,2,0.5\n1000000,2,0.5\n")
        code, peak = traced_peak(main, ["report-cores", "--log", str(log)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "no row for core 2 epoch 2" in err
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize(
        "damage, where",
        [
            (lambda lines: lines[:4] + ["2,3,nan"] + lines[5:], "line 5: change nan"),
            (lambda lines: lines[:2] + ["1,3,-0.25"] + lines[3:], "line 3: change -0.25"),
            (lambda lines: lines[:3] + lines[4:], "no row for core 2 epoch 2"),
            (lambda lines: lines + ["1,2,0.5"], "line 6: duplicate row for core 1 epoch 2"),
        ],
        ids=["nan", "negative", "missing-cell", "duplicate-row"],
    )
    def test_damaged_core_change_log(self, tmp_path, capsys, damage, where):
        log = tmp_path / "core_change.csv"
        lines = ["core,epoch,normalized_change", "1,2,0.5", "1,3,0.25", "2,2,0.125", "2,3,1.0"]
        log.write_text("\n".join(damage(lines)) + "\n")
        assert main(["report-cores", "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert f"{log}: {where}" in err
        assert not (tmp_path / "core_ranking.json").exists()

    def test_repeated_core_change_column(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change,normalized_change\n1,2,0.5,x\n")
        assert main(["report-cores", "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {log}: column 'normalized_change' appears twice\n", err
        assert not (tmp_path / "core_ranking.json").exists()

    def test_non_utf8_core_change_log(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_bytes(b"core,epoch,normalized_change\n1,2,0.5\xff\n")
        assert main(["report-cores", "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {log}: not UTF-8 text\n", err
        assert not (tmp_path / "core_ranking.json").exists()

    @pytest.mark.parametrize(
        "hidden_dims, message",
        [
            ("4,2,2,2,1", "hidden_dims (4, 2, 2, 2, 1) != core out dims (2, 2, 2, 2, 2)"),
            ("2,2,2,2", "core data line count does not match dims"),
        ],
        ids=["other-dims", "other-mode-count"],
    )
    def test_header_disagrees_with_core_block(self, tmp_path, capsys, hidden_dims, message):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        assert lines[3] == "hidden_dims 2,2,2,2,2"
        lines[3] = f"hidden_dims {hidden_dims}"
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: {message}") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "config, option, message",
        [
            ("", ["--hidden-dims", "4,4,4,4,4"],
             "hidden_dims (4, 4, 4, 4, 4) disagrees with the checkpoint's (2, 2, 2, 2, 2)"),
            ("", ["--ranks", "6"],
             "ranks (1, 6, 6, 6, 6, 1) disagrees with the checkpoint's (1, 2, 2, 2, 2, 1)"),
            ("ranks = 6\n", [],
             "ranks (1, 6, 6, 6, 6, 1) disagrees with the checkpoint's (1, 2, 2, 2, 2, 1)"),
        ],
        ids=["hidden-dims-flag", "ranks-flag", "ranks-in-config-file"],
    )
    def test_setting_disagrees_with_checkpoint(self, tmp_path, capsys, config, option, message):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        code = main(
            ["backtest", "--checkpoint", str(ckpt), "--config", str(cfg), "--out-dir", str(out),
             "--synth-days", "60"] + option
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message} ({ckpt})") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cut",
        [
            lambda lines: ["not-a-model v1"] + lines[1:],  # wrong first line
            lambda lines: lines[:7],  # inside the TT core block
            lambda lines: lines[:11],  # after the core block and bias
            lambda lines: lines[:-1] + [lines[-1] + " 0.0"],  # head_bias too long
            # a first rank of 2, with as many core0 values as that needs
            lambda lines: lines[:4] + [lines[4].replace("ranks=1,", "ranks=2,"),
                                       lines[5] + " " + lines[5]] + lines[6:],
        ],
        ids=["header", "inside-cores", "after-cores", "field-length", "boundary-rank"],
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
        if field.startswith("core"):  # the decimal TT core block
            lines[row] = lines[row].replace("0.0", "nan", 1)
        else:  # a base64 dense line
            values = b64_floats(lines[row].partition(" ")[2])
            values[0] = np.nan
            lines[row] = f"{field} {b64_text(values)}"
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(ckpt) in err and f"{field} has non-finite" in err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[:10] + "*" + text[11:],
            lambda text: text[: len(text) // 2],
            lambda text: b64_text(np.append(b64_floats(text), 1.0)),
            lambda text: b64_text(b64_floats(text)[:-1]),
        ],
        ids=["bad-character", "truncated", "one-value-too-many", "one-value-too-few"],
    )
    def test_damaged_base64_line(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        name, _, text = lines[11].partition(" ")
        assert name == "feedback"
        lines[11] = f"{name} {damage(text)}"
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert f"{ckpt}: feedback: " in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda lines: lines[:4] + [lines[4].replace(" out=", " out=9 out=")] + lines[5:],
             "header key 'out' appears twice"),
            # a second feedback line of zeros would otherwise replace the first
            (lambda lines: lines[:12] + [lines[11]] + lines[12:], "feedback line appears twice"),
        ],
        ids=["core-block-header-key", "dense-line"],
    )
    def test_repeated_checkpoint_entry(self, tmp_path, capsys, damage, message):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        assert lines[4].startswith("ttmat ") and lines[11].startswith("feedback ")
        ckpt.write_text("\n".join(damage(lines)) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: {message}\n", err

    def test_core_block_header_with_stray_key(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        assert lines[4].startswith("ttmat ")
        lines[4] += " inn=3"
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: unexpected header key 'inn'\n", err

    def test_core_block_header_with_two_negative_sizes(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_text().splitlines()
        # core0 keeps its 1 * (-2) * (-2) * 2 = 8 values, so only the sizes' signs are wrong
        lines[4] = lines[4].replace("in=2,", "in=-2,").replace("out=2,", "out=-2,")
        assert lines[4].startswith("ttmat in=-2,2,5,6,4 out=-2,2,2,2,2 ")
        ckpt.write_text("\n".join(lines) + "\n")
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: expected a 'ttmat in=... out=... ranks=...' "
                              "header of positive integer lists"), err
        assert err.count("\n") == 1, err

    def test_non_utf8_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_bytes().split(b"\n")
        ckpt.write_bytes(b"\n".join([lines[0], b"\xff"] + lines[2:]))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: not UTF-8 text\n", err

    def test_non_ascii_byte_in_base64_line(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_bytes().split(b"\n")
        assert lines[11].startswith(b"feedback ")
        lines[11] = lines[11][:20] + b"\xe9" + lines[11][21:]
        ckpt.write_bytes(b"\n".join(lines))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: feedback: not valid base64\n", err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 2\nseed = \xff\n")
        code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(cfg) in err
        assert not (tmp_path / "checkpoint.txt").exists()

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

    @pytest.mark.parametrize("name", ["CO3.csv", "manifest.csv"])
    def test_repeated_csv_column(self, tmp_path, capsys, name):
        manifest = write_panel(synth_panel(SynthConfig(days=50), 1), tmp_path / "data")
        path = tmp_path / "data" / name
        lines = path.read_text().splitlines()
        column = lines[0].split(",")[1]
        # the column read first holds junk: with the repeat allowed, it would be used
        lines = [lines[0].replace(f",{column},", f",{column},{column},", 1)] + [
            line.replace(",", ",999,", 1) for line in lines[1:]
        ]
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {path}: column {column!r} appears twice\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "column, value",
        [(5, "inf"), (1, "nan"), (0, "2006-5-4")],
        ids=["inf-open-interest", "nan-close", "unpadded-date"],
    )
    def test_bad_instrument_value(self, tmp_path, capsys, column, value):
        manifest = write_panel(synth_panel(SynthConfig(days=50), 1), tmp_path / "data")
        csv_path = tmp_path / "data" / "CO3.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(csv_path) in err and cells[0] in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"config": {"in_dims": ',
            '{"config": {"in_dims": "2,x,2"}}',
            '["config"]',
            '{"config": {"in_dims": "2,2"}}',
            '{"config": {"in_dims": "2,2,2,2"}}',
            '{"config": {"in_dims": "2,0,2"}}',
            '{"config": {"in_dims": "-2,2,2"}}',
        ],
        ids=["not-json", "non-integer-dims", "not-an-object", "too-few-modes", "too-many-modes",
             "zero-mode-size", "negative-mode-size"],
    )
    def test_malformed_run_manifest(self, tmp_path, capsys, text):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change\n1,1,0.5\n2,1,0.25\n3,1,0.125\n")
        manifest = tmp_path / "run_manifest.json"
        manifest.write_text(text)
        assert main(["report-cores", "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(manifest) in err
        assert not (tmp_path / "core_ranking.json").exists()

    def test_missing_explicit_manifest(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change\n1,1,0.5\n2,1,0.25\n")
        # the default manifest next to the log is optional
        assert main(["report-cores", "--log", str(log)]) == 0
        assert "[data mode 1]" in capsys.readouterr().out
        os.remove(tmp_path / "core_ranking.json")
        missing = tmp_path / "nope.json"
        assert main(["report-cores", "--log", str(log), "--manifest", str(missing)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(missing) in err
        assert not (tmp_path / "core_ranking.json").exists()

    def test_empty_manifest_path(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), "--synth-days", "60"]) == 0
        manifest = tmp_path / "data" / "manifest.csv"
        manifest.write_bytes(manifest.read_bytes().replace(b",EQ1.csv", b","))
        capsys.readouterr()
        code = main(["features", "--out-dir", str(tmp_path / "out"), "--data-manifest",
                     str(manifest)])
        assert code == 3
        err = capsys.readouterr().err
        row = "('EQ1', 'equities', '1', '')"
        assert err == f"data error: {manifest}: bad manifest row {row}\n", err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["EQ3.csv", "manifest.csv"])
    def test_non_utf8_panel_file(self, tmp_path, capsys, name):
        manifest = write_panel(synth_panel(SynthConfig(days=50), 1), tmp_path / "data")
        bad = tmp_path / "data" / name
        bad.write_bytes(bad.read_bytes() + b"\xff")
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(bad) in err

    def test_non_utf8_tensor_file(self, tmp_path, capsys):
        src = tmp_path / "tensor.bin"
        src.write_bytes(b"\x00\xff\xfe\x01")
        code = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(src) in err

    @pytest.mark.parametrize(
        "key",
        ["synth_days", "signal_strength", "split", "seq_len", "epochs", "batch_size",
         "learning_rate", "seed"],
    )
    def test_non_numeric_setting_from_flag_or_file(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        errors = []
        for given in (["--" + key.replace("_", "-"), "x"], ["--config", str(cfg)]):
            assert main(["train", "--out-dir", str(tmp_path / "out")] + given) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1], errors
        assert errors[0].startswith(f"config error: bad value for {key!r}: "), errors[0]
        assert errors[0].count("\n") == 1, errors[0]
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\n# a comment\nseed = 1\nepochs = 3\n")
        code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}:4: duplicate key 'epochs' (first on line 1)\n", err
        assert not (tmp_path / "out").exists()

    def test_hidden_dims_too_large_to_allocate(self, tmp_path, capsys):
        # M = 1000^5: numpy refuses the M x M feedback matrix before allocating anything
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--synth-days", "60", "--epochs", "1",
             "--hidden-dims", "1000,1000,1000,1000,1000"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: hidden_dims ") and err.count("\n") == 1, err
        assert "feedback matrix" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", [["--learning-rate", "nan"], ["--ranks", "0"]])
    def test_bad_setting(self, tmp_path, capsys, option):
        code = main(["train", "--out-dir", str(tmp_path)] + FAST + option)
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "epoch_losses.csv").exists()

    def test_normalization_overflow(self, tmp_path, capsys):
        panel = synth_panel(SynthConfig(days=60), 1)
        panel.volume[:, 3] = np.where(np.arange(60) % 2, 9e307, 1e308)
        manifest = write_panel(panel, tmp_path / "data")
        code = main(
            ["train", "--out-dir", str(tmp_path / "out"), "--data-manifest", manifest] + FAST
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "volume of EQ4" in err
        assert not (tmp_path / "out" / "checkpoint.txt").exists()

    def test_divergent_training(self, tmp_path, capsys):
        code = main(["train", "--out-dir", str(tmp_path)] + FAST + ["--learning-rate", "1e3"])
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "checkpoint.txt").exists()

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("tensor dims=2,x\n1.0 2.0\n", "expected a 'tensor dims=...' header"),
            ("tensor dims=2,2\n1.0 2.0 abc 4.0\n", "bad number"),
            ("", "expected a 'tensor dims=...' header"),
            ("tensor dims=2,2\n1.0 nan 3.0 4.0\n", "tensor values must be finite"),
            ("tensor dims=2,3 dims=4\n1.0 2.0 3.0 4.0\n", "header key 'dims' appears twice"),
            ("tensor dims=2,3\n1.0 2.0 3.0\n", "expected 6 values, got 3"),
        ],
        ids=["bad-dims", "non-numeric-value", "empty-file", "nan-value", "repeated-key",
             "too-few-values"],
    )
    def test_malformed_tensor_file(self, tmp_path, capsys, text, detail):
        src = tmp_path / "tensor.txt"
        src.write_text(text)
        code = main(["decompose", "--input", str(src), "--out", str(tmp_path / "o.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {src}: ") and err.count("\n") == 1, err
        assert detail in err
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
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
