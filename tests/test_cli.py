import argparse
import hashlib
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from memtrace import traced_peak
from ttrnn import features
from ttrnn.cli import build_parser, main
from ttrnn.config import RunConfig
from ttrnn.features import SynthConfig, synth_panel, write_panel
from ttrnn.neural import TTRNNModel, load_model, save_model
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


# 200 KB of outside input: far longer than an error line may quote
LONG = "x" * 200_000


def write_zero_checkpoint(path):
    """The checkpoint of an all-zero model sized for FAST's hidden dims and ranks."""
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

    # each is refused before anything is drawn: its last date would pass 9999-12-31
    @pytest.mark.parametrize("days", ["1000000000000000000", "100000000000000000000", "2919629"])
    def test_days_too_large_to_generate(self, tmp_path, capsys, days):
        code = main(["synth", "--out-dir", str(tmp_path / "out"), "--synth-days", days])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"config error: synth_days {days} would date the panel past 9999-12-31 "
                       "(at most 2919628)\n"), err
        assert not (tmp_path / "out").exists()


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
        assert "in_dims" not in manifest["config"]  # the feature layout fixes it
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

    def test_one_epoch_run_replaces_every_file_of_an_earlier_run(self, tmp_path, capsys):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["train", "--out-dir", str(out)] + FAST) == 0
        for d in (out, fresh):
            assert main(["train", "--out-dir", str(d)] + FAST + ["--epochs", "1"]) == 0
        trees = {d: read_tree(d) for d in (out, fresh)}
        for d, tree in trees.items():  # out_dir differs inside run_manifest.json
            manifest = json.loads(tree["run_manifest.json"])
            assert manifest["config"].pop("out_dir") == str(d)
            tree["run_manifest.json"] = manifest
        assert trees[out] == trees[fresh]
        assert trees[out]["core_change.csv"] == b"core,epoch,normalized_change\r\n"
        capsys.readouterr()
        log = out / "core_change.csv"
        assert main(["report-cores", "--log", str(log)]) == 3
        assert capsys.readouterr().err == f"data error: {log}: no core-change rows\n"

    def test_parameter_counts_at_unequal_ranks(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--out-dir", str(out)] + FAST + ["--ranks", "2,3,4,5"]) == 0
        model, _ = load_model(out / "checkpoint.txt")
        tt_params = sum(c.size for c in model.cores)
        assert tt_params == 8 + 24 + 120 + 240 + 40  # R_{k-1} * I_k * J_k * R_k per core
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tt_input_layer_params"] == tt_params
        assert manifest["dense_equivalent_params"] == 480 * 32
        printed = capsys.readouterr().out
        assert f"TT input layer parameters: {tt_params} (dense {480 * 32}, " in printed

    def test_data_manifest_read_once_and_its_files_hashed(self, tmp_path, monkeypatch):
        manifest = write_panel(synth_panel(SynthConfig(days=60), 1), tmp_path / "data")
        calls = []
        read_manifest = features.read_manifest
        monkeypatch.setattr(
            features, "read_manifest", lambda path: calls.append(path) or read_manifest(path)
        )
        out = tmp_path / "out"
        assert main(["train", "--out-dir", str(out), "--data-manifest", manifest] + FAST) == 0
        assert calls == [manifest]
        files = list((tmp_path / "data").iterdir())
        assert len(files) == 25  # the manifest and 24 instrument files
        want = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        assert json.loads((out / "run_manifest.json").read_text())["input_hashes"] == want

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
        os.remove(out / "run_manifest.json")  # the log alone names the modes
        assert main(["report-cores", "--log", str(out / "core_change.csv")]) == 0
        payload = json.loads((out / "core_ranking.json").read_text())
        assert len(payload["ranking"]) == 5
        assert "asset classes" in capsys.readouterr().out

    def test_generic_labels_for_another_core_count(self, tmp_path, capsys):
        log = tmp_path / "core_change.csv"
        log.write_text("core,epoch,normalized_change\n1,1,0.5\n2,1,0.25\n")
        assert main(["report-cores", "--log", str(log)]) == 0
        assert "[data mode 1]" in capsys.readouterr().out


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

    def test_in_dims_is_no_setting(self, tmp_path, capsys):
        """The feature layout fixes the input modes: in_dims is neither a config key nor a flag."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("in_dims = 2,2,5,6,4\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'in_dims'\n"
        assert main(["train", "--in-dims", "2,2,5,6,4"]) == 2
        assert capsys.readouterr().err == (
            "config error: unrecognized arguments: --in-dims 2,2,5,6,4\n"
        )

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

    def test_out_of_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        message = ("Unable to allocate 366. MiB for an array with shape (2000000, 24) "
                   "and data type float64")

        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(features, "synth_panel", no_memory)
        assert main(["synth", "--out-dir", str(tmp_path), "--synth-days", "2000000"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_out_of_memory_without_a_message(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(features, "synth_panel", no_memory)
        assert main(["synth", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: out of memory\n"

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
        "argv, message",
        [
            (["train", "--no-such-flag", "1"], "unrecognized arguments: --no-such-flag 1"),
            (["backtest"], "the following arguments are required: --checkpoint"),
            (["retrain"], "argument command: invalid choice: 'retrain'"),
            (["report-cores", "--log", "core_change.csv", "--manifest", "x"],
             "unrecognized arguments: --manifest x"),
            # argparse reads `--flag=--` as an empty list, not as a value
            (["train", "--seed=--"], "argument --seed: expected one argument"),
            (["backtest", "--checkpoint=--"], "argument --checkpoint: expected one argument"),
            (["report-cores", "--log=--"], "argument --log: expected one argument"),
            (["decompose", "--input=--", "--out", "x"], "argument --input: expected one argument"),
            (["synth", "--out-dir=--"], "argument --out-dir: expected one argument"),
            # a line break in an argument is escaped, so the error stays one line
            (["train", "--x\ny\rz"], "unrecognized arguments: --x\\ny\\rz\n"),
        ],
        ids=["unknown-flag", "missing-required-flag", "unknown-command", "report-cores-manifest",
             "train-seed-dashes", "backtest-checkpoint-dashes", "report-cores-log-dashes",
             "decompose-input-dashes", "synth-out-dir-dashes", "line-break-in-flag"],
    )
    def test_bad_command_line(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
        assert not os.listdir(tmp_path)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report-cores", "--help"])
        assert exc.value.code == 0
        assert "--manifest" not in capsys.readouterr().out

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
            (lambda lines: lines[:4] + ["2,3,inf"] + lines[5:], "line 5: change inf"),
            (lambda lines: lines[:2] + ["1,3,-0.25"] + lines[3:], "line 3: change -0.25"),
            (lambda lines: lines[:3] + lines[4:], "no row for core 2 epoch 2"),
            (lambda lines: lines + ["1,2,0.5"], "line 6: duplicate row for core 1 epoch 2"),
        ],
        ids=["nan", "inf", "negative", "missing-cell", "duplicate-row"],
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

    def test_line_break_in_a_file_name_stays_on_the_error_line(self, tmp_path, capsys):
        log = tmp_path / "a\nb.csv"
        log.write_bytes(b"core,epoch,normalized_change\n1,2,0.5\xff\n")
        assert main(["report-cores", "--log", str(log)]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path}/a\\nb.csv: not UTF-8 text\n", err

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

    @pytest.mark.parametrize("field, row", [("core2", 7)])
    def test_non_finite_checkpoint_value(self, tmp_path, capsys, field, row):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_bytes().split(b"\n")
        assert lines[row].startswith(b"0.0 ")  # in the decimal TT core block
        lines[row] = lines[row].replace(b"0.0", b"nan", 1)
        ckpt.write_bytes(b"\n".join(lines))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: {field} has non-finite values\n", err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda lines: lines[:4] + [lines[4].replace(b" out=", b" out=9 out=")] + lines[5:],
             "header key 'out' appears twice"),
        ],
        ids=["core-block-header-key"],
    )
    def test_repeated_checkpoint_entry(self, tmp_path, capsys, damage, message):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        lines = ckpt.read_bytes().split(b"\n")
        assert lines[4].startswith(b"ttmat ")
        ckpt.write_bytes(b"\n".join(damage(lines)))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: {message}\n", err

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_retired_checkpoint_version(self, tmp_path, capsys, version):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob.replace(b"ttrnn-model v3\n", f"ttrnn-model {version}\n".encode(), 1))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {ckpt}: ttrnn-model {version} checkpoints are no longer read; "
                       "re-run ttrnn train\n"), err

    def test_long_first_line_is_read_and_quoted_bounded(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        ckpt.write_bytes(b"a" * (1 << 20))  # 1 MB with no line end
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: not a model checkpoint: {'a' * 15!r}\n", err
        assert len(err.encode()) < 200, len(err)

    @pytest.mark.parametrize(
        "name, text, code, what",
        [
            ("run.cfg", LONG + "\n", 2, "expected key = value"),
            ("run.cfg", LONG + " = 1\n", 2, "unknown config key"),
            ("run.cfg", 2 * (LONG + " = 1\n"), 2, "duplicate key"),
            ("run.cfg", "learning_rate = " + LONG + "\n", 2, "bad value for 'learning_rate'"),
            ("tensor.txt", f"tensor dims=2 {LONG}=1\n1 2\n", 3, "unexpected header key"),
            ("tensor.txt", f"tensor dims=2 {LONG}\n1 2\n", 3, "malformed header field"),
            ("tensor.txt", f"tensor dims=2\n1 {LONG}\n", 3, "bad number"),
            ("manifest.csv", f"symbol,asset_class,class_slot,path\n{LONG[:100_000]},x,1,a\n", 3,
             "bad manifest row"),
        ],
        ids=["config-line-without-equals", "config-unknown-key", "config-duplicate-key",
             "config-non-float", "tensor-unexpected-header-key", "tensor-malformed-header-field",
             "tensor-bad-number", "manifest-symbol"],
    )
    def test_error_line_is_cut(self, tmp_path, capsys, name, text, code, what):
        path = tmp_path / name
        path.write_text(text)
        out = str(tmp_path / "out")
        argv = {
            "run.cfg": ["train", "--config", str(path), "--out-dir", out],
            "tensor.txt": ["decompose", "--input", str(path), "--out", out],
            "manifest.csv": ["train", "--data-manifest", str(path), "--out-dir", out] + FAST,
        }[name]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 1100, len(err)
        assert f": {what}" in err[:200] and err.endswith("...\n"), err[:200]

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

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob, at: blob.replace(b"\nfeedback 8192\n", b"\nfeedback 8184\n"),
             "expected the entry line 'feedback 8192', got 'feedback 8184'"),
            (lambda blob, at: blob.replace(b"\nfeedback 8192\n", b"\nfeedback 8l92\n"),
             "expected the entry line 'feedback 8192', got 'feedback 8l92'"),
            (lambda blob, at: blob[: at + 4096],
             "feedback: expected 8192 bytes, the file ends after 4096"),
            (lambda blob, at: blob[: at + 8192] + b"x" + blob[at + 8193 :],
             "feedback: no line end after the 8192 bytes"),
            (lambda blob, at: blob[: at + 8192], "feedback: no line end after the 8192 bytes"),
            (lambda blob, at: blob + blob[at - len("feedback 8192\n") : at + 8193],
             "unexpected data after the head_bias entry"),
        ],
        ids=["wrong-byte-count", "non-numeric-byte-count", "cut-inside-the-bytes", "no-line-end",
             "cut-after-the-bytes", "repeated-entry"],
    )
    def test_damaged_v3_entry(self, tmp_path, capsys, damage, message):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        at = blob.index(b"\nfeedback 8192\n") + len(b"\nfeedback 8192\n")  # the feedback bytes
        ckpt.write_bytes(damage(blob, at))
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: {message}\n", err

    @pytest.mark.parametrize("entry, got", [(b"extra 8\n", "extra 8"), (b"\n", "")],
                             ids=["unknown-name", "blank-line"])
    def test_wrong_entry_line(self, tmp_path, capsys, entry, got):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        at = blob.index(b"\nfeedback ") + 1  # between the bias and feedback entries
        ckpt.write_bytes(blob[:at] + entry + blob[at:])
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {ckpt}: expected the entry line 'feedback 8192', "
                       f"got {got!r}\n"), err

    def test_dense_entries_in_write_order(self, tmp_path, capsys):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        at = blob.index(b"\nhead_weights 768\n") + 1
        cut = blob.index(b"\nhead_bias 24\n") + 1
        ckpt.write_bytes(blob[:at] + blob[cut:] + blob[at:cut])  # head_bias before head_weights
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"data error: {ckpt}: expected the entry line 'head_weights 768', "
                       "got 'head_bias 24'\n"), err

    @pytest.mark.parametrize(
        "field, nbytes, value",
        [("bias", 256, np.nan), ("feedback", 8192, np.inf), ("head_bias", 24, -np.inf)],
    )
    def test_non_finite_v3_value(self, tmp_path, capsys, field, nbytes, value):
        ckpt = tmp_path / "model.txt"
        write_zero_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        entry = f"\n{field} {nbytes}\n".encode("ascii")
        at = blob.index(entry) + len(entry) + nbytes - 8  # the last value
        ckpt.write_bytes(blob[:at] + np.float64(value).tobytes() + blob[at + 8 :])
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {ckpt}: {field} has non-finite values\n", err

    def test_unallocatable_hidden_size(self, tmp_path, capsys, monkeypatch):
        # hidden 2^20: its feedback matrix would be 8 TiB.  The 8 MB zero bias
        # entry comes first, as save_model writes it, then the feedback entry.
        n = 1 << 20
        ckpt = tmp_path / "model.txt"
        ckpt.write_bytes(b"\n".join([
            b"ttrnn-model v3", b"seed 0", b"epoch 0", b"hidden_dims %d" % n,
            b"ttmat in=1 out=%d ranks=1,1" % n, b"0 " * (n - 1) + b"0",
            b"bias %d" % (8 * n), bytes(8 * n), b"feedback %d" % (8 << 40), bytes(16) + b"\n",
        ]))
        empty = np.empty

        def small_empty(shape, *args, **kwargs):
            assert np.prod(shape, dtype=np.int64) <= n, f"np.empty{shape}"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", small_empty)
        code = main(["backtest", "--checkpoint", str(ckpt), "--out-dir", str(tmp_path)] + FAST)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: feedback: expected "), err
        assert err.count("\n") == 1, err

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 2\nseed = \xff\n")
        code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)] + FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}: not UTF-8 text\n", err
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

    @pytest.mark.parametrize(
        "name, line, edit, message",
        [
            ("manifest.csv", 1, lambda c: [c[0], "bonds", *c[2:]],
             "{path}: bad manifest row ('EQ1', 'bonds', '1', 'EQ1.csv'): "
             "unknown asset class 'bonds'"),
            ("manifest.csv", 1, lambda c: [*c[:2], "7", c[3]],
             "{path}: bad manifest row ('EQ1', 'equities', '7', 'EQ1.csv'): "
             "class_slot must be 1..6, got 7"),
            ("manifest.csv", 2, lambda c: [*c[:2], "1", c[3]],
             "{path}: bad manifest row ('EQ2', 'equities', '1', 'EQ2.csv'): "
             "(equities, 1) is given twice"),
            # FX6's own row, read after EQ1's, names it a second time
            ("manifest.csv", 1, lambda c: ["FX6", *c[1:]],
             "{path}: bad manifest row ('FX6', 'currencies', '6', 'FX6.csv'): "
             "symbol 'FX6' is given twice"),
            ("EQ3.csv", 5, lambda c: [c[0], "0.0", *c[2:]],
             "close must be positive: EQ3 on 2006-05-05"),
            ("FX1.csv", 5, lambda c: [*c[:2], c[3], c[2], *c[4:]],
             "high < low: FX1 on 2006-05-05"),
        ],
        ids=["unknown-class", "slot-out-of-range", "slot-given-twice", "symbol-given-twice",
             "zero-close", "high-below-low"],
    )
    def test_panel_error_names_its_source(self, tmp_path, capsys, name, line, edit, message):
        assert main(["synth", "--out-dir", str(tmp_path), "--synth-days", "60"]) == 0
        path = tmp_path / "data" / name
        lines = path.read_text().splitlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["features", "--out-dir", str(tmp_path / "out"), "--data-manifest",
                     str(tmp_path / "data" / "manifest.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {message.format(path=path)}\n", err
        assert not (tmp_path / "out").exists()

    def test_manifest_leaving_a_slot_empty(self, tmp_path, capsys):
        assert main(["synth", "--out-dir", str(tmp_path), "--synth-days", "60"]) == 0
        manifest = tmp_path / "data" / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(line for line in lines if not line.startswith("FX6,")) + "\n")
        capsys.readouterr()
        code = main(["features", "--out-dir", str(tmp_path / "out"), "--data-manifest",
                     str(manifest)])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"data error: {manifest}: no row for (currencies, 6)\n", err
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

    @pytest.mark.parametrize("option", ["--ranks", "--hidden-dims"])
    def test_cores_too_large_to_allocate(self, tmp_path, capsys, option):
        # numpy refuses a core dimension of 1e20 before allocating anything
        size = "99999999999999999999" + ",2,2,2,2" * (option == "--hidden-dims")
        code = main(["train", "--out-dir", str(tmp_path / "out"), "--synth-days", "60",
                     "--epochs", "1", option, size])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: hidden_dims ") and err.count("\n") == 1, err
        assert "too large to allocate" in err
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

    def test_no_training_window(self, tmp_path, capsys):
        args = ["train", "--out-dir", str(tmp_path), "--synth-days", "100", "--seq-len", "75"]
        assert main(args + FAST[2:]) == 3
        assert capsys.readouterr().err == (
            "data error: no window of seq_len 75 fits in the 69 training days "
            "of 77 feature days\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_divergent_training(self, tmp_path, capsys):
        code = main(["train", "--out-dir", str(tmp_path)] + FAST + ["--learning-rate", "1e3"])
        assert code == 2
        assert_one_line_error(capsys, "config")
        assert not (tmp_path / "checkpoint.txt").exists()

    def test_last_step_diverging(self, tmp_path, capsys):
        # one step: its loss is finite, and it leaves cores near 4e307 whose input map overflows
        code = main(["train", "--out-dir", str(tmp_path), "--synth-days", "60", "--epochs", "1",
                     "--hidden-dims", "2,2,2,2,2", "--ranks", "2", "--learning-rate", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: training diverged in epoch 1: "), err
        assert err.count("\n") == 1, err
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
