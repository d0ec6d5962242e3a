"""Command-line pipeline: synth -> features -> train -> backtest -> report-cores.

Every command reads an optional flat key=value config file; flags override
file values.  Runs are reproducible: all randomness flows from the single
run seed through named streams, and each training run writes a manifest
with the resolved config and input hashes.

Exit codes: 0 success, 2 config error, 3 data error, 4 shape error,
1 I/O or unexpected failure.  The codes follow the base classes in
:mod:`ttrnn.errors`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import backtest as bt
from . import features as feat
from . import interpret, neural, tensor, ttformat
from .config import RunConfig, build_config, parse_config_file
from .errors import ConfigError, DataError, ShapeError
from .files import reading, replacing, write_csv, write_json
from .rng import stream_rng

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SHAPE = 4


def _sha256(path) -> str:
    with reading(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _settings(args) -> dict:
    """The run settings the ``--config`` file and the flags give, flags winning."""
    values = parse_config_file(args.config) if args.config else {}
    for field in fields(RunConfig):
        if getattr(args, field.name) is not None:
            values[field.name] = getattr(args, field.name)
    return values


def _load_or_synth_panel(cfg: RunConfig) -> tuple[feat.AssetPanel, list]:
    """Panel plus the list of input files that determine it (for hashing)."""
    if cfg.data_manifest:
        panel = feat.load_panel(cfg.data_manifest)
        entries = feat.read_manifest(cfg.data_manifest)
        return panel, [cfg.data_manifest] + [path for _, path in entries]
    synth_cfg = feat.SynthConfig(
        days=cfg.synth_days,
        signal_strength=cfg.signal_strength,
        target=cfg.target,
        driver="EQ1" if cfg.target != "EQ1" else "EQ2",
    )
    return feat.synth_panel(synth_cfg, cfg.seed), []


def cmd_synth(args) -> int:
    cfg = build_config(_settings(args))
    panel, _ = _load_or_synth_panel(replace(cfg, data_manifest=""))
    data_dir = os.path.join(cfg.out_dir, "data")
    manifest = feat.write_panel(panel, data_dir)
    print(f"wrote {len(panel.instruments)} instrument files and {manifest}")
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = build_config(_settings(args))
    panel, _ = _load_or_synth_panel(cfg)
    fp = feat.assemble(panel, cfg.target, cfg.split)
    path = os.path.join(cfg.out_dir, "features.csv")
    feat.dump_features_csv(fp, path)
    print(
        f"wrote {path}: {fp.n_days} days x {len(fp.symbols)} instruments "
        f"x {feat.N_FEATURES} features ({fp.n_train} train days)"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(_settings(args))
    panel, input_files = _load_or_synth_panel(cfg)
    fp = feat.assemble(panel, cfg.target, cfg.split)
    train_samples, _ = fp.samples(cfg.seq_len)
    dataset = [s.pair for s in train_samples]

    in_dims = cfg.input_dims()
    hidden_dims = cfg.hidden_tensor_dims()
    ranks = cfg.rank_tuple()
    model = neural.init_model(in_dims, hidden_dims, ranks, stream_rng(cfg.seed, "init"))
    model, log = neural.train(model, dataset, cfg.train_config())

    ckpt = os.path.join(cfg.out_dir, "checkpoint.txt")
    neural.save_model(model, ckpt, seed=cfg.seed, epoch=cfg.epochs)
    write_csv(os.path.join(cfg.out_dir, "epoch_losses.csv"), ["epoch", "mean_loss"],
              enumerate(log.epoch_losses, start=1))
    if log.core_change is not None:
        interpret.write_core_change_csv(
            log.core_change, os.path.join(cfg.out_dir, "core_change.csv")
        )

    tt_params = ttformat.tt_param_count(in_dims, hidden_dims, ranks)
    dense_params = ttformat.dense_param_count(in_dims, hidden_dims)
    manifest = {
        "config": dict(sorted(cfg.__dict__.items())),
        "input_hashes": {os.path.basename(p): _sha256(p) for p in input_files},
        "tt_input_layer_params": tt_params,
        "dense_equivalent_params": dense_params,
        "compression_ratio": dense_params / tt_params,
        "train_samples": len(dataset),
        "final_train_loss": log.epoch_losses[-1],
    }
    write_json(os.path.join(cfg.out_dir, "run_manifest.json"), manifest)
    print(
        f"trained {cfg.epochs} epochs on {len(dataset)} samples; "
        f"TT input layer parameters: {tt_params} "
        f"(dense {dense_params}, compression {dense_params / tt_params:.1f}x)"
    )
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    settings = _settings(args)
    cfg = build_config(settings)
    model, _meta = neural.load_model(args.checkpoint)
    panel, _ = _load_or_synth_panel(cfg)
    fp = feat.assemble(panel, cfg.target, cfg.split)
    if model.in_dims != feat.TENSOR_DIMS_5:
        raise neural.ShapeMismatch(
            f"checkpoint expects inputs {model.in_dims}, features provide "
            f"{feat.TENSOR_DIMS_5}"
        )
    # the checkpoint fixes the model; a setting given for it must agree
    for key, given, stored in (
        ("hidden_dims", cfg.hidden_tensor_dims(), model.hidden_dims),
        ("ranks", cfg.rank_tuple(), model.input_layer.weights.ranks),
    ):
        if key in settings and given != stored:
            raise ConfigError(
                f"{key} {given} disagrees with the checkpoint's {stored} ({args.checkpoint})"
            )
    _, test_samples = fp.samples(cfg.seq_len)
    _loss, probs, _predicted = neural.evaluate(model, [s.pair for s in test_samples])
    labels = [s.label for s in test_samples]
    next_returns = np.array([fp.target_next_return[s.end_index] for s in test_samples])
    dates = [s.date for s in test_samples]
    report = bt.evaluate_predictions(probs, labels, next_returns)

    json_path = os.path.join(cfg.out_dir, "backtest.json")
    csv_path = os.path.join(cfg.out_dir, "track.csv")
    bt.write_report_json(report, json_path)
    bt.write_track_csv(report, dates, csv_path)
    sharpe_text = f"{report.sharpe:.3f}" if report.sharpe_defined else "undefined"
    print(
        f"backtest over {len(test_samples)} days: sharpe {sharpe_text}, "
        f"total return {report.total_return:.4f}, accuracy {report.accuracy:.4f}"
    )
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK


def cmd_report_cores(args) -> int:
    log = interpret.read_core_change_csv(args.log)
    labels = None
    manifest_path = args.manifest or os.path.join(os.path.dirname(args.log), "run_manifest.json")
    if args.manifest and not os.path.isfile(manifest_path):
        raise DataError(f"{manifest_path}: no such run manifest")
    if os.path.exists(manifest_path):
        with reading(manifest_path) as f:
            try:
                dims = json.load(f).get("config", {}).get("in_dims")
                if dims:
                    labels = interpret.mode_labels(tensor.check_shape(ttformat._ints(dims)))
            except (AttributeError, ValueError):  # ShapeError and UnicodeDecodeError included
                raise DataError(
                    "malformed run manifest (want JSON whose config.in_dims "
                    "is comma-separated positive integers)"
                ) from None
            if labels is not None and len(labels) != log.n_cores:
                raise DataError(f"in_dims has {len(labels)} modes, the log has {log.n_cores} cores")
    out_dir = args.out_dir or os.path.dirname(args.log) or "."
    json_path = os.path.join(out_dir, "core_ranking.json")
    for row in interpret.write_ranking_json(log, json_path, labels=labels):
        print("core {core} [{mode}]: total normalized change "
              "{total_normalized_change:.3e}".format(**row))
    print(f"wrote {json_path}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    try:
        max_ranks = ttformat._ints(args.max_ranks) if args.max_ranks else None
    except ValueError:
        raise ConfigError(
            f"--max-ranks must be comma-separated integers, got {args.max_ranks!r}"
        ) from None
    try:
        tol = None if args.tol is None else float(args.tol)
    except ValueError:
        raise ConfigError(f"--tol must be a number, got {args.tol!r}") from None
    with reading(args.input) as f:
        t = ttformat.parse_tensor(f.read())
    tt = ttformat.tt_svd(t, max_ranks=max_ranks, tol=tol)
    with replacing(args.out) as f:
        f.write(ttformat.format_tt_vector(tt))
    rebuilt = ttformat.tt_reconstruct(tt)
    err = tensor.frobenius_norm(tensor.DenseTensor(t.shape, rebuilt.data - t.data))
    denom = tensor.frobenius_norm(t) or 1.0
    print(f"ranks {tt.ranks}, relative reconstruction error {err / denom:.3e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_run_options(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value config file")
    for field in fields(RunConfig):  # one text flag per setting; build_config parses it
        p.add_argument(
            f"--{field.name.replace('_', '-')}",
            dest=field.name,
            help=f"config key {field.name} (default {field.default!r})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrnn",
        description="Tensor-train recurrent forecasting pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic 24-instrument CSV panel")
    _add_run_options(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="assemble features and write the audit CSV")
    _add_run_options(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train a TT-RNN and write checkpoint + logs")
    _add_run_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="evaluate a checkpoint on the test split")
    _add_run_options(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report-cores", help="rank TT cores by training movement")
    p.add_argument("--log", required=True, help="core_change.csv from a training run")
    p.add_argument("--manifest", help="run_manifest.json for mode labels")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_report_cores)

    p = sub.add_parser("decompose", help="TT-SVD a dense tensor file")
    p.add_argument("--input", required=True, help="tensor file: 'tensor dims=..' + data line")
    p.add_argument("--out", required=True, help="output TT cores file")
    p.add_argument("--max-ranks", dest="max_ranks", help="full rank tuple, comma separated")
    p.add_argument("--tol", help="relative Frobenius error budget")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
