"""The benchmark's workloads: the ttrnn pipeline driven from outside the package.

Every call goes through a module attribute (``neural.train``, not a name
imported from ``neural``), so the traced run can wrap it.  The calls follow
the order of ``cli.cmd_train`` and ``cli.cmd_backtest``; the training
workloads score their test tail through the checkpoint they just wrote, as
``ttrnn backtest --checkpoint`` would.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from ttrnn import backtest as bt
from ttrnn import config, features, interpret, neural

SYNTH_DAYS = 700
SIGNAL_STRENGTH = 1.0
TARGET = "FX6"
SEQ_LEN = 10
EPOCHS = 2  # the least that makes neural.train run interpret.core_change

# backtest_full scores a checkpoint trained on this many recent windows, so
# its input is a trained model, not a fresh initialization.
PREP_WINDOWS = 16

# The probe is a short run of a workload on a fixed seed, through the calls
# its timed runs make; its outputs are compared with reference.json in every
# run.  Training workloads train the probe on PROBE_WINDOWS windows in
# batches of PROBE_BATCH: two full batches and a short one per epoch.
PROBE_SEED = 0
PROBE_WINDOWS = 20
PROBE_BATCH = 8


@dataclass(frozen=True)
class Workload:
    name: str
    hidden_dims: str
    ranks: str
    batch_size: int
    learning_rate: float
    split: float
    trains: bool
    train_windows: int | None  # most recent training windows used; None = all
    # Set-ups a timed loop makes on its own before its first workload run;
    # setup_s is their median with the runs' own.  train_full makes fewer so
    # that its loop still fits more than one of its long runs.
    extra_setups: int

    def run_config(self, seed: int) -> config.RunConfig:
        return config.build_config(
            overrides={
                "synth_days": SYNTH_DAYS,
                "signal_strength": SIGNAL_STRENGTH,
                "target": TARGET,
                "split": self.split,
                "seq_len": SEQ_LEN,
                "epochs": EPOCHS,
                "batch_size": self.batch_size,
                "learning_rate": self.learning_rate,
                "ranks": self.ranks,
                "hidden_dims": self.hidden_dims,
                "seed": seed,
            }
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_full",
            hidden_dims="4,4,4,4,4",
            ranks="6",
            batch_size=66,
            learning_rate=1e-5,
            split=0.8,
            trains=True,
            train_windows=66,
            extra_setups=10,
        ),
        Workload(
            name="train_reduced",
            hidden_dims="2,2,2,2,2",
            ranks="2",
            batch_size=16,
            learning_rate=0.05,
            split=0.8,
            trains=True,
            train_windows=None,
            extra_setups=20,
        ),
        Workload(
            name="backtest_full",
            hidden_dims="4,4,4,4,4",
            ranks="6",
            batch_size=66,
            learning_rate=1e-5,
            split=0.5,
            trains=False,
            train_windows=None,
            extra_setups=8,
        ),
    )
}


@dataclass
class Prepared:
    """Inputs made from the seed before anything is timed (backtest_full only)."""

    manifest: str
    checkpoint: str
    model: neural.TTRNNModel
    epoch_losses: list


@dataclass
class SetUp:
    """Everything the timed pass needs, built by :func:`setup`."""

    cfg: config.RunConfig
    dataset: list  # (inputs, label) pairs to train on
    test: list  # features.Sample, the scored tail
    test_returns: np.ndarray
    model: neural.TTRNNModel


@dataclass
class PassResult:
    epoch_losses: list
    window_probs: np.ndarray  # one forward_sequence call per window
    probs: np.ndarray  # the same windows through neural.evaluate
    latencies_s: list  # per-window forward_sequence wall time
    windows: int  # windows through the main loop (training counts every epoch)
    main_s: float  # neural.train, or evaluate + evaluate_predictions
    loaded: neural.TTRNNModel  # the model the tail was scored with
    trained: neural.TTRNNModel | None  # the model this pass trained and saved


def recent(samples, n):
    return samples if n is None else samples[-n:]


def synth(cfg: config.RunConfig):
    synth_cfg = features.SynthConfig(
        days=cfg.synth_days,
        signal_strength=cfg.signal_strength,
        target=cfg.target,
        driver="EQ1",
    )
    return features.synth_panel(synth_cfg, cfg.seed)


def init(cfg: config.RunConfig):
    return neural.init_model(
        cfg.input_dims(),
        cfg.hidden_tensor_dims(),
        cfg.rank_tuple(),
        config.stream_rng(cfg.seed, "init"),
    )


def train(model, dataset, cfg: config.RunConfig):
    train_cfg = neural.TrainConfig(
        learning_rate=cfg.learning_rate,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seq_len=cfg.seq_len,
        ranks=cfg.rank_tuple(),
        seed=cfg.seed,
    )
    return neural.train(model, dataset, train_cfg)


def save(model, log, cfg: config.RunConfig, out_dir) -> str:
    """The checkpoint and core-change CSV ``cmd_train`` writes; returns the checkpoint path."""
    ckpt = os.path.join(out_dir, "checkpoint.txt")
    neural.save_model(model, ckpt, seed=cfg.seed, epoch=cfg.epochs)
    interpret.write_core_change_csv(log.core_change, os.path.join(out_dir, "core_change.csv"))
    return ckpt


def prepare(w: Workload, seed: int, out_dir) -> Prepared | None:
    """``ttrnn synth`` then a short ``ttrnn train``: the inputs backtest_full reads."""
    if w.trains:
        return None
    cfg = w.run_config(seed)
    panel = synth(cfg)
    manifest = features.write_panel(panel, os.path.join(out_dir, "data"))
    fp = features.assemble(panel, cfg.target, cfg.split)
    train_samples, _ = fp.samples(cfg.seq_len)
    dataset = [s.pair for s in recent(train_samples, PREP_WINDOWS)]
    model, log = train(init(cfg), dataset, cfg)
    ckpt = save(model, log, cfg, out_dir)
    return Prepared(manifest, ckpt, model, log.epoch_losses)


def setup(w: Workload, seed: int, prep: Prepared | None) -> SetUp:
    """Everything before the first training step or the first scored window."""
    cfg = w.run_config(seed)
    if w.trains:
        panel = synth(cfg)
    else:
        model, _meta = neural.load_model(prep.checkpoint)
        panel = features.load_panel(prep.manifest)
    fp = features.assemble(panel, cfg.target, cfg.split)
    train_samples, test = fp.samples(cfg.seq_len)
    dataset = []
    if w.trains:
        dataset = [s.pair for s in recent(train_samples, w.train_windows)]
        model = init(cfg)
    returns = np.array([fp.target_next_return[s.end_index] for s in test])
    return SetUp(cfg=cfg, dataset=dataset, test=test, test_returns=returns, model=model)


def score(model, s: SetUp, out_dir):
    """Score the tail one window at a time, then through ``neural.evaluate``.

    Returns the per-window probabilities, the evaluate probabilities, the
    per-window latencies and the wall time of evaluate + evaluate_predictions.
    """
    window_probs, latencies = [], []
    for sample in s.test:
        t0 = time.perf_counter()
        probs, _cache = neural.forward_sequence(model, sample.inputs)
        latencies.append(time.perf_counter() - t0)
        window_probs.append(probs)
    labels = [sample.label for sample in s.test]
    t0 = time.perf_counter()
    _loss, probs, _predicted = neural.evaluate(model, [sample.pair for sample in s.test])
    report = bt.evaluate_predictions(probs, labels, s.test_returns)
    main_s = time.perf_counter() - t0
    bt.write_report_json(report, os.path.join(out_dir, "backtest.json"))
    dates = [sample.date for sample in s.test]
    bt.write_track_csv(report, dates, os.path.join(out_dir, "track.csv"))
    return np.array(window_probs), probs, latencies, main_s


def run_pass(w: Workload, s: SetUp, out_dir) -> PassResult:
    """Everything after set-up, to the last artifact written."""
    if not w.trains:
        window_probs, probs, latencies, main_s = score(s.model, s, out_dir)
        return PassResult([], window_probs, probs, latencies, len(s.test), main_s, s.model, None)
    t0 = time.perf_counter()
    model, log = train(s.model, s.dataset, s.cfg)
    train_s = time.perf_counter() - t0
    ckpt = save(model, log, s.cfg, out_dir)
    loaded, _meta = neural.load_model(ckpt)
    window_probs, probs, latencies, _ = score(loaded, s, out_dir)
    windows = len(s.dataset) * s.cfg.epochs
    return PassResult(
        log.epoch_losses, window_probs, probs, latencies, windows, train_s, loaded, model
    )


def probe(w: Workload, out_dir) -> dict:
    """A short run of the workload on PROBE_SEED, for the reference check.

    backtest_full writes its CSVs and a trained checkpoint with
    :func:`prepare` and reads them back with :func:`setup`; the training
    workloads train on PROBE_WINDOWS windows in batches of PROBE_BATCH.
    Both then score the first PROBE_WINDOWS test windows.
    """
    if w.trains:
        w = dataclasses.replace(w, batch_size=PROBE_BATCH, train_windows=PROBE_WINDOWS)
    prep = prepare(w, PROBE_SEED, out_dir)
    s = setup(w, PROBE_SEED, prep)
    if w.trains:
        model, log = train(s.model, s.dataset, s.cfg)
        losses = log.epoch_losses
    else:
        model, losses = s.model, prep.epoch_losses
    _loss, probs, _ = neural.evaluate(model, [x.pair for x in s.test[:PROBE_WINDOWS]])
    return {"epoch_losses": [float(x) for x in losses], "probs": probs.tolist()}
