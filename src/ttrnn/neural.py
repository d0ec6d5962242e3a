"""Recurrent cell with a TT-format input weight matrix, trained by plain SGD.

The input-to-hidden map is applied core by core, never materializing the
dense weight matrix; the hidden-to-hidden feedback and the 3-class softmax
head stay dense.  Gradients are the chain rule written out by hand, both
through time and through the core contraction chain, so every TT core gets
an analytic gradient that can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import config_ranks, stream_rng
from .errors import ConfigError, DataError, ShapeError
from .tensor import DenseTensor
from .ttformat import (
    TTMatrix,
    _fmt_values,
    _ints,
    _parse_values,
    format_tt_matrix,
    parse_tt_matrix,
)

LABELS = (1, 0, -1)  # class indices 0, 1, 2
N_CLASSES = 3
CHECKPOINT_MAGIC = "ttrnn-model v1"


class ShapeMismatch(ShapeError):
    """Input or parameter shapes do not line up."""


class EmptySequence(ShapeError):
    pass


class InvalidLabel(DataError):
    pass


class CacheMismatch(ShapeError):
    """Backward called with a cache from a different batch."""


class EmptyDataset(DataError):
    pass


def class_index(label: int) -> int:
    """Map a movement label (+1 up, 0 flat, -1 down) to its class index."""
    try:
        return LABELS.index(label)
    except ValueError:
        raise InvalidLabel(f"label must be one of {LABELS}, got {label!r}") from None


@dataclass(frozen=True)
class TTLinearLayer:
    """Linear map in TT format plus a dense bias in output-tensor shape."""

    weights: TTMatrix
    bias: DenseTensor

    def __post_init__(self):
        if self.bias.shape != self.weights.out_dims:
            raise ShapeMismatch(
                f"bias shape {self.bias.shape} != out_dims {self.weights.out_dims}"
            )

    @property
    def in_dims(self):
        return self.weights.in_dims

    @property
    def out_dims(self):
        return self.weights.out_dims


@dataclass(frozen=True)
class TTRNNModel:
    """Recurrent cell (tanh) with TT input weights and a dense softmax head.

    ``feedback`` is the dense M x M hidden-to-hidden matrix; the head maps
    the final hidden state to 3 class logits.  Hidden vectors are the
    fastest-first flattening of the hidden tensor shape.
    """

    input_layer: TTLinearLayer
    feedback: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray

    def __post_init__(self):
        m = self.hidden_size
        object.__setattr__(self, "feedback", np.asarray(self.feedback, dtype=np.float64))
        object.__setattr__(self, "head_weights", np.asarray(self.head_weights, dtype=np.float64))
        object.__setattr__(self, "head_bias", np.asarray(self.head_bias, dtype=np.float64))
        if self.feedback.shape != (m, m):
            raise ShapeMismatch(f"feedback must be {(m, m)}, got {self.feedback.shape}")
        if self.head_weights.shape != (N_CLASSES, m):
            raise ShapeMismatch(
                f"head weights must be {(N_CLASSES, m)}, got {self.head_weights.shape}"
            )
        if self.head_bias.shape != (N_CLASSES,):
            raise ShapeMismatch(f"head bias must be ({N_CLASSES},)")

    @property
    def in_dims(self):
        return self.input_layer.in_dims

    @property
    def hidden_dims(self):
        return self.input_layer.out_dims

    @property
    def hidden_size(self) -> int:
        return math.prod(self.input_layer.out_dims)

    @property
    def cores(self):
        return self.input_layer.weights.cores

    def named_params(self):
        """Fixed-order (name, array) pairs; bias exposed as its flat buffer."""
        pairs = [(f"core{k}", c) for k, c in enumerate(self.cores)]
        pairs += [
            ("feedback", self.feedback),
            ("bias", self.input_layer.bias.data),
            ("head_weights", self.head_weights),
            ("head_bias", self.head_bias),
        ]
        return pairs

    def n_params(self) -> int:
        return sum(a.size for _, a in self.named_params())


@dataclass
class TrainConfig:
    """Plain SGD settings for the training loop."""

    learning_rate: float = 1e-5
    epochs: int = 20
    batch_size: int = 66
    seq_len: int = 10
    ranks: tuple = (1, 6, 6, 6, 6, 1)
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("epochs", "batch_size", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        config_ranks(self.ranks, len(self.ranks) - 1)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self


# --- TT linear map: forward chain and its hand-derived reverse sweep --------


def _tt_apply(cores, x):
    """Contract a batch of inputs ``(N, I_1, ..., I_d)`` against the cores.

    The state after k cores is ``(N, R_k, I_{k+1}, ..., I_d, J_1, ..., J_k)``;
    each step is one matrix product shared by the batch.  Returns the
    ``(N, J_1, ..., J_d)`` output and every state, for the reverse sweep.
    """
    state = x[:, np.newaxis]
    states = [state]
    for core in cores:
        mixed = np.tensordot(state, core, axes=([1, 2], [0, 1]))
        state = np.moveaxis(mixed, -1, 1)
        states.append(state)
    return state[:, 0], states


def _tt_core_grads(cores, x, dy):
    """Reverse sweep of :func:`_tt_apply`: each core's gradient, summed over the batch.

    ``dy`` is the ``(N, J_1, ..., J_d)`` gradient of the output.  The chain
    states are recomputed from ``x`` rather than kept from the forward pass.
    """
    _, states = _tt_apply(cores, x)
    d_state = dy[:, np.newaxis]
    d_cores = [None] * len(cores)
    for k in range(len(cores) - 1, -1, -1):
        before = states[k]
        d_mixed = np.moveaxis(d_state, 1, -1)
        shared = [0] + list(range(3, before.ndim))
        d_cores[k] = np.tensordot(before, d_mixed, axes=(shared, list(range(before.ndim - 2))))
        if k:
            d_before = np.tensordot(d_mixed, cores[k], axes=([-2, -1], [2, 3]))
            d_state = np.moveaxis(d_before, (-2, -1), (1, 2))
    return d_cores


def _project(layer: TTLinearLayer, xs):
    """Stack input tensors to ``(N, *in_dims)`` and map them to TT(x) + bias rows.

    The one input shape check; returns the stack and the ``(N, M)``
    fastest-first outputs.
    """
    for x in xs:
        if x.shape != layer.in_dims:
            raise ShapeMismatch(f"input shape {x.shape} != in_dims {layer.in_dims}")
    x = np.stack([x.to_ndarray() for x in xs])
    y, _ = _tt_apply(layer.weights.cores, x)
    return x, y.reshape(len(x), -1, order="F") + layer.bias.data


def tt_linear_forward(layer: TTLinearLayer, x: DenseTensor) -> DenseTensor:
    """Apply the TT-format linear map to an input tensor and add the bias."""
    return DenseTensor(layer.out_dims, _project(layer, [x])[1][0])


def ttrnn_cell_forward(model: TTRNNModel, x_t: DenseTensor, h_prev: np.ndarray) -> np.ndarray:
    """One recurrence step: tanh(feedback @ h_prev + TT(x_t) + bias)."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if h_prev.shape != (model.hidden_size,):
        raise ShapeMismatch(
            f"hidden state must be ({model.hidden_size},), got {h_prev.shape}"
        )
    return np.tanh(model.feedback @ h_prev + _project(model.input_layer, [x_t])[1][0])


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / np.sum(e)


@dataclass
class SequenceCache:
    """One window's activations retained for the backward pass."""

    x: np.ndarray  # (T, *in_dims) inputs
    hidden: np.ndarray  # (T + 1, M): h_0 .. h_T
    probs: np.ndarray


def _window_length(windows) -> int:
    """The common step count of a batch of windows; empty or ragged ones are rejected."""
    if not all(windows):
        raise EmptySequence("need at least one time step")
    if len({len(xs) for xs in windows}) > 1:
        raise ShapeMismatch("every window of a batch needs the same number of steps")
    return len(windows[0])


def _forward_windows(model: TTRNNModel, windows):
    """Run the cell over B windows of T steps each and classify their final states.

    Windows cut from one day sequence share its day tensors, so the inputs
    are collected by identity and every distinct one is projected once; a
    ``(B, T)`` index gathers each step's rows for the ``(B, M)`` recurrence.
    Returns the distinct inputs ``(D, *in_dims)``, the index, the hidden
    states ``(T + 1, B, M)`` and the ``(B, 3)`` class probabilities.
    """
    n_steps = _window_length(windows)
    slots, distinct = {}, []
    index = np.empty((len(windows), n_steps), dtype=np.intp)
    for b, xs in enumerate(windows):
        for t, x in enumerate(xs):
            if id(x) not in slots:
                slots[id(x)] = len(distinct)
                distinct.append(x)
            index[b, t] = slots[id(x)]
    x, y = _project(model.input_layer, distinct)
    hidden = np.zeros((n_steps + 1, len(windows), model.hidden_size))
    # hidden[t + 1] first holds step t's projected inputs; the index is in
    # range by construction, and mode="clip" lets take write in place
    np.take(y, index.T, axis=0, out=hidden[1:], mode="clip")
    for t in range(n_steps):
        np.tanh(hidden[t] @ model.feedback.T + hidden[t + 1], out=hidden[t + 1])
    logits = hidden[-1] @ model.head_weights.T + model.head_bias
    probs = np.array([softmax(row) for row in logits])
    return x, index, hidden, probs


def forward_sequence(model: TTRNNModel, xs) -> tuple[np.ndarray, SequenceCache]:
    """Run the cell over a window of input tensors; classify the final state."""
    x, index, hidden, probs = _forward_windows(model, [xs])
    return probs[0], SequenceCache(x=x[index[0]], hidden=hidden[:, 0], probs=probs[0])


def cross_entropy_loss(probs: np.ndarray, label: int) -> float:
    """Negative log probability of the true movement class (inf for probability 0)."""
    ci = class_index(label)
    with np.errstate(divide="ignore"):
        return float(-np.log(probs[ci]))


@dataclass
class Gradients:
    """Mean-over-batch loss gradients, shaped like the parameters."""

    cores: list
    feedback: np.ndarray
    bias: np.ndarray  # hidden tensor shape
    head_weights: np.ndarray
    head_bias: np.ndarray


def forward_batch(model: TTRNNModel, batch):
    """Forward every (inputs, label) pair; returns (mean loss, caches)."""
    if not batch:
        raise EmptyDataset("empty batch")
    caches = []
    total = 0.0
    for xs, label in batch:
        probs, cache = forward_sequence(model, xs)
        total += cross_entropy_loss(probs, label)
        caches.append(cache)
    return total / len(batch), caches


def backward(model: TTRNNModel, batch, caches) -> Gradients:
    """Backpropagation through time over a batch, mean reduction.

    The windows are stacked and walked back step by step on ``(B, M)``
    matrices: each step's pre-activation gradient feeds the feedback matrix
    (one matrix product), the bias, and the TT cores through that step's
    input chain, recomputed for the whole batch.
    """
    if len(batch) != len(caches):
        raise CacheMismatch(f"{len(batch)} samples but {len(caches)} caches")
    for (xs, _), cache in zip(batch, caches):
        if len(cache.x) != len(xs):
            raise CacheMismatch("cache does not match this batch entry")
    _window_length([xs for xs, _ in batch])
    n = len(batch)
    hidden_dims = model.hidden_dims
    cores = model.cores
    x = np.stack([c.x for c in caches], axis=1)  # (T, B, *in_dims)
    hidden = np.stack([c.hidden for c in caches], axis=1)  # (T + 1, B, M)
    d_logits = np.stack([c.probs for c in caches])
    d_logits[np.arange(n), [class_index(label) for _, label in batch]] -= 1.0
    d_cores = [np.zeros_like(c) for c in cores]
    d_feedback = np.zeros_like(model.feedback)
    d_bias = np.zeros(model.hidden_size)
    dh = d_logits @ model.head_weights
    for t in range(len(x) - 1, -1, -1):
        d_pre = dh * (1.0 - hidden[t + 1] * hidden[t + 1])
        d_bias += d_pre.sum(axis=0)
        d_feedback += d_pre.T @ hidden[t]
        dy = d_pre.reshape((n,) + hidden_dims, order="F")
        for acc, g in zip(d_cores, _tt_core_grads(cores, x[t], dy)):
            acc += g
        dh = d_pre @ model.feedback

    scale = 1.0 / n
    return Gradients(
        cores=[g * scale for g in d_cores],
        feedback=d_feedback * scale,
        bias=(d_bias * scale).reshape(hidden_dims, order="F"),
        head_weights=(d_logits.T @ hidden[-1]) * scale,
        head_bias=d_logits.sum(axis=0) * scale,
    )


def sgd_step(model: TTRNNModel, grads: Gradients, lr: float) -> TTRNNModel:
    """Plain gradient descent update; returns a new model."""
    if len(grads.cores) != len(model.cores):
        raise ShapeMismatch("core gradient count mismatch")
    for c, g in zip(model.cores, grads.cores):
        if c.shape != g.shape:
            raise ShapeMismatch(f"core grad shape {g.shape} != {c.shape}")
    if grads.feedback.shape != model.feedback.shape:
        raise ShapeMismatch("feedback grad shape mismatch")
    new_cores = [c - lr * g for c, g in zip(model.cores, grads.cores)]
    new_bias = DenseTensor(
        model.hidden_dims,
        model.input_layer.bias.data - lr * grads.bias.ravel(order="F"),
    )
    return TTRNNModel(
        input_layer=TTLinearLayer(weights=TTMatrix(new_cores), bias=new_bias),
        feedback=model.feedback - lr * grads.feedback,
        head_weights=model.head_weights - lr * grads.head_weights,
        head_bias=model.head_bias - lr * grads.head_bias,
    )


def init_model(in_dims, hidden_dims, ranks, rng: np.random.Generator) -> TTRNNModel:
    """Random model: cores scaled so the composed map keeps O(1) output scale.

    Core n gets i.i.d. Gaussian entries with std (R_{n-1} * I_n)^{-1/2};
    the feedback and head matrices get std M^{-1/2}; biases start at zero.
    """
    in_dims = tuple(int(d) for d in in_dims)
    hidden_dims = tuple(int(d) for d in hidden_dims)
    n = len(in_dims)
    if len(hidden_dims) != n:
        raise ConfigError(
            f"in_dims and hidden_dims must have the same mode count, "
            f"got {n} and {len(hidden_dims)}"
        )
    ranks = config_ranks(ranks, n)
    cores = []
    for k in range(n):
        std = 1.0 / math.sqrt(ranks[k] * in_dims[k])
        cores.append(
            rng.normal(0.0, std, size=(ranks[k], in_dims[k], hidden_dims[k], ranks[k + 1]))
        )
    m = math.prod(hidden_dims)
    feedback = rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, m))
    head_weights = rng.normal(0.0, 1.0 / math.sqrt(m), size=(N_CLASSES, m))
    layer = TTLinearLayer(weights=TTMatrix(cores), bias=DenseTensor.zeros(hidden_dims))
    return TTRNNModel(
        input_layer=layer,
        feedback=feedback,
        head_weights=head_weights,
        head_bias=np.zeros(N_CLASSES),
    )


@dataclass
class TrainLog:
    """Per-epoch mean losses plus end-of-epoch TT core snapshots."""

    epoch_losses: list
    core_snapshots: list  # epochs x cores
    core_change: object = None  # interpret.CoreChangeLog once epochs >= 2


def train(model: TTRNNModel, dataset, config: TrainConfig) -> tuple[TTRNNModel, TrainLog]:
    """Shuffled mini-batch SGD, reproducible from config.seed.

    ``dataset`` is a list of (inputs, label) pairs.  After every epoch the
    TT cores are snapshotted; the normalized per-core change between
    consecutive snapshots is summarized in the returned log.  A batch whose
    mean loss is not finite stops training with :class:`ConfigError`: the
    learning rate is too large.
    """
    from . import interpret

    config.validate()
    if not dataset:
        raise EmptyDataset("cannot train on an empty dataset")
    rng = stream_rng(config.seed, "shuffle")
    n = len(dataset)
    epoch_losses = []
    snapshots = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            mean_loss, caches = forward_batch(model, batch)
            if not math.isfinite(mean_loss):
                raise ConfigError(
                    f"training diverged in epoch {epoch}: batch loss {mean_loss} "
                    f"at learning rate {config.learning_rate}"
                )
            total += mean_loss * len(batch)
            grads = backward(model, batch, caches)
            model = sgd_step(model, grads, config.learning_rate)
        epoch_losses.append(total / n)
        snapshots.append([c.copy() for c in model.cores])
    log = TrainLog(epoch_losses=epoch_losses, core_snapshots=snapshots)
    if len(snapshots) >= 2:
        log.core_change = interpret.core_change(snapshots)
    return model, log


def evaluate(model: TTRNNModel, dataset):
    """Mean loss, per-sample probabilities and predicted labels over a dataset.

    All windows run as one batch (see :func:`_forward_windows`), so they
    need the same number of steps.
    """
    if not dataset:
        raise EmptyDataset("empty dataset")
    _, _, _, probs = _forward_windows(model, [xs for xs, _ in dataset])
    losses = [cross_entropy_loss(p, label) for p, (_, label) in zip(probs, dataset)]
    predicted = [LABELS[int(np.argmax(p))] for p in probs]
    return float(np.mean(losses)), probs, predicted


# --- checkpoint file ---------------------------------------------------------


def save_model(model: TTRNNModel, path, seed: int = 0, epoch: int = 0):
    """Write a text checkpoint: header, TT core block, dense parameter lines."""
    lines = [
        CHECKPOINT_MAGIC,
        f"seed {seed}",
        f"epoch {epoch}",
        "hidden_dims " + ",".join(map(str, model.hidden_dims)),
        format_tt_matrix(model.input_layer.weights).rstrip("\n"),
        "bias " + _fmt_values(model.input_layer.bias.data),
        "feedback " + _fmt_values(model.feedback),
        "head_weights " + _fmt_values(model.head_weights),
        "head_bias " + _fmt_values(model.head_bias),
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path) -> tuple[TTRNNModel, dict]:
    """Read a :func:`save_model` checkpoint.

    A malformed file or a non-finite parameter value raises DataError.
    """
    with open(path) as f:
        lines = f.read().strip("\n").split("\n")
    if lines[0] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint: {lines[0]!r}")
    try:
        meta = {
            "seed": int(lines[1].split()[1]),
            "epoch": int(lines[2].split()[1]),
        }
        hidden_dims = _ints(lines[3].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path}: malformed checkpoint header") from None
    n_modes = len(hidden_dims)
    weights = parse_tt_matrix("\n".join(lines[4 : 5 + n_modes]))
    m = math.prod(hidden_dims)
    shapes = {
        "bias": (m,),
        "feedback": (m, m),
        "head_weights": (N_CLASSES, m),
        "head_bias": (N_CLASSES,),
    }
    arrays = {}
    for line in lines[5 + n_modes :]:
        name, _, values = line.partition(" ")
        if name in shapes:
            arrays[name] = _parse_values(values, shapes[name])
    missing = [name for name in shapes if name not in arrays]
    if missing:
        raise DataError(f"{path}: checkpoint has no {', '.join(missing)} line")
    model = TTRNNModel(
        input_layer=TTLinearLayer(
            weights=weights, bias=DenseTensor(hidden_dims, arrays["bias"])
        ),
        feedback=arrays["feedback"],
        head_weights=arrays["head_weights"],
        head_bias=arrays["head_bias"],
    )
    for name, values in model.named_params():
        if not np.all(np.isfinite(values)):
            raise DataError(f"{path}: {name} has non-finite values")
    return model, meta
