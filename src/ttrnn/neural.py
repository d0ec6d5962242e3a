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


def _tt_apply(cores, x_nd):
    """Contract an input tensor against the cores left to right.

    The running state after consuming k cores has shape
    ``(R_k, I_{k+1}, ..., I_N, J_1, ..., J_k)``: one rank axis, the input
    modes not yet consumed, then the output modes produced so far.  Returns
    the output tensor and all intermediate states (needed for gradients).
    """
    state = x_nd[np.newaxis, ...]
    steps = [state]
    for core in cores:
        mixed = np.tensordot(state, core, axes=([0, 1], [0, 1]))
        state = np.moveaxis(mixed, -1, 0)
        steps.append(state)
    return state[0], steps


def _tt_apply_grads(cores, steps, dy_nd):
    """Reverse sweep of :func:`_tt_apply`.

    Walks the chain backwards, producing the gradient of each core and of
    the input, given the gradient of the output tensor.
    """
    n = len(cores)
    d_state = dy_nd[np.newaxis, ...]
    d_cores = [None] * n
    for k in range(n - 1, -1, -1):
        before = steps[k]
        d_mixed = np.moveaxis(d_state, 0, -1)
        n_shared = before.ndim - 2
        d_cores[k] = np.tensordot(
            before,
            d_mixed,
            axes=(list(range(2, 2 + n_shared)), list(range(n_shared))),
        )
        d_before = np.tensordot(
            d_mixed, cores[k], axes=([d_mixed.ndim - 2, d_mixed.ndim - 1], [2, 3])
        )
        d_state = np.moveaxis(d_before, (d_before.ndim - 2, d_before.ndim - 1), (0, 1))
    return d_cores, d_state[0]


def tt_linear_forward(layer: TTLinearLayer, x: DenseTensor) -> DenseTensor:
    """Apply the TT-format linear map to an input tensor and add the bias."""
    if x.shape != layer.in_dims:
        raise ShapeMismatch(f"input shape {x.shape} != layer in_dims {layer.in_dims}")
    y_nd, _ = _tt_apply(layer.weights.cores, x.to_ndarray())
    return DenseTensor.from_ndarray(y_nd + layer.bias.to_ndarray())


def _check_input(model: TTRNNModel, x: DenseTensor):
    if x.shape != model.in_dims:
        raise ShapeMismatch(f"input shape {x.shape} != model in_dims {model.in_dims}")


def _cell_step(model: TTRNNModel, x_nd: np.ndarray, h: np.ndarray):
    """tanh(feedback @ h + TT(x) + bias), plus the TT chain intermediates."""
    y_nd, tt_steps = _tt_apply(model.cores, x_nd)
    pre = model.feedback @ h + y_nd.ravel(order="F") + model.input_layer.bias.data
    return np.tanh(pre), tt_steps


def ttrnn_cell_forward(model: TTRNNModel, x_t: DenseTensor, h_prev: np.ndarray) -> np.ndarray:
    """One recurrence step: tanh(feedback @ h_prev + TT(x_t) + bias)."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    _check_input(model, x_t)
    if h_prev.shape != (model.hidden_size,):
        raise ShapeMismatch(
            f"hidden state must be ({model.hidden_size},), got {h_prev.shape}"
        )
    return _cell_step(model, x_t.to_ndarray(), h_prev)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / np.sum(e)


@dataclass
class SequenceCache:
    """Per-sample activations retained for the backward pass."""

    xs: list
    hidden: list  # h_0 .. h_T
    tt_steps: list  # per time step, the intermediates of _tt_apply
    probs: np.ndarray


def forward_sequence(model: TTRNNModel, xs) -> tuple[np.ndarray, SequenceCache]:
    """Run the cell over a window of input tensors; classify the final state."""
    if not xs:
        raise EmptySequence("need at least one time step")
    h = np.zeros(model.hidden_size)
    hidden = [h]
    tt_steps = []
    for x in xs:
        _check_input(model, x)
        h, steps = _cell_step(model, x.to_ndarray(), h)
        hidden.append(h)
        tt_steps.append(steps)
    probs = softmax(model.head_weights @ h + model.head_bias)
    return probs, SequenceCache(xs=list(xs), hidden=hidden, tt_steps=tt_steps, probs=probs)


def cross_entropy_loss(probs: np.ndarray, label: int) -> float:
    """Negative log probability of the true movement class."""
    ci = class_index(label)
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

    For each sample the head error flows into the final hidden state, then
    backwards through the tanh recurrence; at every step the pre-activation
    gradient splits into the feedback matrix, the bias, and the TT core
    chain of that step's input.
    """
    if len(batch) != len(caches):
        raise CacheMismatch(f"{len(batch)} samples but {len(caches)} caches")
    m = model.hidden_size
    hidden_dims = model.hidden_dims
    cores = model.cores
    d_cores = [np.zeros_like(c) for c in cores]
    d_feedback = np.zeros_like(model.feedback)
    d_bias = np.zeros(m)
    d_head_w = np.zeros_like(model.head_weights)
    d_head_b = np.zeros(N_CLASSES)

    for (xs, label), cache in zip(batch, caches):
        if cache.xs is not xs and len(cache.xs) != len(xs):
            raise CacheMismatch("cache does not match this batch entry")
        ci = class_index(label)
        d_logits = cache.probs.copy()
        d_logits[ci] -= 1.0
        h_final = cache.hidden[-1]
        d_head_w += np.outer(d_logits, h_final)
        d_head_b += d_logits
        dh = model.head_weights.T @ d_logits
        for t in range(len(xs) - 1, -1, -1):
            h_t = cache.hidden[t + 1]
            d_pre = dh * (1.0 - h_t * h_t)
            d_bias += d_pre
            d_feedback += np.outer(d_pre, cache.hidden[t])
            dy_nd = d_pre.reshape(hidden_dims, order="F")
            step_core_grads, _ = _tt_apply_grads(cores, cache.tt_steps[t], dy_nd)
            for acc, g in zip(d_cores, step_core_grads):
                acc += g
            dh = model.feedback.T @ d_pre

    scale = 1.0 / len(batch)
    return Gradients(
        cores=[g * scale for g in d_cores],
        feedback=d_feedback * scale,
        bias=(d_bias * scale).reshape(hidden_dims, order="F"),
        head_weights=d_head_w * scale,
        head_bias=d_head_b * scale,
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
    consecutive snapshots is summarized in the returned log.
    """
    from . import interpret

    config.validate()
    if not dataset:
        raise EmptyDataset("cannot train on an empty dataset")
    rng = stream_rng(config.seed, "shuffle")
    n = len(dataset)
    epoch_losses = []
    snapshots = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            mean_loss, caches = forward_batch(model, batch)
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
    """Mean loss, per-sample probabilities and predicted labels over a dataset."""
    if not dataset:
        raise EmptyDataset("empty dataset")
    losses = []
    probs_list = []
    predicted = []
    for xs, label in dataset:
        probs, _ = forward_sequence(model, xs)
        losses.append(cross_entropy_loss(probs, label))
        probs_list.append(probs)
        predicted.append(LABELS[int(np.argmax(probs))])
    return float(np.mean(losses)), np.array(probs_list), predicted


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
    """Read a :func:`save_model` checkpoint; a malformed file raises DataError."""
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
    return model, meta
