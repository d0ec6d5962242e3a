"""Recurrent cell with a TT-format input weight matrix, trained by plain SGD.

The input-to-hidden map is TT-stored, dense-applied: its parameters are the
TT cores, and a layer contracts them once into the dense matrix, which it
applies to each distinct input tensor once.  The hidden-to-hidden feedback
and the 3-class softmax head are dense.  Gradients are the chain rule
written out by hand: through time, then from the dense map's gradient onto
each core between the chain products of the cores on its left and right,
so every TT core gets an analytic gradient that can be checked against
finite differences.
"""

from __future__ import annotations

import base64
import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import config_ranks
from .errors import ConfigError, DataError, ShapeError
from .rng import stream_rng
from .tensor import DenseTensor, element_count
from .ttformat import (
    TTMatrix,
    _ints,
    _parse_values,
    format_tt_matrix,
    mpo_to_matrix,
    parse_tt_matrix,
)

LABELS = (1, 0, -1)  # class indices 0, 1, 2
N_CLASSES = 3
CHECKPOINT_MAGIC = "ttrnn-model v2"


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

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The cores contracted to the dense ``(M, prod(in_dims))`` map, built once per layer."""
        return mpo_to_matrix(self.weights).to_ndarray()

    @functools.cached_property
    def projected(self) -> dict:
        """Memo of :func:`_project`: ``id(x) -> (x, W x + bias)`` for each input seen.

        An entry holds its input, so no other tensor can take that id while
        the entry exists.  A layer lives for one SGD step or one loaded
        model; the memo costs ``8 * M`` bytes per distinct input.
        """
        return {}


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


# --- TT linear map: dense apply, core gradients by projection ---------------


def _project(layer: TTLinearLayer, xs, out=None) -> np.ndarray:
    """The ``(N, M)`` fastest-first rows W x + bias of the input tensors.

    Inputs are told apart by identity, and each distinct one is multiplied
    by the dense map once over the layer's lifetime: those not yet in
    ``layer.projected`` get the one input shape check and one matrix product
    together.  The rows are stacked into ``out`` if given.
    """
    memo = layer.projected
    new = list({id(x): x for x in xs if id(x) not in memo}.values())
    for x in new:
        if x.shape != layer.in_dims:
            raise ShapeMismatch(f"input shape {x.shape} != in_dims {layer.in_dims}")
    if new:
        stack = np.stack([x.to_ndarray() for x in new])
        y = stack.reshape(len(new), -1, order="F") @ layer.matrix.T + layer.bias.data
        memo.update((id(x), (x, row)) for x, row in zip(new, y))
    return np.stack([memo[id(x)][1] for x in xs], out=out)


def _core_grads(cores, dw):
    """Project the dense map's gradient ``dW`` (M, prod(in_dims)) onto each core.

    ``dW`` is refolded to the interleaved ``(I_1, J_1, ..., I_N, J_N)``
    modes, first mode slowest.  Core k's gradient contracts it with the
    chain product of the cores left of k, ``(I_1 J_1 ... I_{k-1} J_{k-1}, R_{k-1})``,
    and of those right of k, ``(R_k, I_{k+1} J_{k+1} ... I_N J_N)``.
    """
    n = len(cores)
    # in C order dW's fastest-first indexes read as axes (J_N, ..., J_1, I_N, ..., I_1)
    dims = [c.shape[2] for c in cores[::-1]] + [c.shape[1] for c in cores[::-1]]
    perm = [a for k in range(n) for a in (2 * n - 1 - k, n - 1 - k)]
    d = np.ascontiguousarray(dw.reshape(dims).transpose(perm))
    lefts = [np.ones((1, 1))]
    for core in cores[:-1]:
        lefts.append((lefts[-1] @ core.reshape(len(core), -1)).reshape(-1, core.shape[-1]))
    right = np.ones((1, 1))
    grads = []
    for left, core in zip(lefts[::-1], cores[::-1]):
        block = d.reshape(len(left), -1, right.shape[1])
        g = np.tensordot(np.tensordot(left, block, axes=(0, 0)), right, axes=(2, 1))
        grads.insert(0, g.reshape(core.shape))
        right = (core.reshape(-1, core.shape[-1]) @ right).reshape(len(core), -1)
    return grads


def tt_linear_forward(layer: TTLinearLayer, x: DenseTensor) -> DenseTensor:
    """Apply the TT-format linear map to an input tensor and add the bias."""
    return DenseTensor(layer.out_dims, _project(layer, [x])[0])


def ttrnn_cell_forward(model: TTRNNModel, x_t: DenseTensor, h_prev: np.ndarray) -> np.ndarray:
    """One recurrence step: tanh(feedback @ h_prev + TT(x_t) + bias)."""
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if h_prev.shape != (model.hidden_size,):
        raise ShapeMismatch(
            f"hidden state must be ({model.hidden_size},), got {h_prev.shape}"
        )
    return np.tanh(model.feedback @ h_prev + _project(model.input_layer, [x_t])[0])


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / np.sum(e)


@dataclass
class SequenceCache:
    """One window's activations retained for the backward pass."""

    x: np.ndarray  # (T, prod(in_dims)) inputs, each flattened fastest-first
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

    Windows cut from one day sequence share its day tensors, which
    :func:`_project` projects once; the ``(B, M)`` recurrence starts from
    h_0 = 0.  Returns the hidden states ``(T + 1, B, M)`` and the ``(B, 3)``
    class probabilities.
    """
    n_steps = _window_length(windows)
    m = model.hidden_size
    hidden = np.zeros((n_steps + 1, len(windows), m))
    # hidden[t + 1] first holds step t's projected inputs
    steps = [xs[t] for t in range(n_steps) for xs in windows]
    _project(model.input_layer, steps, out=hidden[1:].reshape(-1, m))
    np.tanh(hidden[1], out=hidden[1])  # h_0 = 0 adds no feedback term
    for t in range(1, n_steps):
        np.tanh(hidden[t] @ model.feedback.T + hidden[t + 1], out=hidden[t + 1])
    logits = hidden[-1] @ model.head_weights.T + model.head_bias
    probs = np.array([softmax(row) for row in logits])
    return hidden, probs


def forward_sequence(model: TTRNNModel, xs) -> tuple[np.ndarray, SequenceCache]:
    """Run the cell over a window of input tensors; classify the final state."""
    hidden, probs = _forward_windows(model, [xs])
    x = np.stack([x_t.data for x_t in xs])
    return probs[0], SequenceCache(x=x, hidden=hidden[:, 0], probs=probs[0])


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
    matrices, keeping each step's pre-activation gradient.  After the loop
    the kept ``(T, B, M)`` gradients give the bias (their sum), the feedback
    gradient (one matrix product with the states h_1 .. h_{T-1}; h_0 = 0
    adds nothing) and the dense input map's gradient (one matrix product
    with the inputs), which is projected onto the cores.
    """
    if len(batch) != len(caches):
        raise CacheMismatch(f"{len(batch)} samples but {len(caches)} caches")
    for (xs, _), cache in zip(batch, caches):
        if len(cache.x) != len(xs):
            raise CacheMismatch("cache does not match this batch entry")
    _window_length([xs for xs, _ in batch])
    n = len(batch)
    m = model.hidden_size
    x = np.stack([c.x for c in caches], axis=1)  # (T, B, prod(in_dims))
    hidden = np.stack([c.hidden for c in caches], axis=1)  # (T + 1, B, M)
    d_logits = np.stack([c.probs for c in caches])
    d_logits[np.arange(n), [class_index(label) for _, label in batch]] -= 1.0
    d_pre = np.empty((len(x), n, m))
    dh = d_logits @ model.head_weights
    for t in range(len(x) - 1, -1, -1):
        np.multiply(dh, 1.0 - hidden[t + 1] * hidden[t + 1], out=d_pre[t])
        if t:  # h_0 = 0: step 0 passes nothing further back
            dh = d_pre[t] @ model.feedback
    d_feedback = d_pre[1:].reshape(-1, m).T @ hidden[1:-1].reshape(-1, m)
    d_pre = d_pre.reshape(-1, m)
    x = x.reshape(len(d_pre), -1)

    scale = 1.0 / n
    return Gradients(
        cores=[g * scale for g in _core_grads(model.cores, d_pre.T @ x)],
        feedback=d_feedback * scale,
        bias=(d_pre.sum(axis=0) * scale).reshape(model.hidden_dims, order="F"),
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
    _, probs = _forward_windows(model, [xs for xs, _ in dataset])
    losses = [cross_entropy_loss(p, label) for p, (_, label) in zip(probs, dataset)]
    predicted = [LABELS[int(np.argmax(p))] for p in probs]
    return float(np.mean(losses)), probs, predicted


# --- checkpoint file ---------------------------------------------------------
#
# Header lines, then the TT core block in decimal (the readable part, which
# the core-change report interprets), then one ``name <base64>`` line per
# dense parameter: its little-endian float64 bytes, fastest-first.  A v1
# checkpoint has the same layout with decimal dense lines.


def _b64_values(arr: np.ndarray) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes(order="F")).decode("ascii")


def _parse_b64_values(line: bytes, shape) -> np.ndarray:
    """Decode a :func:`_b64_values` line into an owned, writable float64 array."""
    try:
        raw = base64.b64decode(line, validate=True)
    except ValueError:  # bad alphabet or padding, or a non-ASCII byte
        raise DataError("not valid base64") from None
    want = 8 * element_count(shape)
    if len(raw) != want:
        raise DataError(f"expected {want} bytes ({want // 8} float64 values), got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").astype(np.float64)


def _parse_decimal_values(line: bytes, shape) -> np.ndarray:
    """Decode a v1 dense line: decimal values in UTF-8 text."""
    try:
        return _parse_values(line.decode("utf-8"), shape)
    except UnicodeDecodeError:
        raise DataError("not UTF-8 text") from None


# the dense-line decoder of each checkpoint version, keyed by its first line
_DENSE_DECODERS = {CHECKPOINT_MAGIC: _parse_b64_values, "ttrnn-model v1": _parse_decimal_values}


def save_model(model: TTRNNModel, path, seed: int = 0, epoch: int = 0):
    """Write a checkpoint: header, decimal TT core block, base64 dense parameter lines."""
    lines = [
        CHECKPOINT_MAGIC,
        f"seed {seed}",
        f"epoch {epoch}",
        "hidden_dims " + ",".join(map(str, model.hidden_dims)),
        format_tt_matrix(model.input_layer.weights).rstrip("\n"),
    ]
    dense = [
        ("bias", model.input_layer.bias.data),
        ("feedback", model.feedback),
        ("head_weights", model.head_weights),
        ("head_bias", model.head_bias),
    ]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
        for name, values in dense:
            f.write(f"{name} {_b64_values(values)}\n")


def load_model(path) -> tuple[TTRNNModel, dict]:
    """Read a :func:`save_model` checkpoint, or a v1 one with decimal dense lines.

    The file is read as bytes: the header and the TT core block are decoded
    as UTF-8 text, and each dense line goes to its version's decoder as is.
    A malformed file or a non-finite parameter value raises DataError.
    """

    def text(block) -> str:
        try:
            return b"\n".join(block).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None

    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    head = text(lines[:4]).split("\n")
    decode = _DENSE_DECODERS.get(head[0])
    if decode is None:
        raise DataError(f"{path}: not a model checkpoint: {head[0]!r}")
    try:
        meta = {
            "seed": int(head[1].split()[1]),
            "epoch": int(head[2].split()[1]),
        }
        hidden_dims = _ints(head[3].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path}: malformed checkpoint header") from None
    n_modes = len(hidden_dims)
    weights = parse_tt_matrix(text(lines[4 : 5 + n_modes]))
    m = math.prod(hidden_dims)
    shapes = {
        "bias": (m,),
        "feedback": (m, m),
        "head_weights": (N_CLASSES, m),
        "head_bias": (N_CLASSES,),
    }
    arrays = {}
    for line in lines[5 + n_modes :]:
        name, _, values = line.partition(b" ")
        name = name.decode("utf-8", "replace")
        if name in shapes:
            try:
                arrays[name] = decode(values, shapes[name])
            except DataError as exc:
                raise DataError(f"{path}: {name}: {exc}") from None
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
