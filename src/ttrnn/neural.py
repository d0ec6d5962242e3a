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
import binascii
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import interpret
from .errors import ConfigError, DataError, ShapeError
from .files import reading, replacing
from .rng import stream_rng
from .tensor import DenseTensor, check_shape, element_count
from .ttformat import (
    InvalidRank,
    TTMatrix,
    _ints,
    _parse_values,
    check_ranks,
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
        for field in dataclasses.fields(self)[1:]:  # the dense arrays beside input_layer
            value = np.asarray(getattr(self, field.name), dtype=np.float64)
            object.__setattr__(self, field.name, value)
        params = dict(self.named_params())
        for name, shape in dense_shapes(self.hidden_size).items():
            if params[name].shape != shape:
                raise ShapeMismatch(f"{name} must be {shape}, got {params[name].shape}")

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
        """Fixed-order (name, array) pairs; bias exposed as its flat buffer.

        This is the one list of the parameters: gradients, SGD, checkpoints
        and :meth:`from_params` are all keyed by these names.
        """
        return list(_named_cores(self.cores).items()) + [
            ("feedback", self.feedback),
            ("bias", self.input_layer.bias.data),
            ("head_weights", self.head_weights),
            ("head_bias", self.head_bias),
        ]

    @classmethod
    def from_params(cls, params) -> TTRNNModel:
        """The model whose :meth:`named_params` are ``params``, on a new input layer."""
        n_cores = sum(name.startswith("core") for name in params)
        weights = TTMatrix([params[f"core{k}"] for k in range(n_cores)])
        return cls(
            input_layer=TTLinearLayer(weights, DenseTensor(weights.out_dims, params["bias"])),
            feedback=params["feedback"],
            head_weights=params["head_weights"],
            head_bias=params["head_bias"],
        )


def _named_cores(cores) -> dict:
    return {f"core{k}": c for k, c in enumerate(cores)}


def dense_shapes(m: int) -> dict:
    """The shape of each dense parameter at hidden size ``m``, in checkpoint line order."""
    return dict(bias=(m,), feedback=(m, m), head_weights=(N_CLASSES, m), head_bias=(N_CLASSES,))


def config_ranks(ranks, n_modes: int) -> tuple[int, ...]:
    """:func:`ttformat.check_ranks` for a setting: a bad tuple raises ConfigError."""
    try:
        return check_ranks(ranks, n_modes)
    except InvalidRank as exc:
        raise ConfigError(f"bad ranks: {exc}") from None


@dataclass
class TrainConfig:
    """Plain SGD settings for the training loop; :meth:`validate` is their one check."""

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


def _project(layer: TTLinearLayer, xs) -> list:
    """The rows W x + bias of the input tensors, as the memo's own ``(M,)`` arrays.

    Inputs are told apart by identity, and each distinct one is multiplied
    by the dense map once over the layer's lifetime: those not yet in
    ``layer.projected`` get the one input shape check and one matrix product
    together.  The rows are the memo's, so a caller must not write to them.
    """
    memo = layer.projected
    new = list({id(x): x for x in xs if id(x) not in memo}.values())
    for x in new:
        if x.shape != layer.in_dims:
            raise ShapeMismatch(f"input shape {x.shape} != in_dims {layer.in_dims}")
    if new:
        y = np.stack([x.data for x in new]) @ layer.matrix.T + layer.bias.data
        memo.update((id(x), (x, row)) for x, row in zip(new, y))
    return [memo[id(x)][1] for x in xs]


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
    return DenseTensor(layer.out_dims, _project(layer, [x])[0].copy())


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


def _window_length(windows) -> int:
    """The common step count of a batch of windows; empty or ragged ones are rejected."""
    if not windows:
        raise EmptyDataset("need at least one window")
    if not all(windows):
        raise EmptySequence("need at least one time step")
    if len({len(xs) for xs in windows}) > 1:
        raise ShapeMismatch("every window of a batch needs the same number of steps")
    return len(windows[0])


def _forward_windows(model: TTRNNModel, windows, keep_states: bool = True):
    """Run the cell over B windows of T steps each and classify their final states.

    Windows cut from one day sequence share its day tensors, which
    :func:`_project` projects once; the ``(B, M)`` recurrence starts from
    h_0 = 0.  Returns the hidden states ``(T + 1, B, M)`` and the ``(B, 3)``
    class probabilities.  With ``keep_states=False`` the states live in a
    ring of two ``(B, M)`` buffers, which is returned in their place.
    """
    n_steps = _window_length(windows)
    n_windows = len(windows)
    n_bufs = n_steps + 1 if keep_states else 2
    hidden = np.zeros((n_bufs, n_windows, model.hidden_size))
    rows = _project(model.input_layer, [xs[t] for t in range(n_steps) for xs in windows])
    if keep_states:  # one stack, not one per step: about 2% of a B = 1 window
        np.stack(rows, out=hidden[1:].reshape(len(rows), -1))
    for t in range(n_steps):
        h = hidden[(t + 1) % n_bufs]  # first holds step t's projected inputs
        if not keep_states:
            np.stack(rows[t * n_windows : (t + 1) * n_windows], out=h)
        if t:  # h_0 = 0 adds no feedback term
            h += hidden[t % n_bufs] @ model.feedback.T
        np.tanh(h, out=h)
    logits = hidden[n_steps % n_bufs] @ model.head_weights.T + model.head_bias
    probs = np.array([softmax(row) for row in logits])
    return hidden, probs


def forward_sequence(model: TTRNNModel, xs) -> tuple[np.ndarray, np.ndarray]:
    """Run the cell over a window of inputs: class probabilities, hidden states h_0 .. h_T."""
    hidden, probs = _forward_windows(model, [xs])
    return probs[0], hidden[:, 0]


def cross_entropy_loss(probs: np.ndarray, label: int) -> float:
    """Negative log probability of the true movement class (inf for probability 0)."""
    ci = class_index(label)
    with np.errstate(divide="ignore"):
        return float(-np.log(probs[ci]))


def forward_batch(model: TTRNNModel, batch):
    """Forward every (inputs, label) pair; returns (mean loss, (hidden, probs)).

    ``(hidden, probs)`` is the batch cache that :func:`backward` reads, laid
    out as :func:`_forward_windows` returns it.
    """
    n_steps = _window_length([xs for xs, _ in batch])
    hidden = np.empty((n_steps + 1, len(batch), model.hidden_size))
    probs = np.empty((len(batch), N_CLASSES))
    total = 0.0
    for b, (xs, label) in enumerate(batch):
        probs[b], hidden[:, b] = forward_sequence(model, xs)
        total += cross_entropy_loss(probs[b], label)
    return total / len(batch), (hidden, probs)


def backward(model: TTRNNModel, batch, cache) -> dict:
    """Backpropagation through time over a batch and its forward_batch cache, mean reduction.

    The gradients are keyed, ordered and shaped like ``model.named_params()``.
    The batch is walked back step by step on ``(B, M)`` matrices, keeping
    each step's pre-activation gradient.  After the loop the kept
    ``(T, B, M)`` gradients give the dense input map's gradient (one matrix
    product with the inputs), which is projected onto the cores, the bias
    (their sum) and the feedback gradient (one matrix product with the states
    h_1 .. h_{T-1}; h_0 = 0 adds nothing).  The input stack and the core
    projection's temporaries are freed before the M x M feedback gradient is
    made, and every gradient is scaled in place.
    """
    hidden, probs = cache
    n_steps = _window_length([xs for xs, _ in batch])
    n = len(batch)
    if hidden.shape[:2] != (n_steps + 1, n):
        raise CacheMismatch(f"cache shaped {hidden.shape} for {n} windows of {n_steps} steps")
    m = model.hidden_size
    d_logits = probs.copy()
    d_logits[np.arange(n), [class_index(label) for _, label in batch]] -= 1.0
    d_pre = np.empty((n_steps, n, m))
    dh = d_logits @ model.head_weights
    for t in range(n_steps - 1, -1, -1):
        np.multiply(dh, 1.0 - hidden[t + 1] * hidden[t + 1], out=d_pre[t])
        if t:  # h_0 = 0: step 0 passes nothing further back
            dh = d_pre[t] @ model.feedback
    # (T * B, prod(in_dims)) fastest-first inputs, time-major as _forward_windows projects them
    x = np.stack([xs[t].data for t in range(n_steps) for xs, _ in batch])
    d_input_map = d_pre.reshape(-1, m).T @ x
    del x
    grads = _named_cores(_core_grads(model.cores, d_input_map))
    del d_input_map
    grads.update(
        feedback=d_pre[1:].reshape(-1, m).T @ hidden[1:-1].reshape(-1, m),
        bias=d_pre.reshape(-1, m).sum(axis=0),
        head_weights=d_logits.T @ hidden[-1],
        head_bias=d_logits.sum(axis=0),
    )
    for g in grads.values():  # each a fresh array
        g *= 1.0 / n
    return grads


def sgd_step(model: TTRNNModel, grads: dict, lr: float) -> TTRNNModel:
    """Plain gradient descent update; returns a new model.

    Each new parameter is ``p - lr * g`` in one fresh array; neither the
    model nor ``grads`` is written.  Gradient names and shapes must equal the
    parameters', or ShapeMismatch is raised.
    """
    params = dict(model.named_params())
    if grads.keys() != params.keys():
        names = ", ".join(sorted(params.keys() ^ grads.keys()))
        raise ShapeMismatch(f"gradient and parameter names differ at {names}")
    for name, p in params.items():
        if np.shape(grads[name]) != p.shape:
            raise ShapeMismatch(f"{name}: gradient shape {np.shape(grads[name])} != {p.shape}")
    for name, p in params.items():
        new = np.multiply(lr, grads[name])
        params[name] = np.subtract(p, new, out=new)
    return TTRNNModel.from_params(params)


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
    params = _named_cores(cores)
    try:
        params["feedback"] = rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, m))
    except (ValueError, MemoryError):  # numpy refuses the size
        raise ConfigError(
            f"hidden_dims {hidden_dims} give M = {m} hidden units; "
            "the M x M feedback matrix is too large to allocate"
        ) from None
    params["bias"] = np.zeros(m)
    params["head_weights"] = rng.normal(0.0, 1.0 / math.sqrt(m), size=(N_CLASSES, m))
    params["head_bias"] = np.zeros(N_CLASSES)
    return TTRNNModel.from_params(params)


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
            mean_loss, cache = forward_batch(model, batch)
            if not math.isfinite(mean_loss):
                raise ConfigError(
                    f"training diverged in epoch {epoch}: batch loss {mean_loss} "
                    f"at learning rate {config.learning_rate}"
                )
            total += mean_loss * len(batch)
            grads = backward(model, batch, cache)
            del cache
            model = sgd_step(model, grads, config.learning_rate)
            del grads  # nothing a step made lives into the next step
        epoch_losses.append(total / n)
        snapshots.append([c.copy() for c in model.cores])
    log = TrainLog(epoch_losses=epoch_losses, core_snapshots=snapshots)
    if len(snapshots) >= 2:
        log.core_change = interpret.core_change(snapshots)
    return model, log


def evaluate(model: TTRNNModel, dataset):
    """Mean loss, per-sample probabilities and predicted labels over a dataset.

    All windows run as one batch (see :func:`_forward_windows`), so they
    need the same number of steps; only the last two hidden states are held.
    """
    _, probs = _forward_windows(model, [xs for xs, _ in dataset], keep_states=False)
    losses = [cross_entropy_loss(p, label) for p, (_, label) in zip(probs, dataset)]
    predicted = [LABELS[int(np.argmax(p))] for p in probs]
    return float(np.mean(losses)), probs, predicted


# --- checkpoint file ---------------------------------------------------------
#
# Header lines, then the TT core block in decimal (the readable part, which
# the core-change report interprets), then one ``name <base64>`` line per
# dense parameter: its little-endian float64 bytes, fastest-first.  A v1
# checkpoint has the same layout with decimal dense lines.


def _b64_values(arr: np.ndarray) -> bytes:
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes(order="F"))


def _parse_b64_values(line: memoryview, shape) -> np.ndarray:
    """Decode a :func:`_b64_values` line into an owned, writable float64 array.

    ``line`` is released once its bytes are decoded, so the text it views
    can be freed before the array is made.
    """
    try:
        raw = binascii.a2b_base64(line, strict_mode=True)
    except ValueError:  # bad alphabet or padding, or a non-ASCII byte
        raise DataError("not valid base64") from None
    finally:
        line.release()
    want = 8 * element_count(shape)
    if len(raw) != want:
        raise DataError(f"expected {want} bytes ({want // 8} float64 values), got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").astype(np.float64)


def _parse_decimal_values(line: memoryview, shape) -> np.ndarray:
    """Decode a v1 dense line: decimal values in UTF-8 text."""
    return _parse_values(str(line, "utf-8"), shape)


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
    params = dict(model.named_params())
    with replacing(path, "wb") as f:  # each dense line goes out as b64encode's bytes, uncopied
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name in dense_shapes(model.hidden_size):
            f.writelines([name.encode("ascii"), b" ", _b64_values(params[name]), b"\n"])


def load_model(path) -> tuple[TTRNNModel, dict]:
    """Read a :func:`save_model` checkpoint, or a v1 one with decimal dense lines.

    Read a line at a time: the 4 header lines and the ``ttmat`` core block are
    UTF-8 text, and each dense line goes to its version's decoder as is.  A
    malformed file or a non-finite parameter value raises DataError.
    """
    with reading(path, "rb") as f:
        magic, *head = (f.readline().decode("utf-8").rstrip("\n") for _ in range(4))
        decode = _DENSE_DECODERS.get(magic)
        if decode is None:
            raise DataError(f"not a model checkpoint: {magic!r}")
        try:
            (k1, seed), (k2, epoch), (k3, dims) = (line.split() for line in head)
            meta = {"seed": int(seed), "epoch": int(epoch)}
            hidden_dims = check_shape(_ints(dims))
            if (k1, k2, k3) != ("seed", "epoch", "hidden_dims"):
                raise ValueError
        except ValueError:  # a header line with another key, or a bad value
            raise DataError("malformed checkpoint header") from None
        block = b"".join(f.readline() for _ in range(len(hidden_dims) + 1))
        weights = parse_tt_matrix(block.decode("utf-8"))
        if weights.out_dims != hidden_dims:
            raise DataError(f"hidden_dims {hidden_dims} != core out dims {weights.out_dims}")
        shapes = dense_shapes(weights.n_out)
        params = _named_cores(weights.cores)
        for line in f:  # its values viewed, not copied: a dense line is held once
            cut = line.find(b" ")  # a line without a name is skipped, as unknown names are
            name = line[:cut].decode("utf-8", "replace") if cut >= 0 else ""
            values = memoryview(line)[cut + 1 : len(line) - line.endswith(b"\n")]
            del line  # the view alone holds it, so the decoder can free it
            if name in shapes:
                if name in params:
                    raise DataError(f"{name} line appears twice")
                try:
                    params[name] = decode(values, shapes[name])
                except DataError as exc:
                    raise DataError(f"{name}: {exc}") from None
        missing = [name for name in shapes if name not in params]
        if missing:
            raise DataError(f"checkpoint has no {', '.join(missing)} line")
        model = TTRNNModel.from_params(params)
        for name, values in model.named_params():
            if not np.all(np.isfinite(values)):
                raise DataError(f"{name} has non-finite values")
    return model, meta
