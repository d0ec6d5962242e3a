"""Recurrent cell with a TT-format input weight matrix, trained by plain SGD.

The input-to-hidden map is TT-stored, dense-applied: its parameters are the
TT cores, and a layer contracts them once into the dense matrix, which it
applies to each distinct input tensor once.  The hidden-to-hidden feedback
and the 3-class softmax head are dense.  Gradients are the chain rule
written out by hand: through time to the dense map's gradient, which
:func:`ttformat.mpo_core_grads` projects onto the cores, so every TT core
gets an analytic gradient that can be checked against finite differences.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
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
    check_ranks,
    format_tt_matrix,
    mpo_core_grads,
    mpo_to_matrix,
    parse_tt_matrix,
)

LABELS = (1, 0, -1)  # class indices 0, 1, 2
N_CLASSES = 3
CHECKPOINT_MAGIC = "ttrnn-model v3"


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
        the entry exists.  In training a layer lives through one step's
        forward; the memo costs ``8 * M`` bytes per distinct input.
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
    """Plain SGD settings; :meth:`validate` checks them all, but :func:`train` reads neither
    ``seq_len`` nor ``ranks``: the windows carry their length and the model its ranks."""

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


# --- TT linear map: dense apply ----------------------------------------------


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
    h_1 .. h_{T-1}; h_0 = 0 adds nothing).  The input stack, the dense map's
    gradient (freed once refolded) and the core projection's temporaries are
    gone before the M x M feedback gradient is made, and every gradient is
    scaled in place.  A cache not shaped ``(T + 1, B, M)`` and ``(B, 3)`` for
    this batch and model raises CacheMismatch.
    """
    hidden, probs = cache
    n_steps = _window_length([xs for xs, _ in batch])
    n = len(batch)
    m = model.hidden_size
    want = (n_steps + 1, n, m), (n, N_CLASSES)
    if (hidden.shape, probs.shape) != want:
        raise CacheMismatch(
            f"cache shaped {hidden.shape} and {probs.shape}, expected {want[0]} and {want[1]}"
        )
    d_logits = probs.copy()
    d_logits[np.arange(n), [class_index(label) for _, label in batch]] -= 1.0
    d_pre = np.empty((n_steps, n, m))
    dh = d_logits @ model.head_weights
    for t in range(n_steps - 1, -1, -1):
        np.multiply(dh, 1.0 - hidden[t + 1] * hidden[t + 1], out=d_pre[t])
        if t:  # h_0 = 0: step 0 passes nothing further back
            dh = d_pre[t] @ model.feedback
    # (T * B, prod(in_dims)) fastest-first inputs, time-major as _forward_windows projects them
    rows = [xs[t].data for t in range(n_steps) for xs, _ in batch]
    # the dense map's gradient goes in unnamed, so mpo_core_grads frees it once refolded
    grads = _named_cores(
        mpo_core_grads(model.input_layer.weights, d_pre.reshape(-1, m).T @ np.stack(rows))
    )
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
    """Plain gradient descent update; returns a new model built on the gradient arrays.

    ``sgd_step`` takes ownership of ``grads``: each gradient ``g`` is
    overwritten with its new parameter, ``p - lr * g`` rounded as that
    expression rounds it, and becomes that parameter of the returned model.
    The model is never written.  Gradients must be keyed and shaped like the
    parameters, and each must be a writable float64 ndarray that shares no
    memory with a parameter or another gradient; otherwise ShapeMismatch is
    raised before anything is written.
    """
    params = dict(model.named_params())
    if grads.keys() != params.keys():
        names = ", ".join(sorted(params.keys() ^ grads.keys()))
        raise ShapeMismatch(f"gradient and parameter names differ at {names}")
    seen = list(params.values())
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != p.shape:
            raise ShapeMismatch(f"{name}: gradient shape {np.shape(g)} != {p.shape}")
        if not isinstance(g, np.ndarray) or g.dtype != np.float64 or not g.flags.writeable:
            raise ShapeMismatch(f"{name}: gradient must be a writable float64 ndarray")
        if any(np.may_share_memory(g, a) for a in seen):
            raise ShapeMismatch(f"{name}: gradient shares memory with a parameter or gradient")
        seen.append(g)
    for name, p in params.items():
        g = grads[name]
        np.multiply(lr, g, out=g)
        params[name] = np.subtract(p, g, out=g)
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
    m = math.prod(hidden_dims)
    try:
        params = _named_cores([
            rng.normal(0.0, 1.0 / math.sqrt(ranks[k] * in_dims[k]),
                       size=(ranks[k], in_dims[k], hidden_dims[k], ranks[k + 1]))
            for k in range(n)
        ])
        params["feedback"] = rng.normal(0.0, 1.0 / math.sqrt(m), size=(m, m))
    except (ValueError, MemoryError):  # numpy refuses the size
        raise ConfigError(
            f"hidden_dims {hidden_dims} and ranks {ranks} give M = {m} hidden units; "
            "the TT cores or the M x M feedback matrix is too large to allocate"
        ) from None
    params["bias"] = np.zeros(m)
    params["head_weights"] = rng.normal(0.0, 1.0 / math.sqrt(m), size=(N_CLASSES, m))
    params["head_bias"] = np.zeros(N_CLASSES)
    return TTRNNModel.from_params(params)


@dataclass
class TrainLog:
    """Per-epoch mean losses and the per-core change between them: no columns after one epoch."""

    epoch_losses: list
    core_change: object  # interpret.CoreChangeLog


def train(model: TTRNNModel, dataset, config: TrainConfig) -> tuple[TTRNNModel, TrainLog]:
    """Shuffled mini-batch SGD, reproducible from config.seed.

    ``dataset`` is a list of (inputs, label) pairs.  After every epoch the
    TT cores are snapshotted; the normalized per-core change between
    consecutive snapshots is summarized in the returned log.  A batch whose
    mean loss is not finite, or a last step that leaves a parameter or the
    dense input map not finite, stops training with :class:`ConfigError`:
    the learning rate is too large.  Each step forwards a layer of its own,
    so its dense map and projected days live only through that forward and
    the caller's model is never forwarded; :func:`sgd_step` then writes the
    new parameters into the step's gradient arrays.
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
            # the forward runs on a layer of its own, so the step's dense map and projected
            # days are freed when it returns, before backward allocates anything
            mean_loss, cache = forward_batch(
                TTRNNModel.from_params(dict(model.named_params())), batch
            )
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
    # no batch loss checks the last step; its map is a temporary, not cached on the layer
    with np.errstate(over="ignore", invalid="ignore"):
        if not (all(np.isfinite(p).all() for _, p in model.named_params())
                and np.isfinite(mpo_to_matrix(model.input_layer.weights).data).all()):
            raise ConfigError(
                f"training diverged in epoch {epoch}: after its last step a parameter or "
                f"the dense input map is not finite at learning rate {config.learning_rate}"
            )
    return model, TrainLog(epoch_losses, interpret.core_change(snapshots))


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
# Header lines, then the TT core block in decimal (the human-readable part),
# then each dense parameter, in ``dense_shapes`` order, as one ``name <nbytes>``
# line, its little-endian float64 bytes, fastest-first, and one ``\n``.


def _read_entry(f, name, shape) -> np.ndarray:
    """Read the dense entry ``name``: its ``name <nbytes>`` line, the bytes and one ``\n``.

    The line must be the one :func:`save_model` writes for ``shape``, and the
    file must hold that many bytes, before the owned array is made.
    """
    want = 8 * element_count(shape)
    entry = f"{name} {want}"
    line = f.readline(len(entry) + 1)  # no more than the expected line, whatever the file holds
    if line != f"{entry}\n".encode("ascii"):
        got = line.rstrip(b"\n").decode("utf-8", "replace")
        raise DataError(f"expected the entry line {entry!r}, got {got!r}")
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < want:
        raise DataError(f"{name}: expected {want} bytes, the file ends after {left}")
    out = np.empty(want // 8, dtype="<f8")
    f.readinto(memoryview(out).cast("B"))
    if f.read(1) != b"\n":
        raise DataError(f"{name}: no line end after the {want} bytes")
    return out.reshape(shape, order="F").astype(np.float64, copy=False)


def save_model(model: TTRNNModel, path, seed: int = 0, epoch: int = 0):
    """Write a checkpoint: header, decimal TT core block, then each dense parameter's bytes."""
    lines = [
        CHECKPOINT_MAGIC,
        f"seed {seed}",
        f"epoch {epoch}",
        "hidden_dims " + ",".join(map(str, model.hidden_dims)),
        format_tt_matrix(model.input_layer.weights).rstrip("\n"),
    ]
    params = dict(model.named_params())
    with replacing(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for name in dense_shapes(model.hidden_size):
            f.write(f"{name} {8 * params[name].size}\n".encode("ascii"))
            f.write(np.asarray(params[name], dtype="<f8").tobytes(order="F"))
            f.write(b"\n")


def load_model(path) -> tuple[TTRNNModel, dict]:
    """Read a :func:`save_model` checkpoint.

    Read a line at a time: the 4 header lines and the ``ttmat`` core block are
    UTF-8 text.  The dense entries follow in :func:`dense_shapes` order, each
    line exactly as :func:`save_model` writes it, and their bytes go straight
    into their arrays.  Anything else, a v1 or v2 checkpoint, a malformed file
    or a non-finite parameter value raises DataError.
    """
    with reading(path, "rb") as f:
        # no more than the magic line's bytes are read, or quoted, whatever the file holds
        magic = f.readline(len(CHECKPOINT_MAGIC) + 1).rstrip(b"\n").decode("utf-8", "replace")
        if magic in ("ttrnn-model v1", "ttrnn-model v2"):
            raise DataError(f"{magic} checkpoints are no longer read; re-run ttrnn train")
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"not a model checkpoint: {magic!r}")
        head = [f.readline().decode("utf-8").rstrip("\n") for _ in range(3)]
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
        params = _named_cores(weights.cores)
        for name, shape in dense_shapes(weights.n_out).items():
            params[name] = _read_entry(f, name, shape)
        if f.read(1):
            raise DataError(f"unexpected data after the {name} entry")
        model = TTRNNModel.from_params(params)
        for name, values in model.named_params():
            # min and max are NaN or infinite if any value is, and need no mask the size of values
            if not (np.isfinite(values.min()) and np.isfinite(values.max())):
                raise DataError(f"{name} has non-finite values")
    return model, meta
