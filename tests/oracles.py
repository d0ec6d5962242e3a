"""Independent reference implementations used as test oracles.

Everything here is deliberately written with explicit loops and plain
formulas, separate from the library's vectorized paths, so agreement is
meaningful.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ttrnn.features import (
    PANEL_HEADER,
    PANEL_SERIES,
    AssetPanel,
    MisalignedDates,
    _is_iso_date,
    _raise_first_bad_row,
)
from ttrnn.files import csv_columns, reading
from ttrnn.neural import (
    LABELS,
    TTLinearLayer,
    TTRNNModel,
    class_index,
    cross_entropy_loss,
    forward_sequence,
    softmax,
)
from ttrnn.tensor import DenseTensor


def contract_bruteforce(a: DenseTensor, n: int, b: DenseTensor, m: int) -> np.ndarray:
    """Sum over the shared mode with explicit loops over every index tuple."""
    a_nd = a.to_ndarray()
    b_nd = b.to_ndarray()
    out_shape = tuple(d for k, d in enumerate(a.shape) if k != n - 1) + tuple(
        d for k, d in enumerate(b.shape) if k != m - 1
    )
    out = np.zeros(out_shape)
    ka = a.order - 1
    for idx in itertools.product(*map(range, out_shape)):
        ia, ib = idx[:ka], idx[ka:]
        total = 0.0
        for s in range(a.shape[n - 1]):
            full_a = ia[: n - 1] + (s,) + ia[n - 1 :]
            full_b = ib[: m - 1] + (s,) + ib[m - 1 :]
            total += a_nd[full_a] * b_nd[full_b]
        out[idx] = total
    return out


def le_offset_1based(shape, index) -> int:
    """The documented fastest-first offset formula, 1-based indices."""
    off = 0
    stride = 1
    for i, d in zip(index, shape):
        off += (i - 1) * stride
        stride *= d
    return off


def tt_reconstruct_slices(v) -> DenseTensor:
    """Entry-by-entry TT assembly via slice matrix products (exponential in the order)."""
    dims = v.dims
    out = DenseTensor.zeros(dims)
    buf = out.data
    for off in range(out.size):
        rem, idx = off, []
        for d in dims:
            idx.append(rem % d)
            rem //= d
        acc = v.cores[0][:, idx[0], :]
        for n in range(1, len(dims)):
            acc = acc @ v.cores[n][:, idx[n], :]
        buf[off] = acc[0, 0]
    return out


def mpo_entry(cores, in_idx, out_idx) -> float:
    """One entry of the tensorized matrix: product of core slices."""
    acc = cores[0][:, in_idx[0], out_idx[0], :]
    for k in range(1, len(cores)):
        acc = acc @ cores[k][:, in_idx[k], out_idx[k], :]
    return float(acc[0, 0])


def dense_layer_apply(layer: TTLinearLayer, x: DenseTensor) -> np.ndarray:
    """Reference TT-layer output via the fully materialized matrix."""
    from ttrnn.ttformat import mpo_to_matrix

    w = mpo_to_matrix(layer.weights).to_ndarray()
    y_flat = w @ x.data + layer.bias.data
    return y_flat.reshape(layer.out_dims, order="F")


def dense_cell_apply(model: TTRNNModel, x: DenseTensor, h_prev: np.ndarray) -> np.ndarray:
    """Reference recurrence step through the dense equivalent input matrix."""
    from ttrnn.ttformat import mpo_to_matrix

    w = mpo_to_matrix(model.input_layer.weights).to_ndarray()
    pre = model.feedback @ h_prev + w @ x.data + model.input_layer.bias.data
    return np.tanh(pre)


def _tt_apply_one(cores, x_nd):
    """One input through the core chain; returns the output and every state.

    The state after k cores is ``(R_k, I_{k+1}, ..., I_N, J_1, ..., J_k)``.
    """
    state = x_nd[np.newaxis, ...]
    steps = [state]
    for core in cores:
        mixed = np.tensordot(state, core, axes=([0, 1], [0, 1]))
        state = np.moveaxis(mixed, -1, 0)
        steps.append(state)
    return state[0], steps


def _tt_core_grads_one(cores, steps, dy_nd):
    """Reverse sweep of :func:`_tt_apply_one` for one output gradient."""
    d_state = dy_nd[np.newaxis, ...]
    d_cores = [None] * len(cores)
    for k in range(len(cores) - 1, -1, -1):
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
    return d_cores


def backward_per_sample(model: TTRNNModel, batch) -> dict:
    """Mean-over-batch BPTT gradients, one sample and one time step at a time.

    Each sample runs its own forward pass, keeping every step's core-chain
    states; its error then flows back step by step into rank-1 feedback
    updates and a per-step reverse sweep through the cores.  The gradients
    are keyed like ``model.named_params()``.
    """
    m = model.hidden_size
    cores = model.cores
    bias = model.input_layer.bias.data
    grads = {name: np.zeros_like(p) for name, p in model.named_params()}
    d_cores = list(grads.values())[: len(cores)]
    for xs, label in batch:
        hidden = [np.zeros(m)]
        tt_steps = []
        for x in xs:
            y_nd, steps = _tt_apply_one(cores, x.to_ndarray())
            hidden.append(np.tanh(model.feedback @ hidden[-1] + y_nd.ravel(order="F") + bias))
            tt_steps.append(steps)
        d_logits = softmax(model.head_weights @ hidden[-1] + model.head_bias)
        d_logits[class_index(label)] -= 1.0
        grads["head_weights"] += np.outer(d_logits, hidden[-1])
        grads["head_bias"] += d_logits
        dh = model.head_weights.T @ d_logits
        for t in range(len(xs) - 1, -1, -1):
            h_t = hidden[t + 1]
            d_pre = dh * (1.0 - h_t * h_t)
            grads["bias"] += d_pre
            grads["feedback"] += np.outer(d_pre, hidden[t])
            dy_nd = d_pre.reshape(model.hidden_dims, order="F")
            for acc, g in zip(d_cores, _tt_core_grads_one(cores, tt_steps[t], dy_nd)):
                acc += g
            dh = model.feedback.T @ d_pre
    scale = 1.0 / len(batch)
    return {name: g * scale for name, g in grads.items()}


def with_fresh_layer(model: TTRNNModel) -> TTRNNModel:
    """``model`` rebuilt from its parameters, on a new input layer.

    The new layer has projected nothing yet, so a forward pass through it
    multiplies every input by the dense map and reuses no memoized row.
    """
    return TTRNNModel.from_params(dict(model.named_params()))


def evaluate_per_window(model: TTRNNModel, dataset):
    """Mean loss, probabilities and predicted labels, one window at a time.

    Each window runs on its own fresh input layer (:func:`with_fresh_layer`).
    """
    losses = []
    probs_list = []
    predicted = []
    for xs, label in dataset:
        probs, _ = forward_sequence(with_fresh_layer(model), xs)
        losses.append(cross_entropy_loss(probs, label))
        probs_list.append(probs)
        predicted.append(LABELS[int(np.argmax(probs))])
    return float(np.mean(losses)), np.array(probs_list), predicted


def rebuild_model(model: TTRNNModel, arrays) -> TTRNNModel:
    """Model from a flat list of parameter arrays, ordered like named_params()."""
    names = [name for name, _ in model.named_params()]
    return TTRNNModel.from_params(dict(zip(names, arrays, strict=True)))


def batch_loss(model: TTRNNModel, batch) -> float:
    """Mean loss over the batch, each window on its own fresh input layer."""
    total = 0.0
    for xs, label in batch:
        probs, _ = forward_sequence(with_fresh_layer(model), xs)
        total += cross_entropy_loss(probs, label)
    return total / len(batch)


def finite_difference_check(model: TTRNNModel, batch, grads, step=1e-5,
                            rel_tol=1e-4, grad_floor=1e-8) -> float:
    """Central finite differences over every parameter entry.

    Returns the worst relative error among entries whose analytic gradient
    exceeds ``grad_floor``; asserts it stays within ``rel_tol``.
    """
    worst = 0.0
    base = {name: p.copy() for name, p in model.named_params()}
    assert list(grads) == list(base)
    for name, param in base.items():
        flat = param.ravel()  # a view: the copies are contiguous
        g = np.asarray(grads[name]).ravel()
        for i in range(flat.size):
            if abs(g[i]) <= grad_floor:
                continue
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss(TTRNNModel.from_params(base), batch)
            flat[i] = orig - step
            down = batch_loss(TTRNNModel.from_params(base), batch)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(g[i] - fd) / abs(g[i])
            worst = max(worst, rel)
            assert rel <= rel_tol, (
                f"{name} entry {i}: analytic {g[i]:.6e} vs "
                f"finite-difference {fd:.6e} (rel {rel:.2e})"
            )
    return worst


# --- scalar-loop feature formulas ---------------------------------------------


def feature_vector_scalar(close, high, low, volume, open_interest, t) -> list:
    """The 20 features of one instrument at day t, each from first principles."""
    out = [math.log(close[t]) - math.log(close[t - 1])]

    def logdiff(s):
        return math.log(close[s]) - math.log(close[s - 1])

    for w in (5, 10, 22):
        window = [logdiff(s) for s in range(t - w + 1, t + 1)]
        mu = sum(window) / w
        dev = [v - mu for v in window]
        m2 = sum(d * d for d in dev) / w
        m3 = sum(d**3 for d in dev) / w
        m4 = sum(d**4 for d in dev) / w
        scale = max(abs(v) for v in window)
        if m2 <= (1e-12 * max(scale, 1e-300)) ** 2:
            out.extend([mu, 0.0, 0.0, 0.0])
        else:
            out.extend([mu, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2])
    for w in (5, 10, 22):
        window = [close[s] for s in range(t - w + 1, t + 1)]
        lo, hi = min(window), max(window)
        out.append(0.5 if hi == lo else (close[t] - lo) / (hi - lo))
    span = high[t] - low[t]
    out.append(0.5 if span == 0 else (close[t] - low[t]) / span)
    out.append(span / low[t])
    out.append(volume[t])
    out.append(open_interest[t])
    return out


def sliding_window_moments(values, window: int):
    """Mean, m2, m3 and m4 of each trailing window, each a ``mean(axis=-1)`` of the window view.

    numpy adds each window as one contiguous run, in its pairwise order, so
    this is the bit-for-bit reference for `features._window_moments`, which
    sums shifted views of the series instead.
    """
    sw = sliding_window_view(np.asarray(values, dtype=np.float64), window, axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        m = sw.mean(axis=-1)
        dev = sw - m[..., None]
        dev2 = dev * dev
        return m, dev2.mean(axis=-1), (dev2 * dev).mean(axis=-1), (dev2 * dev2).mean(axis=-1)


def rolling_stats_per_window(values, window: int):
    """`features.rolling_stats` one window at a time, moments by `**` powers.

    Each window is reduced as its own contiguous slice, so the mean and the
    variance are summed in the order the vectorized path uses; the third
    and fourth moments keep the plain `dev**3`/`dev**4` formulas.
    """
    v = np.asarray(values, dtype=np.float64)  # (N, T)
    out = np.full((4,) + v.shape, np.nan)
    for row in range(v.shape[0]):
        for t in range(window - 1, v.shape[1]):
            win = v[row, t - window + 1 : t + 1]
            if np.isnan(win).any():
                continue
            mu = win.mean()
            dev = win - mu
            m2 = (dev**2).mean()
            if m2 <= (1e-12 * max(np.abs(win).max(), 1e-300)) ** 2:
                out[:, row, t] = mu, 0.0, 0.0, 0.0
            else:
                m3 = (dev**3).mean()
                m4 = (dev**4).mean()
                out[:, row, t] = mu, math.sqrt(m2), m3 / m2**1.5, m4 / m2**2
    return tuple(out)


# --- the panel CSVs through the csv module alone --------------------------------


def read_panel_csv(entries):
    """`features.read_panel` with every file read by the csv module and Python's ``float``.

    numpy's reader must give this panel bit for bit, or the same DataError
    class and message.
    """
    per_instrument = []
    common = None
    iso_dates = set()  # each distinct date string is checked once
    for _, path in entries:
        with reading(path) as f:
            _, dates, *columns = csv_columns(f, PANEL_HEADER)
            own = set(dates)
            try:  # whole columns first; a fault is then found row by row, as it is reported
                if len(own) < len(dates) or not all(map(_is_iso_date, own - iso_dates)):
                    raise ValueError
                values = np.array([list(map(float, column)) for column in columns])  # (5, days)
                if not np.isfinite(values).all():
                    raise ValueError
            except (TypeError, ValueError):
                _raise_first_bad_row(dates, columns)
            iso_dates |= own
            common = own if common is None else common & own
            if not common:
                raise MisalignedDates("instrument files share no common dates")
        per_instrument.append((dates, values))
    dates = sorted(common)

    table = np.empty((len(PANEL_SERIES), len(entries), len(dates)))
    for k, (own_dates, values) in enumerate(per_instrument):
        if own_dates != dates:
            at = {date: i for i, date in enumerate(own_dates)}
            values = values[:, [at[date] for date in dates]]
        table[:, k] = values
    return AssetPanel(
        instruments=[meta for meta, _ in entries],
        dates=dates,
        **{name: rows.T for name, rows in zip(PANEL_SERIES, table)},
    )
