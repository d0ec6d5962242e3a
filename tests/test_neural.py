import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtrace import traced_peak
from oracles import (
    _tt_apply_one,
    _tt_core_grads_one,
    backward_per_sample,
    batch_loss,
    dense_cell_apply,
    dense_layer_apply,
    evaluate_per_window,
    finite_difference_check,
    rebuild_model,
    with_fresh_layer,
)
from ttrnn import neural
from ttrnn.config import stream_rng
from ttrnn.errors import ConfigError, DataError
from ttrnn.features import TENSOR_DIMS_5
from ttrnn.neural import (
    CacheMismatch,
    EmptyDataset,
    EmptySequence,
    InvalidLabel,
    ShapeMismatch,
    TrainConfig,
    TTLinearLayer,
    TTRNNModel,
    _forward_windows,
    _project,
    backward,
    class_index,
    cross_entropy_loss,
    evaluate,
    forward_batch,
    forward_sequence,
    init_model,
    load_model,
    save_model,
    sgd_step,
    train,
    tt_linear_forward,
    ttrnn_cell_forward,
)
from ttrnn.tensor import DenseTensor
from ttrnn.ttformat import TTMatrix, mpo_core_grads, mpo_to_matrix, tt_param_count


def tiny_model(seed=7, in_dims=(2, 2, 2), hidden=(2, 2, 2), ranks=(1, 2, 2, 1)):
    return init_model(in_dims, hidden, ranks, np.random.default_rng(seed))


def rand_input(rng, dims=(2, 2, 2)):
    return DenseTensor.from_ndarray(rng.normal(size=dims))


def make_batch(rng, model, n, seq_len, labels=None):
    batch = []
    for k in range(n):
        xs = [rand_input(rng, model.in_dims) for _ in range(seq_len)]
        label = labels[k] if labels is not None else int(rng.choice([1, 0, -1]))
        batch.append((xs, label))
    return batch


class TestTTLinearForward:
    def test_identity_single_mode(self):
        core = np.eye(3).reshape(1, 3, 3, 1)
        layer = TTLinearLayer(weights=TTMatrix([core]), bias=DenseTensor.zeros((3,)))
        x = DenseTensor((3,), np.array([1.0, -2.0, 0.5]))
        y = tt_linear_forward(layer, x)
        assert np.allclose(y.data, x.data, atol=0)

    def test_matches_dense_reconstruction(self):
        rng = np.random.default_rng(5)
        cores = [
            rng.normal(size=(1, 2, 2, 2)),
            rng.normal(size=(2, 2, 2, 2)),
            rng.normal(size=(2, 2, 2, 1)),
        ]
        layer = TTLinearLayer(
            weights=TTMatrix(cores),
            bias=DenseTensor.from_ndarray(rng.normal(size=(2, 2, 2))),
        )
        x = rand_input(rng)
        got = tt_linear_forward(layer, x).to_ndarray()
        want = dense_layer_apply(layer, x)
        scale = np.max(np.abs(want)) or 1.0
        assert np.max(np.abs(got - want)) / scale < 1e-10

    def test_dense_equivalence_sweep(self):
        # random dims and ranks, up to 4 modes
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            in_dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
            out_dims = tuple(int(d) for d in rng.integers(1, 4, size=n))
            ranks = (1,) + tuple(int(r) for r in rng.integers(1, 4, size=n - 1)) + (1,)
            cores = [
                rng.normal(size=(ranks[k], in_dims[k], out_dims[k], ranks[k + 1]))
                for k in range(n)
            ]
            layer = TTLinearLayer(
                weights=TTMatrix(cores),
                bias=DenseTensor.from_ndarray(rng.normal(size=out_dims)),
            )
            x = rand_input(rng, in_dims)
            got = tt_linear_forward(layer, x).to_ndarray()
            want = dense_layer_apply(layer, x)
            scale = np.max(np.abs(want)) or 1.0
            assert np.max(np.abs(got - want)) / scale < 1e-10

    def test_zero_input_returns_bias(self):
        model = tiny_model()
        layer = model.input_layer
        bias = DenseTensor.from_ndarray(np.random.default_rng(1).normal(size=(2, 2, 2)))
        layer = TTLinearLayer(weights=layer.weights, bias=bias)
        y = tt_linear_forward(layer, DenseTensor.zeros((2, 2, 2)))
        assert np.allclose(y.data, bias.data, atol=0)

    def test_shape_mismatch(self):
        model = tiny_model()
        with pytest.raises(ShapeMismatch):
            tt_linear_forward(model.input_layer, DenseTensor.zeros((2, 2)))


class TestCellForward:
    def test_zero_model_outputs_zero(self):
        model = tiny_model()
        zeroed = rebuild_model(
            model,
            [np.zeros_like(c) for c in model.cores]
            + [
                np.zeros_like(model.feedback),
                np.zeros(model.hidden_size),
                np.zeros_like(model.head_weights),
                np.zeros(3),
            ],
        )
        rng = np.random.default_rng(2)
        h = ttrnn_cell_forward(zeroed, rand_input(rng), rng.normal(size=8))
        assert np.array_equal(h, np.zeros(8))

    def test_bias_only(self):
        model = tiny_model()
        b = np.random.default_rng(3).normal(size=8)
        biased = rebuild_model(
            model,
            [np.zeros_like(c) for c in model.cores]
            + [np.zeros_like(model.feedback), b, model.head_weights, model.head_bias],
        )
        h = ttrnn_cell_forward(biased, DenseTensor.zeros((2, 2, 2)), np.zeros(8))
        assert np.allclose(h, np.tanh(b), atol=0)

    def test_matches_dense_cell(self):
        rng = np.random.default_rng(9)
        model = tiny_model(seed=4)
        x = rand_input(rng)
        h_prev = rng.normal(size=8)
        got = ttrnn_cell_forward(model, x, h_prev)
        want = dense_cell_apply(model, x, h_prev)
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.all(np.abs(got) < 1.0)

    def test_shape_checks(self):
        model = tiny_model()
        with pytest.raises(ShapeMismatch):
            ttrnn_cell_forward(model, DenseTensor.zeros((2, 2)), np.zeros(8))
        with pytest.raises(ShapeMismatch):
            ttrnn_cell_forward(model, DenseTensor.zeros((2, 2, 2)), np.zeros(7))


class TestForwardSequence:
    def test_probs_normalized(self):
        rng = np.random.default_rng(11)
        model = tiny_model()
        probs, _ = forward_sequence(model, [rand_input(rng) for _ in range(4)])
        assert abs(float(np.sum(probs)) - 1.0) < 1e-12
        assert np.all(probs > 0)

    def test_zero_model_uniform(self):
        model = tiny_model()
        zeroed = rebuild_model(
            model,
            [np.zeros_like(c) for c in model.cores]
            + [np.zeros_like(model.feedback), np.zeros(8), np.zeros((3, 8)), np.zeros(3)],
        )
        probs, _ = forward_sequence(zeroed, [DenseTensor.zeros((2, 2, 2))])
        assert np.allclose(probs, np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_single_step_equals_manual_composition(self):
        rng = np.random.default_rng(13)
        model = tiny_model(seed=8)
        x = rand_input(rng)
        probs, _ = forward_sequence(model, [x])
        h = ttrnn_cell_forward(model, x, np.zeros(8))
        logits = model.head_weights @ h + model.head_bias
        manual = np.exp(logits - logits.max())
        manual /= manual.sum()
        assert np.max(np.abs(probs - manual)) < 1e-14

    def test_hidden_states_bounded(self):
        rng = np.random.default_rng(17)
        model = tiny_model(seed=10)
        _, hidden = forward_sequence(model, [rand_input(rng) for _ in range(6)])
        for h in hidden[1:]:
            assert np.all(np.abs(h) < 1.0)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            forward_sequence(tiny_model(), [])


class TestCrossEntropy:
    def test_uniform_gives_log3(self):
        probs = np.full(3, 1.0 / 3.0)
        for label in (1, 0, -1):
            assert cross_entropy_loss(probs, label) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_concentrated_probability(self):
        eps = 1e-4
        probs = np.array([1.0 - eps, eps / 2, eps / 2])
        loss = cross_entropy_loss(probs, 1)
        assert abs(loss - eps) < eps * eps  # -log(1-eps) ~ eps to first order

    def test_label_mapping(self):
        assert class_index(1) == 0 and class_index(0) == 1 and class_index(-1) == 2
        with pytest.raises(InvalidLabel):
            class_index(2)

    def test_batch_mean_two_paths(self):
        rng = np.random.default_rng(19)
        model = tiny_model(seed=3)
        batch = make_batch(rng, model, 6, 3)
        mean_loss, _ = forward_batch(model, batch)
        independent = np.mean(
            [
                cross_entropy_loss(forward_sequence(model, xs)[0], label)
                for xs, label in batch
            ]
        )
        assert mean_loss == pytest.approx(float(independent), rel=1e-14)


def mid_size_step(n_windows=16, n_steps=6):
    """Hidden 4^4, 64 inputs: a (256, 256) feedback matrix, and stride-1 windows over shared days.

    The dense map's gradient (256 x 64) and its core projection's
    temporaries together stay under one feedback-sized array, so a memory
    bound of one such array leaves no room for a second.
    """
    rng = np.random.default_rng(3)
    model = init_model((2, 2, 4, 4), (4, 4, 4, 4), (1, 4, 4, 4, 1), rng)
    return model, stride_windows(rng, model, n_windows, n_steps)


def stride_windows(rng, model, n_windows, n_steps):
    """``n_windows`` random labelled windows of ``n_steps`` days, at stride 1 over shared days."""
    days = [rand_input(rng, model.in_dims) for _ in range(n_steps + n_windows - 1)]
    labels = rng.choice([1, 0, -1], size=n_windows)
    return [(days[s : s + n_steps], int(labels[s])) for s in range(n_windows)]


@pytest.fixture(scope="module")
def full_size_model():
    """The paper's default size, built once: inputs TENSOR_DIMS_5, hidden 4^5, ranks 6."""
    return init_model(TENSOR_DIMS_5, (4,) * 5, (1, 6, 6, 6, 6, 1), np.random.default_rng(27))


def step_buffer_bytes(model, batch):
    """The bytes of one ``(B, M)`` step array."""
    return len(batch) * model.hidden_size * 8


def backward_bound(model, batch):
    """The most bytes :func:`backward` may allocate at once for ``batch``.

    The pre-activation gradients plus one feedback-sized array; the slack,
    three ``(B, M)`` step arrays, holds the last step's ``dh`` and the small
    gradients.  The core stage fits in the feedback-sized array: the dense
    map's gradient is freed once refolded, so that stage holds the gradient
    beside its refold, or the refold beside the projection's temporaries,
    never all three (at full size all three exceed the feedback array).
    """
    m, n_in = model.hidden_size, model.input_layer.weights.n_in
    # the refold and the projection's temporaries, without the gradient passed in
    _, core_temps = traced_peak(mpo_core_grads, model.input_layer.weights, np.zeros((m, n_in)))
    d_pre = len(batch[0][0]) * step_buffer_bytes(model, batch)
    d_input_map = 8 * m * n_in
    feedback = 8 * m * m
    assert max(2 * d_input_map, core_temps) < feedback  # so the bound has no room for a second one
    return d_pre + feedback + 3 * step_buffer_bytes(model, batch)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        model = tiny_model(seed=5)
        batch = make_batch(rng, model, 2, 3, labels=[1, -1])
        _, cache = forward_batch(model, batch)
        grads = backward(model, batch, cache)
        worst = finite_difference_check(model, batch, grads, step=1e-5, rel_tol=1e-4)
        assert worst < 1e-4

    def test_gradients_single_mode_model(self):
        # one-core chain: the reverse sweep degenerates to an outer product
        rng = np.random.default_rng(61)
        model = init_model((4,), (3,), (1, 1), np.random.default_rng(62))
        batch = [
            ([DenseTensor.from_ndarray(rng.normal(size=(4,))) for _ in range(2)], 1),
            ([DenseTensor.from_ndarray(rng.normal(size=(4,))) for _ in range(2)], 0),
        ]
        _, cache = forward_batch(model, batch)
        grads = backward(model, batch, cache)
        worst = finite_difference_check(model, batch, grads, step=1e-5, rel_tol=1e-4)
        assert worst < 1e-4

    def test_zero_loss_head_gradient_vanishes(self):
        model = tiny_model(seed=6)
        # freeze the head so the true class gets probability ~1
        confident = rebuild_model(
            model,
            [c.copy() for c in model.cores]
            + [
                model.feedback.copy(),
                model.input_layer.bias.data.copy(),
                np.zeros((3, 8)),
                np.array([50.0, 0.0, 0.0]),
            ],
        )
        rng = np.random.default_rng(29)
        batch = make_batch(rng, confident, 3, 2, labels=[1, 1, 1])
        _, cache = forward_batch(confident, batch)
        grads = backward(confident, batch, cache)
        assert np.max(np.abs(grads["head_bias"])) < 1e-8
        assert np.max(np.abs(grads["head_weights"])) < 1e-8

    def test_duplicated_sample_under_mean_reduction(self):
        rng = np.random.default_rng(31)
        model = tiny_model(seed=9)
        xs = [rand_input(rng) for _ in range(3)]
        single = [(xs, 1)]
        double = [(xs, 1), (xs, 1)]
        _, c1 = forward_batch(model, single)
        _, c2 = forward_batch(model, double)
        g1 = backward(model, single, c1)
        g2 = backward(model, double, c2)
        # the duplicate contributes twice before the 1/batch mean: sums double,
        # means coincide
        for name in [f"core{k}" for k in range(len(model.cores))] + ["feedback"]:
            assert np.allclose(g1[name], g2[name], rtol=0, atol=1e-15)

    def test_cache_mismatch(self):
        rng = np.random.default_rng(37)
        model = tiny_model()
        batch = make_batch(rng, model, 2, 3)
        _, cache = forward_batch(model, batch[:1])
        with pytest.raises(CacheMismatch):
            backward(model, batch, cache)
        # a model of another hidden size, and probabilities two columns wide
        other = init_model(model.in_dims, (2, 2, 3), (1, 2, 2, 1), np.random.default_rng(38))
        hidden, probs = forward_batch(model, batch)[1]
        for cache in (forward_batch(other, batch)[1], (hidden, probs[:, :2])):
            with pytest.raises(CacheMismatch, match="expected"):
                backward(model, batch, cache)

    def test_holds_one_feedback_sized_array(self):
        model, batch = mid_size_step()
        _, cache = forward_batch(model, batch)
        _, peak = traced_peak(backward, model, batch, cache)
        bound = backward_bound(model, batch)
        assert peak < bound, (peak - bound) / model.feedback.nbytes

    def test_holds_one_feedback_sized_array_at_full_size(self, full_size_model):
        # the dense map's gradient (1024 x 480), its refold and the projection's
        # temporaries together exceed the 8 MiB feedback gradient
        model = full_size_model
        batch = stride_windows(np.random.default_rng(39), model, n_windows=8, n_steps=3)
        _, cache = forward_batch(model, batch)
        _, peak = traced_peak(backward, model, batch, cache)
        bound = backward_bound(model, batch)
        assert peak < bound, (peak - bound) / model.feedback.nbytes


def draw_model(draw):
    """A random model of 1-4 modes, and the generator that drew its parameters."""
    n = draw(st.integers(1, 4))
    in_dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    hidden = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    inner = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_model(in_dims, hidden, (1, *inner, 1), rng)
    # random bias and head bias, so no gradient block is trivially zero
    model = rebuild_model(
        model,
        [c for _, c in model.named_params()[:-3]]
        + [rng.normal(size=model.hidden_size), model.head_weights, rng.normal(size=3)],
    )
    return model, rng


@st.composite
def model_and_batch(draw):
    """A random model with a batch of 1-5 windows of 1-4 steps."""
    model, rng = draw_model(draw)
    return model, make_batch(rng, model, draw(st.integers(1, 5)), draw(st.integers(1, 4)))


@st.composite
def model_and_sliding_windows(draw):
    """1-5 stride-1 windows of 1-4 steps over one random day sequence.

    The windows either share the day tensors, as ``FeaturePanel.samples``
    builds them, or each hold copies of them.
    """
    model, rng = draw_model(draw)
    n, seq_len = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    days = [rand_input(rng, model.in_dims) for _ in range(n + seq_len - 1)]
    copies = draw(st.booleans())
    dataset = []
    for start in range(n):
        xs = days[start : start + seq_len]
        if copies:
            xs = [DenseTensor(x.shape, x.data.copy()) for x in xs]
        dataset.append((xs, int(rng.choice([1, 0, -1]))))
    return model, dataset


def one_core_case():
    rng = np.random.default_rng(61)
    model = init_model((4,), (3,), (1, 1), np.random.default_rng(62))
    return model, make_batch(rng, model, 2, 2, labels=[1, 0])


@st.composite
def model_inputs_and_output_grads(draw):
    """A random model with 1-5 inputs and an output gradient for each."""
    model, rng = draw_model(draw)
    n = draw(st.integers(1, 5))
    xs = [rand_input(rng, model.in_dims) for _ in range(n)]
    return model, xs, rng.normal(size=(n, model.hidden_size))


def rank_one_case():
    rng = np.random.default_rng(89)
    model = init_model((3, 2, 2), (2, 3, 2), (1, 1, 1, 1), rng)
    xs = [rand_input(rng, model.in_dims) for _ in range(3)]
    return model, xs, rng.normal(size=(3, model.hidden_size))


def one_core_dense_case():
    rng = np.random.default_rng(97)
    model = init_model((4,), (3,), (1, 1), rng)
    xs = [rand_input(rng, model.in_dims) for _ in range(2)]
    return model, xs, rng.normal(size=(2, model.hidden_size))


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) or 1.0
    assert np.max(np.abs(got - want)) <= rel * scale


class TestDenseApply:
    """The cached dense map and the core-gradient projection against the chain."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(model_inputs_and_output_grads())
    @example(rank_one_case())
    @example(one_core_dense_case())
    def test_matches_chain_oracle(self, case):
        model, xs, dy = case
        layer, cores = model.input_layer, model.cores
        got = _project(layer, xs)
        dw = np.zeros_like(layer.matrix)
        want_grads = [np.zeros_like(c) for c in cores]
        for n, x in enumerate(xs):
            y_nd, steps = _tt_apply_one(cores, x.to_ndarray())
            assert_close(got[n], y_nd.ravel(order="F") + layer.bias.data)
            dy_nd = dy[n].reshape(model.hidden_dims, order="F")
            for acc, g in zip(want_grads, _tt_core_grads_one(cores, steps, dy_nd)):
                acc += g
            dw += np.outer(dy[n], x.data)
        for g, w in zip(mpo_core_grads(layer.weights, dw), want_grads):
            assert_close(g, w)

    def test_matrix_built_once_per_model(self, monkeypatch):
        calls = []

        def counting(weights):
            calls.append(weights)
            return mpo_to_matrix(weights)

        monkeypatch.setattr(neural, "mpo_to_matrix", counting)
        rng = np.random.default_rng(101)
        model = tiny_model()
        batch = make_batch(rng, model, 3, 4)
        for _ in range(2):
            forward_sequence(model, batch[0][0])
            evaluate(model, batch)
        assert len(calls) == 1

        _, cache = forward_batch(model, batch)
        stepped = sgd_step(model, backward(model, batch, cache), 0.5)
        got = _project(stepped.input_layer, batch[0][0])
        assert len(calls) == 2 and calls[-1] is stepped.input_layer.weights
        for n, x in enumerate(batch[0][0]):
            y_nd, _ = _tt_apply_one(stepped.cores, x.to_ndarray())
            assert_close(got[n], y_nd.ravel(order="F") + stepped.input_layer.bias.data)
        assert not np.allclose(stepped.input_layer.matrix, model.input_layer.matrix)


def counting_matrix(layer):
    """Seed ``layer.matrix`` with a view that records the input rows of each product with it."""
    rows = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                rows.append(len(inputs[0]))
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    layer.__dict__["matrix"] = layer.matrix.view(Counting)
    return rows


class TestProjectionMemo:
    """Each distinct input is multiplied by a layer's dense map once."""

    def test_each_distinct_day_projected_once(self):
        rng = np.random.default_rng(103)
        model = tiny_model()
        days = [rand_input(rng) for _ in range(8)]
        dataset = [(days[start : start + 4], 1) for start in range(5)]
        rows = counting_matrix(model.input_layer)
        for xs, _ in dataset:
            forward_sequence(model, xs)
        evaluate(model, dataset)
        forward_batch(model, dataset)
        tt_linear_forward(model.input_layer, days[0])
        ttrnn_cell_forward(model, days[-1], np.zeros(model.hidden_size))
        assert sum(rows) == len(days)

    def test_entry_keeps_its_tensor_alive(self):
        rng = np.random.default_rng(107)
        layer = tiny_model().input_layer
        x = rand_input(rng)
        ref = weakref.ref(x)
        y = tt_linear_forward(layer, x)
        del x
        gc.collect()
        x = ref()
        assert x is not None
        held, row = layer.projected[id(x)]
        assert held is x and np.array_equal(row, y.data)

    def test_output_does_not_alias_the_memo(self):
        rng = np.random.default_rng(127)
        layer = tiny_model().input_layer
        x = rand_input(rng)
        y = tt_linear_forward(layer, x)
        want = y.data.copy()
        y.data[:] = 0.0
        assert np.array_equal(tt_linear_forward(layer, x).data, want)
        assert np.array_equal(layer.projected[id(x)][1], want)

    def test_adds_the_bias_in_place_at_full_size(self, full_size_model):
        # 200 new days: the stacked inputs (N, 480) and one (N, M) result, no second result
        model = full_size_model
        layer = TTLinearLayer(model.input_layer.weights, model.input_layer.bias)  # empty memo
        layer.matrix  # built before tracing
        rng = np.random.default_rng(131)
        days = [rand_input(rng, layer.in_dims) for _ in range(200)]
        _, peak = traced_peak(_project, layer, days)
        block = 200 * model.hidden_size * 8
        assert peak < 1.75 * block, peak / block

    def test_new_layers_start_empty(self, tmp_path):
        rng = np.random.default_rng(109)
        model = tiny_model()
        batch = make_batch(rng, model, 3, 2)
        _, cache = forward_batch(model, batch)
        assert len(model.input_layer.projected) == 6
        stepped = sgd_step(model, backward(model, batch, cache), 0.1)
        assert stepped.input_layer.projected == {}
        save_model(model, tmp_path / "model.txt")
        loaded, _ = load_model(tmp_path / "model.txt")
        assert loaded.input_layer.projected == {}

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(model_and_sliding_windows(), st.data())
    def test_any_order_matches_a_fresh_layer(self, case, data):
        model, dataset = case
        n = len(dataset)
        warm = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        if warm:
            evaluate(model, [dataset[i] for i in warm])
        for i in data.draw(st.permutations(range(n))):
            xs, _ = dataset[i]
            probs, hidden = forward_sequence(model, xs)
            want_probs, want_hidden = forward_sequence(with_fresh_layer(model), xs)
            assert_close(probs, want_probs)
            assert_close(hidden, want_hidden)


def assert_grads_close(got, want):
    assert list(got) == list(want)
    for name, w in want.items():
        g = got[name]
        assert g.shape == w.shape, name
        scale = np.max(np.abs(w)) or 1.0
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


class TestBatchedBackward:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(model_and_batch())
    @example(one_core_case())
    def test_matches_per_sample_oracle(self, case):
        model, batch = case
        _, cache = forward_batch(model, batch)
        assert_grads_close(backward(model, batch, cache), backward_per_sample(model, batch))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(model_and_sliding_windows())
    def test_batch_cache_matches_one_batched_forward(self, case):
        model, batch = case
        _, (hidden, probs) = forward_batch(model, batch)
        want_hidden, want_probs = _forward_windows(
            with_fresh_layer(model), [xs for xs, _ in batch]
        )
        assert_close(hidden, want_hidden)
        assert_close(probs, want_probs)

    def test_single_step_windows(self):
        rng = np.random.default_rng(113)
        model = tiny_model()
        batch = make_batch(rng, model, 3, 1)
        _, cache = forward_batch(model, batch)
        got = backward(model, batch, cache)
        assert np.array_equal(got["feedback"], np.zeros_like(model.feedback))
        assert_grads_close(got, backward_per_sample(model, batch))

    def test_empty_batch(self):
        model = tiny_model()
        cache = (np.zeros((2, 0, model.hidden_size)), np.zeros((0, 3)))
        with pytest.raises(EmptyDataset):
            forward_batch(model, [])
        with pytest.raises(EmptyDataset):
            backward(model, [], cache)

    def test_ragged_windows_rejected(self):
        rng = np.random.default_rng(67)
        model = tiny_model()
        batch = make_batch(rng, model, 1, 3) + make_batch(rng, model, 1, 2)
        with pytest.raises(ShapeMismatch):
            forward_batch(model, batch)
        _, cache = forward_batch(model, batch[:1])
        with pytest.raises(ShapeMismatch):
            backward(model, batch, cache)


class TestEvaluate:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(model_and_sliding_windows())
    def test_matches_per_window_oracle(self, case):
        model, dataset = case
        loss, probs, predicted = evaluate(model, dataset)
        want_loss, want_probs, want_predicted = evaluate_per_window(model, dataset)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert probs.shape == want_probs.shape
        assert np.all(np.abs(probs - want_probs) <= 1e-12 * want_probs)
        assert predicted == want_predicted

    def test_repeated_day_in_one_window(self):
        rng = np.random.default_rng(71)
        model = tiny_model()
        x, y = rand_input(rng), rand_input(rng)
        dataset = [([x, y, x], 1), ([y, x, x], -1)]
        _, probs, _ = evaluate(model, dataset)
        _, want_probs, _ = evaluate_per_window(model, dataset)
        assert np.all(np.abs(probs - want_probs) <= 1e-12 * want_probs)

    @pytest.mark.parametrize("n_windows", [1, 7])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10])
    def test_ring_matches_kept_states(self, n_steps, n_windows):
        rng = np.random.default_rng(89)
        model = tiny_model()
        days = [rand_input(rng) for _ in range(n_steps + n_windows)]
        windows = [days[start : start + n_steps] for start in range(n_windows)]
        hidden, probs = _forward_windows(model, windows)
        final, final_probs = _forward_windows(model, windows, keep_states=False)
        assert final.shape == (n_windows, model.hidden_size)
        assert final_probs.tobytes() == probs.tobytes()
        assert final.tobytes() == hidden[-1].tobytes()
        _, eval_probs, _ = evaluate(model, [(xs, 1) for xs in windows])
        assert eval_probs.tobytes() == probs.tobytes()

    def test_holds_two_hidden_states(self):
        # hidden 2^5, 200 sliding windows of 10 steps: a (B, M) buffer is 50 kB
        rng = np.random.default_rng(97)
        model = init_model((2,) * 5, (2,) * 5, (1, 2, 2, 2, 2, 1), rng)
        days = [rand_input(rng, model.in_dims) for _ in range(209)]
        dataset = [(days[start : start + 10], 1) for start in range(200)]
        evaluate(model, dataset)  # the dense map and the memo are built before tracing
        buffer = 200 * model.hidden_size * 8
        _, peak = traced_peak(evaluate, model, dataset)
        assert len(model.input_layer.projected) == len(days)
        # the two state buffers and the step lists; all 11 states need 11
        assert peak < 5 * buffer, peak / buffer

    def test_holds_two_state_buffers_at_full_size(self, full_size_model):
        # a (B, M) buffer is 512 kB; a third, a step's feedback product, would read about 3
        model = full_size_model
        dataset = stride_windows(np.random.default_rng(113), model, n_windows=64, n_steps=3)
        evaluate(model, dataset)  # the dense map and the memo are built before tracing
        _, peak = traced_peak(evaluate, model, dataset)
        buffer = step_buffer_bytes(model, dataset)
        assert peak < 2.5 * buffer, peak / buffer

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            evaluate(tiny_model(), [])

    def test_empty_window(self):
        rng = np.random.default_rng(73)
        model = tiny_model()
        with pytest.raises(EmptySequence):
            evaluate(model, make_batch(rng, model, 1, 2) + [([], 0)])

    def test_ragged_windows_rejected(self):
        rng = np.random.default_rng(79)
        model = tiny_model()
        with pytest.raises(ShapeMismatch):
            evaluate(model, make_batch(rng, model, 1, 3) + make_batch(rng, model, 1, 2))

    def test_wrong_input_shape(self):
        rng = np.random.default_rng(83)
        model = tiny_model()
        with pytest.raises(ShapeMismatch):
            evaluate(model, [([rand_input(rng), DenseTensor.zeros((2, 4))], 1)])


# a wrong gradient shape for each of tiny_model's parameters (ranks 1,2,2,1,
# M = 8) that numpy would broadcast into the parameter
WRONG_GRAD_SHAPES = {
    "core0": (1, 2, 2, 1),
    "core1": (1, 2, 2, 1),
    "core2": (1, 2, 2, 1),
    "feedback": (8,),
    "bias": (1,),
    "head_weights": (8,),
    "head_bias": (),
}


def zero_grads(model):
    return {name: np.zeros_like(p) for name, p in model.named_params()}


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


class TestSGD:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(41)
        model = tiny_model(seed=12)
        batch = make_batch(rng, model, 2, 2)
        _, cache = forward_batch(model, batch)
        grads = backward(model, batch, cache)
        same = sgd_step(model, grads, 0.0)
        for (_, a), (_, b) in zip(model.named_params(), same.named_params()):
            assert np.array_equal(a, b)

    def test_update_rule_single_entry(self):
        model = tiny_model(seed=13)
        grads = zero_grads(model)
        grads["head_bias"][1] = 2.5
        stepped = sgd_step(model, grads, 0.1)
        assert stepped.head_bias[1] == pytest.approx(model.head_bias[1] - 0.25, abs=0)
        assert np.array_equal(stepped.head_bias[[0, 2]], model.head_bias[[0, 2]])

    def test_one_step_decreases_loss(self):
        rng = np.random.default_rng(43)
        model = tiny_model(seed=14)
        batch = make_batch(rng, model, 1, 2, labels=[1])
        before, cache = forward_batch(model, batch)
        grads = backward(model, batch, cache)
        stepped = sgd_step(model, grads, 0.05)
        after = batch_loss(stepped, batch)
        assert after < before

    def test_shape_mismatch(self):
        model = tiny_model()
        grads = zero_grads(model)
        grads["feedback"] = np.zeros((3, 3))
        with pytest.raises(ShapeMismatch):
            sgd_step(model, grads, 0.1)

    @pytest.mark.parametrize("name", WRONG_GRAD_SHAPES)
    def test_broadcastable_wrong_shape(self, name):
        model = tiny_model()
        grads = zero_grads(model)
        assert list(grads) == list(WRONG_GRAD_SHAPES)  # every parameter has a case
        grads[name] = np.ones(WRONG_GRAD_SHAPES[name])
        param = dict(model.named_params())[name]
        assert np.broadcast_shapes(grads[name].shape, param.shape) == param.shape
        with pytest.raises(ShapeMismatch, match=f"^{name}: gradient shape"):
            sgd_step(model, grads, 0.1)

    @pytest.mark.parametrize("name", WRONG_GRAD_SHAPES)
    def test_missing_gradient(self, name):
        model = tiny_model()
        grads = zero_grads(model)
        del grads[name]
        with pytest.raises(ShapeMismatch, match=f"differ at {name}$"):
            sgd_step(model, grads, 0.1)

    def test_extra_gradient(self):
        model = tiny_model()
        grads = zero_grads(model)
        grads["core3"] = np.zeros((2, 2, 2, 1))
        with pytest.raises(ShapeMismatch, match="differ at core3$"):
            sgd_step(model, grads, 0.1)

    def test_steps_in_the_gradient_arrays(self):
        model, batch = mid_size_step()
        grads = backward(model, batch, forward_batch(model, batch)[1])
        before = [p.tobytes() for _, p in model.named_params()]
        copies = {name: g.copy() for name, g in grads.items()}
        stepped, peak = traced_peak(sgd_step, model, grads, 0.01)
        assert peak < 2**14, peak
        assert [p.tobytes() for _, p in model.named_params()] == before
        params = dict(model.named_params())
        for name, p in stepped.named_params():
            assert np.shares_memory(p, grads[name]), name
            assert p.tobytes() == (params[name] - 0.01 * copies[name]).tobytes(), name

    @pytest.mark.parametrize(
        "name, give",
        [
            ("feedback", lambda model, grads: model.feedback),
            ("feedback", lambda model, grads: model.feedback[::-1]),
            ("core1", lambda model, grads: grads["core0"]),
            ("head_bias", lambda model, grads: np.arange(3)),
            ("bias", lambda model, grads: read_only(grads["bias"])),
        ],
        ids=["own-parameter", "view-of-a-parameter", "one-array-two-names", "int64", "read-only"],
    )
    def test_rejects_gradients_it_cannot_own(self, name, give):
        model = tiny_model(ranks=(1, 1, 1, 1))  # its three cores share one shape
        rng = np.random.default_rng(44)
        grads = {n: rng.normal(size=p.shape) for n, p in model.named_params()}
        grads[name] = give(model, grads)
        before = [p.tobytes() for _, p in model.named_params()]
        grads_before = {n: g.tobytes() for n, g in grads.items()}
        with pytest.raises(ShapeMismatch, match=f"^{name}: gradient "):
            sgd_step(model, grads, 0.1)
        assert [p.tobytes() for _, p in model.named_params()] == before
        assert {n: g.tobytes() for n, g in grads.items()} == grads_before


class TestFromParams:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(model_and_batch())
    def test_inverts_named_params(self, case):
        model, batch = case
        forward_batch(model, batch)  # fill the memo
        assert model.input_layer.projected
        back = TTRNNModel.from_params(dict(model.named_params()))
        for (na, a), (nb, b) in zip(model.named_params(), back.named_params(), strict=True):
            assert na == nb and a.shape == b.shape and b.dtype == np.float64
            assert a.tobytes() == b.tobytes(), na
        assert back.input_layer is not model.input_layer
        assert back.input_layer.projected == {}


def separable_dataset(rng, model, n, seq_len):
    """Label is the sign of the first entry of the final input tensor."""
    dataset = []
    for _ in range(n):
        xs = [rand_input(rng, model.in_dims) for _ in range(seq_len)]
        label = 1 if xs[-1].data[0] > 0 else -1
        dataset.append((xs, label))
    return dataset


class TestTrain:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(47)
        model = tiny_model(seed=15)
        dataset = make_batch(rng, model, 10, 2)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=4, seq_len=2,
                          ranks=(1, 2, 2, 1), seed=123)
        m1, _ = train(model, dataset, cfg)
        m2, _ = train(model, dataset, cfg)
        for (_, a), (_, b) in zip(m1.named_params(), m2.named_params()):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_separable_labels(self):
        rng = np.random.default_rng(53)
        model = tiny_model(seed=16)
        dataset = separable_dataset(rng, model, 40, 3)
        cfg = TrainConfig(learning_rate=0.05, epochs=6, batch_size=8, seq_len=3,
                          ranks=(1, 2, 2, 1), seed=7)
        _, log = train(model, dataset, cfg)
        for a, b in zip(log.epoch_losses, log.epoch_losses[1:6]):
            assert b < a

    def test_core_change_bookkeeping(self):
        rng = np.random.default_rng(59)
        model = tiny_model(seed=17)
        dataset = make_batch(rng, model, 6, 2)
        cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=3, seq_len=2,
                          ranks=(1, 2, 2, 1), seed=1)
        _, log = train(model, dataset, cfg)
        assert log.core_change.values.shape == (3, 3)  # cores x (epochs - 1)
        assert log.core_change.epochs == [2, 3, 4]

    def test_second_step_holds_nothing_from_the_first(self):
        model, batch = mid_size_step()
        peaks = []
        for epochs in (1, 2):  # one full batch per epoch: one SGD step, then two
            cfg = TrainConfig(learning_rate=0.01, epochs=epochs, batch_size=len(batch), seed=1)
            peaks.append(traced_peak(train, model, batch, cfg)[1])
        # step 2 runs on step 1's model, whose parameters are step 1's gradient arrays: it
        # adds those parameters and no other step 1 array
        params = sum(p.nbytes for _, p in model.named_params())
        margin = peaks[1] - peaks[0] - params
        assert margin < 2 * step_buffer_bytes(model, batch), margin / params

    def test_two_steps_hold_one_parameter_set_beside_a_step(self):
        model, batch = mid_size_step()
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=len(batch), seed=1)
        _, peak = traced_peak(train, model, batch, cfg)
        # step 1's parameters, step 2's batch cache and its backward; no dense map or
        # projected days outlive the forward, and sgd_step allocates no parameter set
        params = sum(p.nbytes for _, p in model.named_params())
        _, (hidden, probs) = forward_batch(model, batch)
        bound = params + hidden.nbytes + probs.nbytes + backward_bound(model, batch)
        assert peak < bound, (peak - bound) / params

    def test_train_leaves_the_callers_layer_empty(self):
        model, batch = mid_size_step()
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=len(batch), seed=1)
        train(model, batch, cfg)
        assert model.input_layer.projected == {}
        assert "matrix" not in vars(model.input_layer)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train(tiny_model(), [], TrainConfig(ranks=(1, 2, 2, 1)))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(ranks=(2, 2)).validate()
        for lr in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                TrainConfig(learning_rate=lr).validate()


class TestInitModel:
    def test_seed_determinism(self):
        a = init_model((2, 2, 2), (2, 2, 2), (1, 2, 2, 1), stream_rng(5, "init"))
        b = init_model((2, 2, 2), (2, 2, 2), (1, 2, 2, 1), stream_rng(5, "init"))
        for (_, x), (_, y) in zip(a.named_params(), b.named_params()):
            assert np.array_equal(x, y)

    def test_invariants(self):
        model = tiny_model()
        assert model.input_layer.weights.in_dims == (2, 2, 2)
        assert model.input_layer.weights.out_dims == (2, 2, 2)
        assert model.input_layer.weights.ranks == (1, 2, 2, 1)
        assert model.input_layer.bias.shape == (2, 2, 2)
        assert model.feedback.shape == (8, 8)
        assert model.head_weights.shape == (3, 8)
        assert np.array_equal(model.input_layer.bias.data, np.zeros(8))

    def test_preactivation_scale_band(self):
        # unit-norm input through fresh cores: pooled std should be O(1)
        values = []
        for seed in range(100):
            model = tiny_model(seed=seed)
            rng = np.random.default_rng(10_000 + seed)
            x = rng.normal(size=8)
            x /= np.linalg.norm(x)
            y = tt_linear_forward(
                model.input_layer, DenseTensor((2, 2, 2), x)
            )
            values.extend(y.data.tolist())
        pooled_std = float(np.std(values))
        assert 0.1 <= pooled_std <= 10.0

    def test_param_count_matches_formula(self, full_size_model):
        assert full_size_model.input_layer.weights.n_params == tt_param_count(
            (2, 2, 5, 6, 4), (4, 4, 4, 4, 4), (1, 6, 6, 6, 6, 1)
        ) == 2016

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            init_model((2, 2), (2, 2, 2), (1, 2, 2, 1), np.random.default_rng(0))
        with pytest.raises(ConfigError):
            init_model((2, 2), (2, 2), (1, 2), np.random.default_rng(0))


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        model = tiny_model(seed=20)
        path = tmp_path / "model.txt"
        save_model(model, path, seed=42, epoch=3)
        back, meta = load_model(path)
        assert meta == {"seed": 42, "epoch": 3}
        for (na, a), (nb, b) in zip(model.named_params(), back.named_params()):
            assert na == nb
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda lines: [lines[0], lines[2], lines[1]] + lines[3:],
            lambda lines: lines[:3] + [lines[3].replace(b"hidden_dims", b"any_word")] + lines[4:],
            lambda lines: [lines[0], b"seed 5 6"] + lines[2:],
        ],
        ids=["seed-and-epoch-swapped", "other-dims-key", "extra-value"],
    )
    def test_header_keys_are_checked(self, tmp_path, damage):
        path = tmp_path / "model.txt"
        save_model(tiny_model(seed=25), path, seed=5, epoch=3)
        head = path.read_bytes().split(b"\n", 4)  # the 4 header lines, then the rest
        path.write_bytes(b"\n".join(damage(head[:4]) + head[4:]))
        message = f"{path}: malformed checkpoint header"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_v3_layout(self, tmp_path):
        model = tiny_model(seed=21)
        path = tmp_path / "model.txt"
        save_model(model, path, seed=5, epoch=7)
        lines = path.read_bytes().split(b"\n", 8)
        assert lines[:5] == [b"ttrnn-model v3", b"seed 5", b"epoch 7", b"hidden_dims 2,2,2",
                             b"ttmat in=2,2,2 out=2,2,2 ranks=1,2,2,1"]
        for line, core in zip(lines[5:8], model.cores):
            assert [float(x) for x in line.split()] == core.ravel(order="F").tolist()
        dense = [
            ("bias", model.input_layer.bias.data),
            ("feedback", model.feedback),
            ("head_weights", model.head_weights),
            ("head_bias", model.head_bias),
        ]
        entries = b""
        for name, values in dense:
            raw = np.asarray(values, dtype="<f8").tobytes(order="F")
            entries += f"{name} {len(raw)}\n".encode("ascii") + raw + b"\n"
        assert lines[8] == entries

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    @example(None)
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, data):
        model = tiny_model(seed=22)
        arrays = []
        for _, a in model.named_params():
            if data is None:  # every edge value in every parameter
                flat = [FLOAT_EDGES[k % len(FLOAT_EDGES)] for k in range(a.size)]
            else:
                values = st.floats(allow_nan=False, allow_infinity=False)
                flat = data.draw(
                    st.lists(values | st.sampled_from(FLOAT_EDGES), min_size=a.size, max_size=a.size)
                )
            arrays.append(np.array(flat, dtype=np.float64).reshape(a.shape))
        model = rebuild_model(model, arrays)
        path = tmp_path_factory.mktemp("ckpt") / "model.txt"
        save_model(model, path)
        back, _ = load_model(path)
        for (na, a), (nb, b) in zip(model.named_params(), back.named_params(), strict=True):
            assert na == nb and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), na
            assert b.dtype == np.float64 and b.flags.writeable

    def test_load_reads_dense_bytes_into_their_arrays(self, tmp_path):
        # hidden 256: the dense parameters are 0.5 MB, the rest a few kB
        model = init_model((2,) * 5, (4, 4, 4, 2, 2), (1, 2, 2, 2, 2, 1), np.random.default_rng(24))
        path = tmp_path / "model.txt"
        save_model(model, path)
        dense = sum(values.nbytes for name, values in model.named_params() if "core" not in name)
        _, peak = traced_peak(load_model, path)
        # the arrays alone; one more copy of the feedback matrix's bytes would be 1.9x
        assert peak < 1.05 * dense, peak / dense

    def test_v3_layout_at_full_size(self, tmp_path, full_size_model):
        # the paper's full size: the 1024 x 1024 feedback matrix is 8 MiB
        model = full_size_model
        path = tmp_path / "model.txt"
        save_model(model, path)
        params = dict(model.named_params())
        entries = b""
        for name in neural.dense_shapes(model.hidden_size):
            # fastest-first bytes are the C-order bytes of the transpose
            raw = np.ascontiguousarray(params[name].T, dtype="<f8").tobytes()
            entries += f"{name} {len(raw)}\n".encode("ascii") + raw + b"\n"
        assert path.read_bytes().endswith(entries)

    def test_resave_of_a_loaded_checkpoint_is_byte_identical(self, tmp_path, full_size_model):
        # load_model returns F-ordered dense arrays, train C-ordered ones; both save alike
        model = full_size_model
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_model(model, first, seed=3, epoch=7)
        loaded, meta = load_model(first)
        assert loaded.feedback.flags.f_contiguous and not loaded.feedback.flags.c_contiguous
        save_model(loaded, second, **meta)
        assert second.read_bytes() == first.read_bytes()


# 0, -0, the smallest subnormal, a subnormal, the smallest normal and the largest finite values
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, -1.7976931348623155e308]
