import base64
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from ttrnn.errors import ConfigError
from ttrnn.neural import (
    CacheMismatch,
    EmptyDataset,
    EmptySequence,
    Gradients,
    InvalidLabel,
    ShapeMismatch,
    TrainConfig,
    TTLinearLayer,
    TTRNNModel,
    _core_grads,
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
from ttrnn.ttformat import TTMatrix, mpo_to_matrix, tt_param_count


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
        _, cache = forward_sequence(model, [rand_input(rng) for _ in range(6)])
        for h in cache.hidden[1:]:
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


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        model = tiny_model(seed=5)
        batch = make_batch(rng, model, 2, 3, labels=[1, -1])
        _, caches = forward_batch(model, batch)
        grads = backward(model, batch, caches)
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
        _, caches = forward_batch(model, batch)
        grads = backward(model, batch, caches)
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
        _, caches = forward_batch(confident, batch)
        grads = backward(confident, batch, caches)
        assert np.max(np.abs(grads.head_bias)) < 1e-8
        assert np.max(np.abs(grads.head_weights)) < 1e-8

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
        for a, b in zip(g1.cores, g2.cores):
            assert np.allclose(a, b, rtol=0, atol=1e-15)
        assert np.allclose(g1.feedback, g2.feedback, rtol=0, atol=1e-15)

    def test_cache_mismatch(self):
        rng = np.random.default_rng(37)
        model = tiny_model()
        batch = make_batch(rng, model, 2, 3)
        _, caches = forward_batch(model, batch)
        with pytest.raises(CacheMismatch):
            backward(model, batch, caches[:1])


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
        for g, w in zip(_core_grads(cores, dw), want_grads):
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

        _, caches = forward_batch(model, batch)
        stepped = sgd_step(model, backward(model, batch, caches), 0.5)
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

    def test_new_layers_start_empty(self, tmp_path):
        rng = np.random.default_rng(109)
        model = tiny_model()
        batch = make_batch(rng, model, 3, 2)
        _, caches = forward_batch(model, batch)
        assert len(model.input_layer.projected) == 6
        stepped = sgd_step(model, backward(model, batch, caches), 0.1)
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
            probs, cache = forward_sequence(model, xs)
            want_probs, want_cache = forward_sequence(with_fresh_layer(model), xs)
            assert_close(probs, want_probs)
            assert_close(cache.hidden, want_cache.hidden)
            assert np.array_equal(cache.x, want_cache.x)


def assert_grads_close(got, want):
    blocks = [
        (f"core{k}", g, w) for k, (g, w) in enumerate(zip(got.cores, want.cores))
    ] + [
        (name, getattr(got, name), getattr(want, name))
        for name in ("feedback", "bias", "head_weights", "head_bias")
    ]
    for name, g, w in blocks:
        assert g.shape == w.shape, name
        scale = np.max(np.abs(w)) or 1.0
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


class TestBatchedBackward:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(model_and_batch())
    @example(one_core_case())
    def test_matches_per_sample_oracle(self, case):
        model, batch = case
        _, caches = forward_batch(model, batch)
        assert_grads_close(backward(model, batch, caches), backward_per_sample(model, batch))

    def test_single_step_windows(self):
        rng = np.random.default_rng(113)
        model = tiny_model()
        batch = make_batch(rng, model, 3, 1)
        _, caches = forward_batch(model, batch)
        got = backward(model, batch, caches)
        assert np.array_equal(got.feedback, np.zeros_like(model.feedback))
        assert_grads_close(got, backward_per_sample(model, batch))

    def test_ragged_windows_rejected(self):
        rng = np.random.default_rng(67)
        model = tiny_model()
        batch = make_batch(rng, model, 1, 3) + make_batch(rng, model, 1, 2)
        _, caches = forward_batch(model, batch)
        with pytest.raises(ShapeMismatch):
            backward(model, batch, caches)


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


class TestSGD:
    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(41)
        model = tiny_model(seed=12)
        batch = make_batch(rng, model, 2, 2)
        _, caches = forward_batch(model, batch)
        grads = backward(model, batch, caches)
        same = sgd_step(model, grads, 0.0)
        for (_, a), (_, b) in zip(model.named_params(), same.named_params()):
            assert np.array_equal(a, b)

    def test_update_rule_single_entry(self):
        model = tiny_model(seed=13)
        grads = Gradients(
            cores=[np.zeros_like(c) for c in model.cores],
            feedback=np.zeros_like(model.feedback),
            bias=np.zeros(model.hidden_dims),
            head_weights=np.zeros_like(model.head_weights),
            head_bias=np.zeros(3),
        )
        grads.head_bias[1] = 2.5
        stepped = sgd_step(model, grads, 0.1)
        assert stepped.head_bias[1] == pytest.approx(model.head_bias[1] - 0.25, abs=0)
        assert np.array_equal(stepped.head_bias[[0, 2]], model.head_bias[[0, 2]])

    def test_one_step_decreases_loss(self):
        rng = np.random.default_rng(43)
        model = tiny_model(seed=14)
        batch = make_batch(rng, model, 1, 2, labels=[1])
        before, caches = forward_batch(model, batch)
        grads = backward(model, batch, caches)
        stepped = sgd_step(model, grads, 0.05)
        after = batch_loss(stepped, batch)
        assert after < before

    def test_shape_mismatch(self):
        model = tiny_model()
        grads = Gradients(
            cores=[np.zeros_like(c) for c in model.cores],
            feedback=np.zeros((3, 3)),
            bias=np.zeros(model.hidden_dims),
            head_weights=np.zeros_like(model.head_weights),
            head_bias=np.zeros(3),
        )
        with pytest.raises(ShapeMismatch):
            sgd_step(model, grads, 0.1)


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
        assert len(log.core_snapshots) == 4
        assert log.core_change.values.shape == (3, 3)  # cores x (epochs - 1)
        assert log.core_change.epochs == [2, 3, 4]

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

    def test_param_count_matches_formula(self):
        model = init_model((2, 2, 5, 6, 4), (4, 4, 4, 4, 4), (1, 6, 6, 6, 6, 1),
                           np.random.default_rng(0))
        assert model.input_layer.weights.n_params == tt_param_count(
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

    def test_v2_layout(self, tmp_path):
        model = tiny_model(seed=21)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "ttrnn-model v2"
        assert lines[4] == "ttmat in=2,2,2 out=2,2,2 ranks=1,2,2,1"
        for line, core in zip(lines[5:8], model.cores):
            assert [float(x) for x in line.split()] == core.ravel(order="F").tolist()
        dense = [
            ("bias", model.input_layer.bias.data),
            ("feedback", model.feedback),
            ("head_weights", model.head_weights),
            ("head_bias", model.head_bias),
        ]
        for line, (name, values) in zip(lines[8:], dense, strict=True):
            raw = np.asarray(values, dtype="<f8").tobytes(order="F")
            assert line == f"{name} {base64.b64encode(raw).decode('ascii')}"

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

    def test_reads_v1(self, tmp_path):
        model = tiny_model(seed=23)
        path = tmp_path / "model.txt"
        save_model_v1(model, path, seed=5, epoch=7)
        back, meta = load_model(path)
        assert meta == {"seed": 5, "epoch": 7}
        for (na, a), (nb, b) in zip(model.named_params(), back.named_params(), strict=True):
            assert na == nb
            assert np.array_equal(a, b)


# 0, -0, the smallest subnormal, a subnormal, the smallest normal and the largest finite values
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, -1.7976931348623155e308]


def save_model_v1(model, path, seed=0, epoch=0):
    """Write ``model`` in the v1 checkpoint layout: every value in decimal."""

    def decimal(values):
        return " ".join(map(repr, np.ravel(values, order="F").tolist()))

    w = model.input_layer.weights
    lines = [
        "ttrnn-model v1",
        f"seed {seed}",
        f"epoch {epoch}",
        "hidden_dims " + ",".join(map(str, model.hidden_dims)),
        "ttmat in={} out={} ranks={}".format(
            *(",".join(map(str, d)) for d in (w.in_dims, w.out_dims, w.ranks))
        ),
    ]
    lines += [decimal(core) for core in w.cores]
    lines += [
        "bias " + decimal(model.input_layer.bias.data),
        "feedback " + decimal(model.feedback),
        "head_weights " + decimal(model.head_weights),
        "head_bias " + decimal(model.head_bias),
    ]
    path.write_text("\n".join(lines) + "\n")
