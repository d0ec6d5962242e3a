import itertools
import math
import re

import numpy as np
import pytest

from oracles import contract_bruteforce, le_offset_1based
from ttrnn.errors import ShapeError
from ttrnn.tensor import (
    DenseTensor,
    ElementCountMismatch,
    ModeIndexOutOfRange,
    ModeSizeMismatch,
    contract,
    frobenius_norm_sq,
    linear_offset,
    reshape,
)


def rand_tensor(rng, shape):
    return DenseTensor.from_ndarray(rng.normal(size=shape))


class TestReshape:
    def test_round_trip_identity(self):
        v = DenseTensor((20,), np.arange(20.0))
        back = reshape(reshape(v, (2, 2, 5)), (20,))
        assert back.shape == (20,)
        assert back.data is v.data  # buffer shared, bit-exact

    def test_offset_map_matches_formula_and_is_bijective(self):
        # (20, 6, 4) -> (2, 2, 5, 6, 4): 1-based (i, j, k) lands on
        # (a, b, c, j, k) with i-1 = (a-1) + 2(b-1) + 4(c-1)
        t = DenseTensor((20, 6, 4), np.arange(480.0))
        r = reshape(t, (2, 2, 5, 6, 4))
        seen = set()
        for i, j, k in itertools.product(range(1, 21), range(1, 7), range(1, 5)):
            off = le_offset_1based((20, 6, 4), (i, j, k))
            seen.add(off)
            a = (i - 1) % 2 + 1
            b = ((i - 1) // 2) % 2 + 1
            c = (i - 1) // 4 + 1
            off5 = le_offset_1based((2, 2, 5, 6, 4), (a, b, c, j, k))
            assert off == off5
            assert t.data[off] == r.data[off5]
        assert seen == set(range(480))

    def test_element_count_mismatch(self):
        with pytest.raises(ElementCountMismatch):
            reshape(DenseTensor((4,), np.zeros(4)), (2, 3))

    @pytest.mark.parametrize(
        "shape,alt",
        [((6,), (2, 3)), ((2, 3, 4), (4, 3, 2)), ((5, 4), (2, 10)), ((8,), (2, 2, 2))],
    )
    def test_inverse_reshape_is_exact(self, shape, alt):
        rng = np.random.default_rng(3)
        t = rand_tensor(rng, shape)
        back = reshape(reshape(t, alt), shape)
        assert np.array_equal(back.data, t.data)

    def test_offset_bijectivity_over_small_shapes(self):
        shapes = [(7,), (3, 5), (2, 3, 4), (4, 4, 4, 4), (2, 2, 5, 6, 4), (10, 10, 10)]
        for shape in shapes:
            count = math.prod(shape)
            assert count <= 10**4
            offsets = {
                linear_offset(shape, idx)
                for idx in itertools.product(*map(range, shape))
            }
            assert offsets == set(range(count))


class TestContract:
    def test_matvec_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, (2, 3))
        v = rand_tensor(rng, (3,))
        got = contract(a, 2, v, 1)
        expected = contract_bruteforce(a, 2, v, 1)
        assert got.shape == (2,)
        assert np.allclose(got.to_ndarray(), expected, rtol=1e-12, atol=1e-14)
        # and it really is the standard matrix-vector product
        assert np.allclose(got.to_ndarray(), a.to_ndarray() @ v.to_ndarray())

    def test_identity_contract(self):
        v = DenseTensor((3,), np.array([1.0, -2.0, 0.5]))
        eye = DenseTensor.from_ndarray(np.eye(3))
        got = contract(eye, 2, v, 1)
        assert np.allclose(got.data, v.data, rtol=0, atol=0)

    def test_order3_times_matrix(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, (2, 3, 4))
        b = rand_tensor(rng, (4, 5))
        got = contract(a, 3, b, 1)
        assert got.shape == (2, 3, 5)
        expected = contract_bruteforce(a, 3, b, 1)
        assert np.allclose(got.to_ndarray(), expected, rtol=1e-12, atol=1e-14)
        first = sum(
            a.value_at(0, 0, k) * b.value_at(k, 0) for k in range(4)
        )
        assert got.value_at(0, 0, 0) == pytest.approx(first, rel=1e-12)

    def test_scalar_result(self):
        u = DenseTensor((3,), np.array([1.0, 2.0, 3.0]))
        v = DenseTensor((3,), np.array([4.0, 5.0, 6.0]))
        got = contract(u, 1, v, 1)
        assert got.shape == ()
        assert got.item() == pytest.approx(32.0)

    def test_mode_size_mismatch(self):
        with pytest.raises(ModeSizeMismatch):
            contract(DenseTensor((2, 3), np.zeros(6)), 2, DenseTensor((4,), np.zeros(4)), 1)

    def test_mode_index_out_of_range(self):
        a = DenseTensor((2, 3), np.zeros(6))
        with pytest.raises(ModeIndexOutOfRange):
            contract(a, 3, a, 1)
        with pytest.raises(ModeIndexOutOfRange):
            contract(a, 0, a, 1)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a1 = rand_tensor(rng, (3, 4, 2))
            a2 = rand_tensor(rng, (3, 4, 2))
            b = rand_tensor(rng, (5, 4))
            lhs = contract(DenseTensor((3, 4, 2), a1.data + a2.data), 2, b, 2)
            rhs = contract(a1, 2, b, 2).data + contract(a2, 2, b, 2).data
            scale = np.max(np.abs(rhs)) or 1.0
            assert np.max(np.abs(lhs.data - rhs)) / scale < 1e-12

    def test_matricization_consistency(self):
        # contracting mode n against a matrix is the same linear map as
        # unfolding, multiplying, and folding back
        rng = np.random.default_rng(9)
        a = rand_tensor(rng, (3, 4, 5))
        b = rand_tensor(rng, (4, 6))
        got = contract(a, 2, b, 1).to_ndarray()
        expected = np.einsum("ijk,jl->ikl", a.to_ndarray(), b.to_ndarray())
        scale = np.max(np.abs(expected)) or 1.0
        assert np.max(np.abs(got - expected)) / scale < 1e-12

    def test_fresh_result_no_aliasing(self):
        v = DenseTensor((3,), np.array([1.0, 0.0, 0.0]))
        eye = DenseTensor.from_ndarray(np.eye(3))
        got = contract(eye, 2, v, 1)
        assert got.data is not v.data


class TestFrobenius:
    def test_zeros(self):
        assert frobenius_norm_sq(DenseTensor.zeros((3, 2))) == 0.0

    def test_all_ones_2x2(self):
        assert frobenius_norm_sq(DenseTensor((2, 2), np.ones(4))) == pytest.approx(4.0)

    def test_random_matches_flat_loop(self):
        rng = np.random.default_rng(11)
        t = rand_tensor(rng, (3, 3))
        expected = sum(float(x) ** 2 for x in t.data)
        assert frobenius_norm_sq(t) == pytest.approx(expected, rel=1e-14)


class TestDenseTensor:
    def test_buffer_length_checked(self):
        with pytest.raises(ElementCountMismatch):
            DenseTensor((2, 2), np.zeros(3))

    @pytest.mark.parametrize(
        "shape, data, want",
        [
            ((2, 2), [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0]),
            ((2, 2), np.arange(4), [0.0, 1.0, 2.0, 3.0]),
            ((3,), np.array([1.5, -2.0, 0.25], dtype=">f8"), [1.5, -2.0, 0.25]),
            ((2, 3), np.arange(6.0).reshape(2, 3), [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]),  # F order
            ((), np.array([7.0]), [7.0]),
            ((), 7.0, [7.0]),
            ([np.int64(2), 1.0], (5.0, 6.0), [5.0, 6.0]),
        ],
        ids=["list", "int-array", "big-endian", "n-d-of-the-shape", "order-0", "order-0-scalar",
             "numpy-and-float-sizes"],
    )
    def test_accepted_buffers(self, shape, data, want):
        t = DenseTensor(shape, data)
        assert t.shape == tuple(int(d) for d in shape)
        assert all(type(d) is int for d in t.shape)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64 and t.data.ndim == 1
        assert t.data.tolist() == want

    def test_flat_float64_buffer_is_kept(self):
        data = np.arange(4.0)
        assert DenseTensor((2, 2), data).data is data

    @pytest.mark.parametrize(
        "shape, data, error, message",
        [
            ((2, 2), np.zeros(3), ElementCountMismatch,
             "buffer has 3 entries, shape (2, 2) needs 4"),
            ((2, 2), np.zeros((2, 3)), ElementCountMismatch,
             "buffer shaped (2, 3) does not match declared shape (2, 2); "
             "pass a flat buffer or a matching array"),
            ((2, 0), np.zeros(0), ShapeError, "mode sizes must be >= 1, got (2, 0)"),
            ((-1,), np.zeros(1), ShapeError, "mode sizes must be >= 1, got (-1,)"),
        ],
        ids=["length", "n-d-of-another-shape", "zero-size-mode", "negative-mode"],
    )
    def test_rejected_buffers(self, shape, data, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DenseTensor(shape, data)

    def test_scalar_tensor(self):
        s = DenseTensor((), np.array([7.0]))
        assert s.order == 0 and s.item() == 7.0

    def test_value_at_bounds(self):
        t = DenseTensor((2, 2), np.arange(4.0))
        with pytest.raises(ModeIndexOutOfRange):
            t.value_at(2, 0)
