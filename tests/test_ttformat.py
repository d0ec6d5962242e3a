import itertools
import math

import numpy as np
import pytest

from oracles import le_offset_1based, mpo_entry, tt_reconstruct_slices
from ttrnn.tensor import DenseTensor, frobenius_norm_sq
from ttrnn.ttformat import (
    InvalidRank,
    InvalidTolerance,
    LengthMismatch,
    RankMismatch,
    TTMatrix,
    TTVector,
    check_ranks,
    dense_param_count,
    format_tt_matrix,
    format_tt_vector,
    mpo_reconstruct,
    mpo_to_matrix,
    parse_tt_matrix,
    parse_tt_vector,
    tt_param_count,
    tt_reconstruct,
    _fmt_values,
    tt_svd,
)


def rel_err(got: DenseTensor, want: DenseTensor) -> float:
    denom = math.sqrt(frobenius_norm_sq(want)) or 1.0
    return math.sqrt(float(np.sum((got.data - want.data) ** 2))) / denom


class TestReconstruct:
    def test_single_core_is_the_vector(self):
        vec = np.array([1.0, -2.0, 3.0])
        tt = TTVector([vec.reshape(1, 3, 1)])
        got = tt_reconstruct(tt)
        assert got.shape == (3,)
        assert np.array_equal(got.data, vec)

    def test_rank_one_outer_product(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 5.0, 7.0])
        c = np.array([-1.0, 4.0])
        tt = TTVector([a.reshape(1, 2, 1), b.reshape(1, 3, 1), c.reshape(1, 2, 1)])
        got = tt_reconstruct(tt)
        for i, j, k in itertools.product(range(2), range(3), range(2)):
            assert got.value_at(i, j, k) == pytest.approx(a[i] * b[j] * c[k], rel=1e-14)

    def test_slice_path_agrees_with_chain_path(self):
        rng = np.random.default_rng(2)
        cores = [
            rng.normal(size=(1, 3, 2)),
            rng.normal(size=(2, 4, 3)),
            rng.normal(size=(3, 2, 1)),
        ]
        tt = TTVector(cores)
        chain = tt_reconstruct(tt)
        slices = tt_reconstruct_slices(tt)
        assert chain.shape == slices.shape == (3, 4, 2)
        assert np.max(np.abs(chain.data - slices.data)) < 1e-12 * max(
            1.0, np.max(np.abs(slices.data))
        )

    def test_rank_mismatch_rejected(self):
        with pytest.raises(RankMismatch):
            TTVector([np.zeros((1, 3, 2)), np.zeros((3, 3, 1))])
        with pytest.raises(RankMismatch):
            TTVector([np.zeros((2, 3, 1))])  # bad boundary


class TestMPO:
    def test_single_core_transposition(self):
        rng = np.random.default_rng(4)
        slice_ij = rng.normal(size=(3, 2))  # (in, out)
        w = TTMatrix([slice_ij.reshape(1, 3, 2, 1)])
        mat = mpo_to_matrix(w).to_ndarray()
        assert mat.shape == (2, 3)  # out x in
        assert np.allclose(mat, slice_ij.T)

    def test_kronecker_of_identities_is_identity(self):
        cores = []
        for size, (r0, r1) in zip((2, 3, 2), ((1, 1), (1, 1), (1, 1))):
            core = np.zeros((r0, size, size, r1))
            for i in range(size):
                core[0, i, i, 0] = 1.0
            cores.append(core)
        w = TTMatrix(cores)
        mat = mpo_to_matrix(w).to_ndarray()
        assert np.array_equal(mat, np.eye(12))

    def test_random_mpo_matches_bruteforce_multi_index(self):
        rng = np.random.default_rng(8)
        cores = [
            rng.normal(size=(1, 2, 2, 2)),
            rng.normal(size=(2, 2, 2, 2)),
            rng.normal(size=(2, 2, 2, 1)),
        ]
        w = TTMatrix(cores)
        big = mpo_reconstruct(w)
        assert big.shape == (2, 2, 2, 2, 2, 2)
        mat = mpo_to_matrix(w).to_ndarray()
        for in_idx in itertools.product(range(2), repeat=3):
            for out_idx in itertools.product(range(2), repeat=3):
                want = mpo_entry(cores, in_idx, out_idx)
                interleaved = (
                    in_idx[0], out_idx[0], in_idx[1], out_idx[1], in_idx[2], out_idx[2],
                )
                assert big.value_at(*interleaved) == pytest.approx(want, rel=1e-12, abs=1e-14)
                row = le_offset_1based((2, 2, 2), tuple(j + 1 for j in out_idx))
                col = le_offset_1based((2, 2, 2), tuple(i + 1 for i in in_idx))
                assert mat[row, col] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_matrix_is_the_regrouped_reconstruction(self):
        rng = np.random.default_rng(9)
        cores = [
            rng.normal(size=(1, 2, 3, 2)),
            rng.normal(size=(2, 4, 1, 3)),
            rng.normal(size=(3, 3, 2, 1)),
        ]
        w = TTMatrix(cores)
        big = mpo_reconstruct(w).to_ndarray()  # (in_1, out_1, ..., in_3, out_3)
        want = big.transpose(1, 3, 5, 0, 2, 4).reshape((6, 24), order="F")
        mat = mpo_to_matrix(w).to_ndarray()
        assert mat.flags.f_contiguous  # the layout the GEMMs and checkpoints see
        assert mat.shape == want.shape and mat.tobytes() == want.tobytes()

    def test_param_count_matches_stored_cores(self):
        rng = np.random.default_rng(12)
        cores = [
            rng.normal(size=(1, 2, 4, 3)),
            rng.normal(size=(3, 5, 4, 2)),
            rng.normal(size=(2, 6, 4, 1)),
        ]
        w = TTMatrix(cores)
        assert w.n_params == tt_param_count(w.in_dims, w.out_dims, w.ranks)


class TestTTSVD:
    def test_rank_one_tensor_gets_unit_ranks(self):
        rng = np.random.default_rng(3)
        vecs = [rng.normal(size=k) for k in (3, 4, 2, 5)]
        nd = np.einsum("i,j,k,l->ijkl", *vecs)
        t = DenseTensor.from_ndarray(nd)
        tt = tt_svd(t)
        assert tt.ranks == (1, 1, 1, 1, 1)
        assert rel_err(tt_reconstruct(tt), t) < 1e-12

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(6)
        t = DenseTensor.from_ndarray(rng.normal(size=(4, 4, 4)))
        tt = tt_svd(t)
        assert tt.ranks == (1, 4, 4, 1)
        assert rel_err(tt_reconstruct(tt), t) < 1e-10

    def test_truncation_error_equals_discarded_singular_values(self):
        # independent sequential-SVD oracle, collecting discarded spectra
        rng = np.random.default_rng(7)
        t = DenseTensor.from_ndarray(rng.normal(size=(4, 4, 4)))
        max_ranks = (1, 2, 2, 1)

        discarded_sq = 0.0
        rem = np.array(t.data)
        r_prev = 1
        for n, dim in enumerate((4, 4)):
            mat = rem.reshape((r_prev * dim, -1), order="F")
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            keep = min(len(s), max_ranks[n + 1])
            discarded_sq += float(np.sum(s[keep:] ** 2))
            rem = (s[:keep, None] * vt[:keep]).ravel(order="F")
            r_prev = keep
        expected_err = math.sqrt(discarded_sq)

        tt = tt_svd(t, max_ranks=max_ranks)
        assert tt.ranks == (1, 2, 2, 1)
        got = tt_reconstruct(tt)
        actual_err = math.sqrt(float(np.sum((got.data - t.data) ** 2)))
        assert actual_err == pytest.approx(expected_err, abs=1e-8)

    def test_tolerance_mode_respects_budget(self):
        rng = np.random.default_rng(10)
        t = DenseTensor.from_ndarray(rng.normal(size=(5, 5, 5)))
        tol = 0.3
        tt = tt_svd(t, tol=tol)
        assert rel_err(tt_reconstruct(tt), t) <= tol + 1e-12

    def test_roundtrip_property_random_shapes(self):
        rng = np.random.default_rng(13)
        for shape in [(6,), (3, 7), (2, 3, 4), (3, 3, 3, 3), (2, 2, 5, 6, 4)]:
            t = DenseTensor.from_ndarray(rng.normal(size=shape))
            tt = tt_svd(t)
            assert rel_err(tt_reconstruct(tt), t) < 1e-10

    def test_rank_monotonicity(self):
        rng = np.random.default_rng(14)
        t = DenseTensor.from_ndarray(rng.normal(size=(4, 4, 4, 4)))
        errors = []
        for r in (1, 2, 3, 4):
            tt = tt_svd(t, max_ranks=(1, r, r, r, 1))
            errors.append(rel_err(tt_reconstruct(tt), t))
        for lo, hi in zip(errors[1:], errors):
            assert lo <= hi + 1e-12

    def test_invalid_ranks(self):
        t = DenseTensor.from_ndarray(np.random.default_rng(0).normal(size=(3, 3)))
        with pytest.raises(InvalidRank):
            tt_svd(t, max_ranks=(1, 2))  # wrong length
        with pytest.raises(InvalidRank):
            tt_svd(t, max_ranks=(1, 0, 1))
        with pytest.raises(InvalidRank):
            tt_svd(t, max_ranks=(2, 2, 1))
        with pytest.raises(InvalidRank):
            tt_svd(DenseTensor((), np.array([1.0])))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_invalid_tolerance(self, tol):
        t = DenseTensor.from_ndarray(np.random.default_rng(0).normal(size=(3, 3)))
        with pytest.raises(InvalidTolerance):
            tt_svd(t, tol=tol)


class TestParamCount:
    def test_reference_configuration(self):
        in_dims = (2, 2, 5, 6, 4)
        out_dims = (4, 4, 4, 4, 4)
        ranks = (1, 6, 6, 6, 6, 1)
        # per-core products, summed by hand
        expected = sum(
            i * j * r0 * r1
            for i, j, r0, r1 in zip(in_dims, out_dims, ranks, ranks[1:])
        )
        assert expected == 48 + 288 + 720 + 864 + 96 == 2016
        assert tt_param_count(in_dims, out_dims, ranks) == 2016
        assert dense_param_count(in_dims, out_dims) == 480 * 1024 == 491520

    def test_all_ranks_one(self):
        assert tt_param_count((2, 2), (2, 2), (1, 1, 1)) == 8

    def test_single_mode_equals_dense(self):
        assert tt_param_count((7,), (5,), (1, 1)) == 35 == dense_param_count((7,), (5,))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tt_param_count((2, 2), (2,), (1, 1, 1))
        with pytest.raises(InvalidRank):  # ranks go through check_ranks
            tt_param_count((2, 2), (2, 2), (1, 1))
        with pytest.raises(InvalidRank):
            tt_param_count((2, 2), (2, 2), (1, 2, 2))

    def test_check_ranks(self):
        assert check_ranks((1, 6, 6, 6, 6, 1), 5) == (1, 6, 6, 6, 6, 1)
        assert check_ranks([1, 1], 1) == (1, 1)
        for ranks, n_modes in [((1, 6, 1), 5), ((2, 6, 1), 2), ((1, 0, 1), 2), ((1,), 0)]:
            with pytest.raises(InvalidRank):
                check_ranks(ranks, n_modes)


class TestSerialization:
    def test_value_text_is_each_float_repr(self):
        arr = np.array([[-0.0, 5e-324, 1e16], [float("nan"), float("inf"), -1.5]])
        old = " ".join(repr(float(x)) for x in arr.ravel(order="F"))
        assert _fmt_values(arr) == old
        assert old == "-0.0 nan 5e-324 inf 1e+16 -1.5"

    def test_tt_vector_text_roundtrip(self):
        rng = np.random.default_rng(21)
        tt = tt_svd(DenseTensor.from_ndarray(rng.normal(size=(3, 4, 2))))
        text = format_tt_vector(tt)
        back = parse_tt_vector(text)
        assert back.dims == tt.dims and back.ranks == tt.ranks
        for a, b in zip(back.cores, tt.cores):
            assert np.array_equal(a, b)
        assert format_tt_vector(back) == text

    def test_tt_matrix_text_roundtrip(self):
        rng = np.random.default_rng(22)
        cores = [rng.normal(size=(1, 2, 3, 2)), rng.normal(size=(2, 4, 3, 1))]
        w = TTMatrix(cores)
        back = parse_tt_matrix(format_tt_matrix(w))
        for a, b in zip(back.cores, w.cores):
            assert np.array_equal(a, b)
