import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtrace import traced_peak
from oracles import le_offset_1based, mpo_entry, tt_reconstruct_slices
from ttrnn.errors import DataError, ShapeError
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
    mpo_core_grads,
    mpo_reconstruct,
    mpo_to_matrix,
    parse_tensor,
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

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_core_grads_are_the_adjoint_of_the_matrix(self, data):
        """sum(dW * W with core k replaced by D) == sum(g_k * D) for every core k.

        W is linear in each core, so g_k = mpo_core_grads(w, dW)[k] is that
        map's adjoint applied to dW.
        """
        n = data.draw(st.integers(1, 4))
        modes = st.lists(st.integers(1, 3), min_size=n, max_size=n)
        in_dims, out_dims = data.draw(modes), data.draw(modes)
        ranks = [1, *data.draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1)), 1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cores = [rng.normal(size=shape) for shape in zip(ranks, in_dims, out_dims, ranks[1:])]
        w = TTMatrix(cores)
        dw = rng.normal(size=(w.n_out, w.n_in))
        grads = mpo_core_grads(w, dw)
        for k, core in enumerate(cores):
            d = rng.normal(size=core.shape)
            w_d = mpo_to_matrix(TTMatrix(cores[:k] + [d] + cores[k + 1 :])).to_ndarray()
            assert grads[k].shape == core.shape
            bound = 1e-12 * np.linalg.norm(dw) * np.linalg.norm(w_d)
            assert abs(np.sum(dw * w_d) - np.sum(grads[k] * d)) <= bound

    def test_core_grads_hold_one_copy_of_dw(self):
        # the paper's full size: in (2, 2, 5, 6, 4), hidden 4^5, ranks 6; dW is 3.75 MiB
        rng = np.random.default_rng(13)
        ranks = (1, 6, 6, 6, 6, 1)
        shapes = zip(ranks, (2, 2, 5, 6, 4), (4,) * 5, ranks[1:])
        w = TTMatrix([rng.normal(size=shape) for shape in shapes])
        dw = rng.normal(size=(w.n_out, w.n_in))
        _, peak = traced_peak(mpo_core_grads, w, dw)
        # dW refolded, plus chain products smaller than dW; core 0's product with the
        # ones((1, 1)) seed, or a right chain past core 0, would be a second dW
        assert peak < 2 * dw.nbytes, peak / dw.nbytes

    def test_core_grads_reject_a_misshapen_dw(self):
        # W is (20, 6); a transposed or flat dw has the right element count
        rng = np.random.default_rng(14)
        w = TTMatrix([rng.normal(size=(1, 2, 4, 2)), rng.normal(size=(2, 3, 5, 1))])
        dw = rng.normal(size=(w.n_out, w.n_in))
        for bad in (dw.T, dw.ravel(), dw[:, :5]):
            with pytest.raises(ShapeError, match=re.escape(f"{bad.shape}, expected (20, 6)")):
                mpo_core_grads(w, bad)

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

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_two_mode_error_is_eckart_young(self, data):
        # a matrix with a known spectrum: the best rank-r error is the norm
        # of the singular values past the r-th
        m, n = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 6))
        k = min(m, n)
        s = np.sort(data.draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k)))[::-1]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((n, k)))
        t = DenseTensor.from_ndarray((u * s) @ v.T)
        r = data.draw(st.integers(1, k - 1))
        tt = tt_svd(t, max_ranks=(1, r, 1))
        assert tt.ranks == (1, r, 1)
        err = math.sqrt(float(np.sum((tt_reconstruct(tt).data - t.data) ** 2)))
        assert err == pytest.approx(math.sqrt(float(np.sum(s[r:] ** 2))), rel=1e-10)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.data())
    def test_error_within_unfolding_bound(self, data):
        # Oseledets 2011, Thm 2.2: ||A - TT||_F <= sqrt(sum_k eps_k^2), where
        # eps_k is the best rank-r_k error of the k-th unfolding of A itself
        dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=3, max_size=4)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        nd = rng.standard_normal(dims)
        inner = [
            data.draw(st.integers(1, min(math.prod(dims[:k]), math.prod(dims[k:]))))
            for k in range(1, len(dims))
        ]
        tt = tt_svd(DenseTensor.from_ndarray(nd), max_ranks=(1, *inner, 1))
        bound_sq = 0.0
        for k in range(1, len(dims)):
            unfolding = nd.reshape((math.prod(dims[:k]), -1), order="F")
            s = np.linalg.svd(unfolding, compute_uv=False)
            bound_sq += float(np.sum(s[tt.ranks[k]:] ** 2))
        got = tt_reconstruct(tt).to_ndarray()
        err = math.sqrt(float(np.sum((got - nd) ** 2)))
        assert err <= math.sqrt(bound_sq) * (1 + 1e-10) + 1e-12 * np.linalg.norm(nd)

    def test_tolerance_mode_respects_budget(self):
        rng = np.random.default_rng(10)
        t = DenseTensor.from_ndarray(rng.normal(size=(5, 5, 5)))
        tol = 0.3
        tt = tt_svd(t, tol=tol)
        assert rel_err(tt_reconstruct(tt), t) <= tol + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_tolerance_truncates_noise_to_the_planted_ranks(self, seed):
        rng = np.random.default_rng(seed)
        dims, planted = (4, 5, 6, 3), (1, 2, 3, 2, 1)
        cores = [rng.normal(size=(planted[k], d, planted[k + 1])) for k, d in enumerate(dims)]
        clean = tt_reconstruct(TTVector(cores)).data
        noise = rng.normal(size=clean.shape)
        noise *= 1e-3 * np.linalg.norm(clean) / np.linalg.norm(noise)
        t = DenseTensor(dims, clean + noise)
        assert tt_svd(t).ranks != planted  # the noise fills every rank
        tol = 0.05
        tt = tt_svd(t, tol=tol)
        assert tt.ranks == planted
        assert rel_err(tt_reconstruct(tt), t) <= tol

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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_tt_matrix, "ttmat out=9 in=2 out=2 ranks=1,1\n1.0 1.0 1.0 1.0\n",
             "header key 'out' appears twice"),
            (parse_tt_vector, "ttvec dims=2 ranks=1,1 ranks=1,1\n1.0 1.0\n",
             "header key 'ranks' appears twice"),
            (parse_tt_matrix, "ttmat in=2 out ranks=1,1\n1.0 1.0\n", "malformed header field 'out'"),
        ],
        ids=["repeated-out", "repeated-ranks", "field-without-value"],
    )
    def test_bad_header_field(self, parse, text, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            parse(text)

    @pytest.mark.parametrize(
        "parse, text, key",
        [
            (parse_tt_matrix, "ttmat in=2 out=2 ranks=1,1 inn=3\n1.0 1.0 1.0 1.0\n", "inn"),
            (parse_tt_vector, "ttvec dims=2 rank=1 ranks=1,1\n1.0 1.0\n", "rank"),
            (parse_tensor, "tensor dims=2 shape=2\n1.0 1.0\n", "shape"),
        ],
        ids=["ttmat", "ttvec", "tensor"],
    )
    def test_stray_header_key(self, parse, text, key):
        """A key the block does not read is an error, not silently ignored."""
        with pytest.raises(DataError, match=f"^unexpected header key '{key}'$"):
            parse(text)

    def test_tt_matrix_text_roundtrip(self):
        rng = np.random.default_rng(22)
        cores = [rng.normal(size=(1, 2, 3, 2)), rng.normal(size=(2, 4, 3, 1))]
        w = TTMatrix(cores)
        back = parse_tt_matrix(format_tt_matrix(w))
        for a, b in zip(back.cores, w.cores):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            # the two sizes' product is positive, so the value count alone cannot catch them
            (parse_tt_matrix, "ttmat in=-1 out=-1 ranks=1,1\n1.0\n", "of positive integer lists"),
            (parse_tt_vector, "ttvec dims=0 ranks=1,1\n\n", "of positive integer lists"),
            (parse_tt_vector, "ttvec dims=2 ranks=1,0\n1.0 1.0\n", "of positive integer lists"),
            (parse_tt_vector, "ttvec dims=1 ranks=2,2\n1.0 1.0 1.0 1.0\n",
             "ttvec header: boundary ranks must be 1"),
            (parse_tt_vector, "ttvec dims=1,1 ranks=1,1\n1.0\n1.0\n",
             "ttvec header: ranks need 3 entries for 2 modes"),
            (parse_tt_matrix, "ttmat in=1,1 out=1 ranks=1,1,1\n1.0\n1.0\n",
             "ttmat header: in and out differ in mode count"),
        ],
        ids=["two-negative-sizes", "zero-size", "zero-rank", "boundary-rank", "rank-count",
             "in-out-mode-count"],
    )
    def test_bad_block_header_is_data_error(self, parse, text, message):
        with pytest.raises(DataError, match=re.escape(message)):
            parse(text)

    def test_tensor_text(self):
        t = parse_tensor("tensor dims=2,3\n" + " ".join(map(str, range(6))) + "\n")
        assert t.shape == (2, 3) and t.data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        for text, message in [
            ("tensor dims=2\n1.0 2.0\n1.0 2.0\n", "expected one data line"),
            ("ttvec dims=2\n1.0 2.0\n", "expected a 'tensor dims=...' header"),
            ("tensor dims=2\n1.0 inf\n", "tensor values must be finite"),
        ]:
            with pytest.raises(DataError, match=re.escape(message)):
                parse_tensor(text)

    @pytest.mark.parametrize("end", ["\r\n", "\r\n\r\n"], ids=["crlf", "crlf-blank-line"])
    def test_tensor_text_with_crlf_line_ends(self, end):
        t = parse_tensor(f"tensor dims=2,2\r\n1.0 2.0 3.0 4.0{end}")
        assert t.shape == (2, 2) and t.data.tolist() == [1.0, 2.0, 3.0, 4.0]


# one valid block per reader, each header number and value a mutation target
VALID_BLOCKS = {
    "ttvec": (parse_tt_vector, "ttvec dims=2,1 ranks=1,2,1\n0.5 -1.5 2.0 3e-05\n1.0 -2.0\n"),
    "ttmat": (parse_tt_matrix,
              "ttmat in=2,1 out=1,2 ranks=1,2,1\n1.0 2.0 3.0 4.0\n5.0 6.0 7.0 8.0\n"),
    "tensor": (parse_tensor, "tensor dims=2,2\n1.0 -2.5 0.0 4e+10\n"),
}
BAD_NUMBERS = ["-1", "0", "x", "nan", "1e999", ""]


@st.composite
def mutated_blocks(draw):
    """A valid block damaged 1-3 times: a line dropped or duplicated, the text cut, or a
    header number or value replaced by a bad one."""
    kind = draw(st.sampled_from(sorted(VALID_BLOCKS)))
    text = VALID_BLOCKS[kind][1]
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        numbers = [m.span() for m in re.finditer(r"-?[0-9][0-9.e+-]*", text)]
        how = draw(st.sampled_from(["drop", "duplicate", "truncate", "replace"]))
        if how in ("drop", "duplicate"):
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if how == "drop" else [lines[k]] * 2
            text = "\n".join(lines)
        elif how == "truncate" or not numbers:
            text = text[: draw(st.integers(0, len(text)))]
        else:
            start, end = draw(st.sampled_from(numbers))
            text = text[:start] + draw(st.sampled_from(BAD_NUMBERS)) + text[end:]
    return kind, text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_blocks())
@example(("ttmat", "ttmat in=-1 out=-1 ranks=1,1\n1.0\n"))
def test_block_readers_raise_only_data_or_shape_errors(case):
    kind, text = case
    try:
        VALID_BLOCKS[kind][0](text)
    except (DataError, ShapeError):
        pass


@pytest.mark.parametrize("kind", sorted(VALID_BLOCKS))
def test_unmutated_blocks_parse(kind):
    parse, text = VALID_BLOCKS[kind]
    parse(text)
