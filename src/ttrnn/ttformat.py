"""Tensor-train (MPS) and matrix-product-operator (MPO) formats.

A TT vector factors an order-N tensor into a chain of 3rd-order cores
``(R_{n-1}, K_n, R_n)`` linked by ranks with ``R_0 = R_N = 1``.  A TT
matrix stores a big ``M x P`` matrix as 4th-order cores
``(R_{n-1}, I_n, J_n, R_n)`` where ``P = prod(I_n)`` indexes columns
(inputs) and ``M = prod(J_n)`` indexes rows (outputs), both flattened
fastest-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, LengthMismatch, ShapeError
from .tensor import DenseTensor, check_shape, element_count, frobenius_norm


class RankMismatch(ShapeError):
    """Adjacent cores disagree on their linking rank, or boundary rank != 1."""


class InvalidRank(ShapeError):
    """Requested TT ranks are malformed."""


class InvalidTolerance(ConfigError):
    """The TT-SVD error budget is negative or not finite."""


def check_ranks(ranks, n_modes: int) -> tuple[int, ...]:
    """Validate a full rank tuple ``(1, R_1, ..., R_{N-1}, 1)`` for ``n_modes`` cores."""
    if n_modes < 1:
        raise InvalidRank("need at least one mode")
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != n_modes + 1:
        raise InvalidRank(
            f"ranks need {n_modes + 1} entries for {n_modes} modes, got {ranks}"
        )
    if ranks[0] != 1 or ranks[-1] != 1:
        raise InvalidRank(f"boundary ranks must be 1, got {ranks}")
    if min(ranks) < 1:
        raise InvalidRank(f"ranks must be positive, got {ranks}")
    return ranks


def _check_chain(cores, ndim_expected: int, what: str):
    if not cores:
        raise RankMismatch(f"{what} needs at least one core")
    for k, c in enumerate(cores):
        if c.ndim != ndim_expected:
            raise RankMismatch(
                f"{what} core {k} has {c.ndim} modes, expected {ndim_expected}"
            )
    if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
        raise RankMismatch(f"{what} boundary ranks must be 1")
    for k in range(len(cores) - 1):
        if cores[k].shape[-1] != cores[k + 1].shape[0]:
            raise RankMismatch(
                f"{what} cores {k} and {k + 1} link ranks "
                f"{cores[k].shape[-1]} != {cores[k + 1].shape[0]}"
            )


@dataclass(frozen=True)
class TTVector:
    """Chain of 3rd-order cores representing an order-N tensor."""

    cores: list

    def __post_init__(self):
        object.__setattr__(
            self, "cores", [np.asarray(c, dtype=np.float64) for c in self.cores]
        )
        _check_chain(self.cores, 3, "TT vector")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)


@dataclass(frozen=True)
class TTMatrix:
    """Chain of 4th-order cores representing an (prod out) x (prod in) matrix."""

    cores: list

    def __post_init__(self):
        object.__setattr__(
            self, "cores", [np.asarray(c, dtype=np.float64) for c in self.cores]
        )
        _check_chain(self.cores, 4, "TT matrix")

    @property
    def in_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[3] for c in self.cores)

    @property
    def n_in(self) -> int:
        return math.prod(self.in_dims)

    @property
    def n_out(self) -> int:
        return math.prod(self.out_dims)

    @property
    def n_params(self) -> int:
        return sum(c.size for c in self.cores)


def _contract_chain(cores) -> np.ndarray:
    """Chain contractions over the rank links, dropping the two boundary ranks.

    The result is a C-ordered ndarray with the cores' middle modes in chain order.
    """
    t = cores[0]
    for core in cores[1:]:
        t = np.tensordot(t, core, axes=(t.ndim - 1, 0))
    return t.reshape(t.shape[1:-1])


def tt_reconstruct(v: TTVector) -> DenseTensor:
    """Assemble the full tensor by chaining contractions over the rank links."""
    return DenseTensor.from_ndarray(_contract_chain(v.cores))


def mpo_reconstruct(w: TTMatrix) -> DenseTensor:
    """Assemble the order-2N tensor with interleaved (in_1, out_1, ..., in_N, out_N) modes."""
    return DenseTensor.from_ndarray(_contract_chain(w.cores))


def mpo_to_matrix(w: TTMatrix) -> DenseTensor:
    """Dense (prod out) x (prod in) matrix equivalent of a TT matrix.

    Rows are output multi-indices, columns input multi-indices, each
    flattened fastest-first, so ``y = W @ x_flat`` matches applying the
    cores to the tensorized input.
    """
    n = len(w.cores)
    # the fastest-first buffer of the (out_1, ..., out_N, in_1, ..., in_N)
    # tensor is the C-order ravel of the chain's axes reversed within each group
    perm = tuple(range(2 * n - 2, -1, -2)) + tuple(range(2 * n - 1, 0, -2))
    return DenseTensor((w.n_out, w.n_in), _contract_chain(w.cores).transpose(perm).ravel())


def _truncation_rank(s: np.ndarray, budget: float) -> int:
    """Largest tail of singular values whose root-sum-square fits in budget."""
    tail = 0.0
    r = len(s)
    while r > 1 and math.sqrt(tail + s[r - 1] ** 2) <= budget:
        tail += s[r - 1] ** 2
        r -= 1
    return r


def tt_svd(t: DenseTensor, max_ranks=None, tol: float | None = None) -> TTVector:
    """Sequential-SVD construction of a TT vector from a dense tensor.

    Each step unfolds the remainder into a ``(R_{n-1}*K_n) x rest`` matrix,
    takes a thin SVD and keeps the leading ``R_n`` columns.  With neither
    ``max_ranks`` nor ``tol`` the decomposition is exact up to floating
    point.  ``max_ranks`` is the full rank tuple ``(R_0, ..., R_N)`` with
    boundary ones; ``tol`` is a relative Frobenius error budget spread as
    ``tol/sqrt(N-1)`` per unfolding.
    """
    dims = t.shape
    n_modes = len(dims)
    if n_modes == 0:
        raise InvalidRank("cannot decompose an order-0 tensor")
    if max_ranks is not None:
        max_ranks = check_ranks(max_ranks, n_modes)
    budget = None
    if tol is not None:
        if not (math.isfinite(tol) and tol >= 0):
            raise InvalidTolerance(f"tol must be finite and >= 0, got {tol}")
        budget = tol * frobenius_norm(t) / math.sqrt(max(n_modes - 1, 1))

    rem = np.array(t.data)
    r_prev = 1
    cores = []
    for n in range(n_modes - 1):
        mat = rem.reshape((r_prev * dims[n], -1), order="F")
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        # numerically-zero singular values carry no content; dropping them
        # keeps exact low-rank structure at its true rank
        cutoff = s[0] * max(mat.shape) * np.finfo(np.float64).eps if s.size else 0.0
        r = int(np.sum(s > cutoff))
        if max_ranks is not None:
            r = min(r, max_ranks[n + 1])
        if budget is not None:
            r = min(r, _truncation_rank(s, budget))
        r = max(r, 1)
        cores.append(u[:, :r].reshape((r_prev, dims[n], r), order="F"))
        rem = (s[:r, None] * vt[:r, :]).ravel(order="F")
        r_prev = r
    cores.append(rem.reshape((r_prev, dims[-1], 1), order="F"))
    return TTVector(cores)


def tt_param_count(in_dims, out_dims, ranks) -> int:
    """Parameter count of a TT matrix: sum of I_n * J_n * R_{n-1} * R_n."""
    in_dims = check_shape(in_dims)
    out_dims = check_shape(out_dims)
    if len(in_dims) != len(out_dims):
        raise LengthMismatch(
            f"in_dims has {len(in_dims)} modes, out_dims has {len(out_dims)}"
        )
    ranks = check_ranks(ranks, len(in_dims))
    return sum(
        i * j * r0 * r1 for i, j, r0, r1 in zip(in_dims, out_dims, ranks, ranks[1:])
    )


def dense_param_count(in_dims, out_dims) -> int:
    """Parameter count of the uncompressed matrix: prod(in) * prod(out)."""
    return element_count(check_shape(in_dims)) * element_count(check_shape(out_dims))


# --- text serialization -----------------------------------------------------
#
# A block is a ``tag key=a,b ...`` header of positive integer lists, then data
# lines of decimal floats, fastest-index-first: one per core of a TT vector or
# matrix (a checkpoint's core block is ``ttmat``), one in a ``tensor`` file.


def _fmt_values(arr: np.ndarray) -> str:
    return " ".join(map(repr, arr.ravel(order="F").tolist()))


def _parse_values(line: str, shape) -> np.ndarray:
    try:
        vals = np.array([float(x) for x in line.split()], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"bad number: {exc}") from None
    if vals.size != element_count(shape):
        raise DataError(f"expected {element_count(shape)} values, got {vals.size}")
    return vals.reshape(shape, order="F")


def _ints(csv: str) -> tuple[int, ...]:
    return tuple(int(x) for x in csv.split(","))


def header_fields(tokens) -> dict:
    """The ``key=value`` tokens of a header line after its tag, as a dict of text values.

    A token that is not one ``key=value`` pair, or a key given twice (a later
    value would silently win), raises DataError naming it.
    """
    fields = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or "=" in value:
            raise DataError(f"malformed header field {token!r}")
        if key in fields:
            raise DataError(f"header key {key!r} appears twice")
        fields[key] = value
    return fields


def _format_block(tag: str, fields: dict, lines) -> str:
    header = " ".join([tag] + [f"{k}={','.join(map(str, v))}" for k, v in fields.items()])
    return "\n".join([header, *lines]) + "\n"


def _parse_block(text: str, tag: str, keys):
    """The positive integer lists a ``tag`` header gives for ``keys``, and the lines below it."""
    lines = text.strip("\r\n").split("\n")  # a CRLF line keeps its \r, which split() drops
    head = lines[0].split()
    want = " ".join([tag] + [f"{k}=..." for k in keys])
    if not head or head[0] != tag:
        raise DataError(f"expected a {want!r} header, got {lines[0]!r}")
    fields = header_fields(head[1:])
    unexpected = [k for k in fields if k not in keys]
    if unexpected:
        raise DataError(f"unexpected header key {unexpected[0]!r}")
    try:
        return [check_shape(_ints(fields[k])) for k in keys], lines[1:]
    except (KeyError, ValueError, ShapeError):
        raise DataError(
            f"expected a {want!r} header of positive integer lists, got {lines[0]!r}"
        ) from None


def _parse_cores(text: str, tag: str, dim_keys) -> list:
    """The cores of a TT block: ``dim_keys`` give each core's middle modes, ``ranks`` its links."""
    (*dims, ranks), data = _parse_block(text, tag, dim_keys + ("ranks",))
    n = len(dims[0])
    if any(len(d) != n for d in dims):
        raise DataError(f"{tag} header: {' and '.join(dim_keys)} differ in mode count")
    try:
        check_ranks(ranks, n)
    except InvalidRank as exc:
        raise DataError(f"{tag} header: {exc}") from None
    if len(data) != n:
        raise DataError("core data line count does not match dims")
    return [
        _parse_values(line, (ranks[k], *(d[k] for d in dims), ranks[k + 1]))
        for k, line in enumerate(data)
    ]


def format_tt_vector(v: TTVector) -> str:
    return _format_block("ttvec", {"dims": v.dims, "ranks": v.ranks}, map(_fmt_values, v.cores))


def parse_tt_vector(text: str) -> TTVector:
    return TTVector(_parse_cores(text, "ttvec", ("dims",)))


def format_tt_matrix(w: TTMatrix) -> str:
    fields = {"in": w.in_dims, "out": w.out_dims, "ranks": w.ranks}
    return _format_block("ttmat", fields, map(_fmt_values, w.cores))


def parse_tt_matrix(text: str) -> TTMatrix:
    return TTMatrix(_parse_cores(text, "ttmat", ("in", "out")))


def parse_tensor(text: str) -> DenseTensor:
    """Read a ``tensor dims=..`` block: its header, then one line of finite values."""
    (dims,), data = _parse_block(text, "tensor", ("dims",))
    if len(data) != 1:
        raise DataError(f"expected one data line after the tensor header, got {len(data)}")
    t = DenseTensor(dims, _parse_values(data[0], dims))
    if not np.all(np.isfinite(t.data)):
        raise DataError("tensor values must be finite")
    return t
