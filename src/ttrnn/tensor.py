"""Dense N-way tensors with fastest-first linear indexing.

Every value in this package is ultimately a :class:`DenseTensor`: a flat
float64 buffer plus a shape, laid out so that the *first* index varies
fastest (Little-Endian convention).  The linear offset of 0-based index
``(i_1, ..., i_N)`` is ``i_1 + I_1*i_2 + I_1*I_2*i_3 + ...``, i.e. Fortran
order.  Mode numbers in the public API are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

Shape = tuple[int, ...]


class ElementCountMismatch(ShapeError):
    """Reshape target has a different number of elements."""


class ModeSizeMismatch(ShapeError):
    """Contracted modes have different sizes."""


class ModeIndexOutOfRange(ShapeError):
    """Mode index outside 1..order."""


def check_shape(dims) -> Shape:
    """Validate and normalize a shape: every mode size a positive int."""
    dims = tuple(map(int, dims))
    if dims and min(dims) < 1:
        raise ShapeError(f"mode sizes must be >= 1, got {dims}")
    return dims


def element_count(shape: Shape) -> int:
    return math.prod(shape)


def linear_offset(shape: Shape, index: tuple[int, ...]) -> int:
    """Offset of 0-based multi-index `index` in the flat buffer (first index fastest)."""
    off = 0
    stride = 1
    for i, d in zip(index, shape):
        off += i * stride
        stride *= d
    return off


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor: shape metadata over a flat Little-Endian buffer.

    ``data`` is a 1-D float64 array of length ``prod(shape)``.  An order-0
    shape ``()`` denotes a scalar (single-entry buffer).  Instances are
    treated as immutable; operations return fresh tensors.
    """

    shape: Shape
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "shape", check_shape(self.shape))
        arr = self.data
        if type(arr) is not np.ndarray or arr.dtype != np.float64:  # keep a native float64 array
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 1:
            if arr.shape != self.shape:
                raise ElementCountMismatch(
                    f"buffer shaped {arr.shape} does not match declared "
                    f"shape {self.shape}; pass a flat buffer or a matching array"
                )
            arr = arr.ravel(order="F")
        object.__setattr__(self, "data", arr)
        if arr.size != math.prod(self.shape):
            raise ElementCountMismatch(
                f"buffer has {arr.size} entries, shape {self.shape} needs "
                f"{math.prod(self.shape)}"
            )

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    @classmethod
    def from_ndarray(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.shape, arr.flatten(order="F"))

    @classmethod
    def zeros(cls, shape) -> "DenseTensor":
        shape = check_shape(shape)
        return cls(shape, np.zeros(element_count(shape)))

    def to_ndarray(self) -> np.ndarray:
        """View the buffer as an N-d numpy array (no copy)."""
        return self.data.reshape(self.shape, order="F")

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-entry tensor, shape {self.shape}")
        return float(self.data[0])

    def value_at(self, *index: int) -> float:
        """Entry at 0-based multi-index."""
        if len(index) != self.order:
            raise ModeIndexOutOfRange(
                f"index {index} has {len(index)} modes, tensor has {self.order}"
            )
        for i, d in zip(index, self.shape):
            if not 0 <= i < d:
                raise ModeIndexOutOfRange(f"index {index} outside shape {self.shape}")
        return float(self.data[linear_offset(self.shape, index)])


def reshape(t: DenseTensor, new_shape) -> DenseTensor:
    """Reinterpret the buffer under a new shape (tensorize/matricize).

    The data buffer is shared, not copied, so round-trips are bit-exact.
    Raises ElementCountMismatch if the element counts differ.
    """
    new_shape = check_shape(new_shape)
    if element_count(new_shape) != t.size:
        raise ElementCountMismatch(
            f"cannot reshape {t.shape} ({t.size} elements) to {new_shape} "
            f"({element_count(new_shape)} elements)"
        )
    return DenseTensor(new_shape, t.data)


def contract(a: DenseTensor, n: int, b: DenseTensor, m: int) -> DenseTensor:
    """Sum mode ``n`` of ``a`` against mode ``m`` of ``b`` (modes are 1-based).

    The result carries a's remaining modes followed by b's remaining modes.
    A fully contracted pair (order-1 against order-1) yields an order-0
    tensor holding the inner product.
    """
    if not 1 <= n <= a.order:
        raise ModeIndexOutOfRange(f"mode {n} of a tensor with order {a.order}")
    if not 1 <= m <= b.order:
        raise ModeIndexOutOfRange(f"mode {m} of a tensor with order {b.order}")
    if a.shape[n - 1] != b.shape[m - 1]:
        raise ModeSizeMismatch(
            f"mode {n} of a has size {a.shape[n - 1]}, mode {m} of b has "
            f"size {b.shape[m - 1]}"
        )
    out = np.tensordot(a.to_ndarray(), b.to_ndarray(), axes=(n - 1, m - 1))
    return DenseTensor.from_ndarray(out)


def frobenius_norm_sq(t: DenseTensor) -> float:
    """Sum of squared entries."""
    return float(np.dot(t.data, t.data))


def frobenius_norm(t: DenseTensor) -> float:
    return math.sqrt(frobenius_norm_sq(t))
