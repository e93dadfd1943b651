"""Exact count-matrix multiplication on the narrowest exact arithmetic.

`multiply_counts` bounds the largest possible result entry by
inner dimension * max(A) * max(B) and picks a precision ladder from it:

- bound <= 2^24: float32 SGEMM;
- bound <= 2^53: float64 DGEMM;
- bound <= int64 max: numpy's int64 matmul.

Every tier returns the same int64 product. The 0/1 matrices the operators
pass have a bound equal to their inner dimension, so they run in float32.
"""

from __future__ import annotations

import numpy as np

_SINGLE_EXACT_BOUND = 2 ** 24
_DOUBLE_EXACT_BOUND = 2 ** 53
_INT64_MAX = np.iinfo(np.int64).max

# environment() in perfbench/run.py records both names on every run; the
# int64 tier is plain numpy and there is no compiled kernel
INT_BACKEND = "numpy"
_kernel_cy = None


class MatrixOverflowError(OverflowError):
    pass


class CountMatrix:
    """Dense nonnegative counts with row/col keys back to value ids.

    uint8 data is kept as given (1 byte per 0/1 entry), bool becomes uint8,
    and any other dtype is cast to int64.
    """

    def __init__(self, data: np.ndarray, row_keys=None, col_keys=None):
        data = np.asarray(data)
        dtype = np.uint8 if data.dtype in (np.bool_, np.uint8) else np.int64
        data = np.ascontiguousarray(data, dtype=dtype)
        if data.ndim != 2:
            raise ValueError("CountMatrix needs a 2-d array")
        if dtype == np.int64 and data.size and data.min() < 0:
            raise ValueError("counts must be nonnegative")
        self.data = data
        self.row_keys = row_keys
        self.col_keys = col_keys

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return isinstance(other, CountMatrix) and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"CountMatrix({self.rows}x{self.cols})"


def multiply_counts(a: CountMatrix, b: CountMatrix) -> CountMatrix:
    """Exact int64 product A @ B on the narrowest exact arithmetic."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    am = int(a.data.max()) if a.data.size else 0
    bm = int(b.data.max()) if b.data.size else 0
    bound = a.cols * am * bm
    if bound > _INT64_MAX:
        raise MatrixOverflowError(
            f"worst-case entry {bound} exceeds int64 capacity")
    # The entries are nonnegative integers, so every product and every
    # partial sum, in any summation order, blocking or FMA, is an integer
    # <= bound. float32 holds every integer <= 2^24 exactly, float64 every
    # integer <= 2^53 and int64 every integer <= bound, so no step rounds or
    # wraps. The float tiers rely on a BLAS that forms plain sums of products
    # (no Strassen-like subtraction), as OpenBLAS does. uint8 operands are
    # widened first: numpy's `@` would accumulate them mod 256.
    if bound <= _DOUBLE_EXACT_BOUND:
        ftype = np.float32 if bound <= _SINGLE_EXACT_BOUND else np.float64
        data = (a.data.astype(ftype) @ b.data.astype(ftype)).astype(np.int64)
    else:
        data = a.data.astype(np.int64) @ b.data.astype(np.int64)
    return CountMatrix(data, row_keys=a.row_keys, col_keys=b.col_keys)
