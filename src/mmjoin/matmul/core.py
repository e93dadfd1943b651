"""Exact count-matrix multiplication on the narrowest exact arithmetic.

`multiply_counts` bounds the largest possible result entry by
inner dimension * max(A) * max(B) and picks a precision ladder from it:

- bound <= 2^24: float32 SGEMM;
- bound <= 2^53: float64 DGEMM;
- larger: an int64 backend, chosen once at import: the Cython kernel if it
  built, else a blocked numpy path. MMJOIN_BACKEND=cython|numpy picks it.

Every path returns the same int64 product. The 0/1 matrices the operators
pass have a bound equal to their inner dimension, so they run in float32.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

try:
    from . import _kernel_cy
except ImportError:  # pragma: no cover - depends on build environment
    _kernel_cy = None

_SINGLE_EXACT_BOUND = 2 ** 24
_DOUBLE_EXACT_BOUND = 2 ** 53
_INT64_MAX = np.iinfo(np.int64).max

# the int64 path used whenever no float type is exact-safe
INT_BACKEND = "cython" if _kernel_cy is not None else "numpy"
_env = os.environ.get("MMJOIN_BACKEND")
if _env in ("cython", "numpy"):
    INT_BACKEND = _env


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


def identity(n: int) -> CountMatrix:
    return CountMatrix(np.eye(n, dtype=np.int64))


def _numpy_blocked(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                   r0: int, r1: int, block: int = 256) -> None:
    n = a.shape[1]
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        out[r0:r1] += a[r0:r1, k0:k1] @ b[k0:k1]


def _int64_product(a: np.ndarray, b: np.ndarray, cores: int, backend: str) -> np.ndarray:
    # uint8 operands would wrap mod 256 in numpy's `@`, and the kernel reads
    # the buffers as long long
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if backend == "cython":
        kern = lambda r0, r1: _kernel_cy.matmul_int64(a, b, out, r0, r1)
    else:
        kern = lambda r0, r1: _numpy_blocked(a, b, out, r0, r1)
    if cores <= 1 or a.shape[0] < 2 * cores:
        kern(0, a.shape[0])
        return out
    # disjoint row ranges keep the parallel result deterministic
    splits = np.linspace(0, a.shape[0], cores + 1).astype(int)
    with ThreadPoolExecutor(max_workers=cores) as pool:
        futs = [pool.submit(kern, splits[i], splits[i + 1]) for i in range(cores)]
        for f in futs:
            f.result()
    return out


def multiply_counts(a: CountMatrix, b: CountMatrix, cores: int = 1,
                    backend: Optional[str] = None) -> CountMatrix:
    """Exact int64 product A @ B; deterministic for any cores/backend.

    backend: "auto" (default) takes the precision ladder; "blas" forces the
    narrowest exact float type and raises MatrixOverflowError when none is
    exact; "cython" or "numpy" force that int64 backend.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    if backend is None:
        backend = "auto"
    am = int(a.data.max()) if a.data.size else 0
    bm = int(b.data.max()) if b.data.size else 0
    bound = a.cols * am * bm
    if bound > _INT64_MAX:
        raise MatrixOverflowError(
            f"worst-case entry {bound} exceeds int64 capacity")
    if backend == "auto":
        backend = "blas" if bound <= _DOUBLE_EXACT_BOUND else INT_BACKEND
    if backend == "blas":
        if bound > _DOUBLE_EXACT_BOUND:
            raise MatrixOverflowError(
                f"worst-case entry {bound} is not exact in float64")
        # The entries are nonnegative integers, so every product and every
        # partial sum, in any summation order, blocking or FMA, is an integer
        # <= bound. float32 holds every integer <= 2^24 exactly and float64
        # every integer <= 2^53, so no step rounds and the float result is
        # the exact product. Like the float64 path before it, this relies on
        # a BLAS that forms plain sums of products (no Strassen-like
        # subtraction), as OpenBLAS does.
        ftype = np.float32 if bound <= _SINGLE_EXACT_BOUND else np.float64
        data = (a.data.astype(ftype) @ b.data.astype(ftype)).astype(np.int64)
    elif backend in ("cython", "numpy"):
        if backend == "cython" and _kernel_cy is None:
            backend = "numpy"
        data = _int64_product(a.data, b.data, cores, backend)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return CountMatrix(data, row_keys=a.row_keys, col_keys=b.col_keys)


def theoretical_cost(u: int, v: int, w: int, omega: float = 3.0) -> float:
    """Analytic model U*V*W*beta^(omega-3), beta = min(U, V, W)."""
    if min(u, v, w) < 1:
        raise ValueError("dimensions must be >= 1")
    if not 2 <= omega <= 3:
        raise ValueError("omega must be in [2, 3]")
    beta = min(u, v, w)
    return float(u) * v * w * beta ** (omega - 3)
