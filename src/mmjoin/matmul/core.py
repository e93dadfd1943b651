"""Exact count-matrix multiplication on the narrowest exact arithmetic.

`exact_type` bounds the largest possible result entry by
inner dimension * max(A) * max(B) and picks a precision ladder from it:

- bound <= 2^24: float32 SGEMM;
- bound <= 2^53: float64 DGEMM;
- bound <= int64 max: numpy's int64 matmul.

`multiply_counts` returns the int64 product A @ B on that ladder. The 0/1
matrices the operators pass have a bound equal to their inner dimension, so
they run in float32.

`gram_upper` computes the Gram matrix V @ V^T of a self-join on the same
ladder, by row blocks of its upper triangle spread over one thread per CPU
the process may use (worker_count); each block keeps only the entries that
reach a floor. Every BLAS call stays on the one thread mmjoin/__init__.py
gives BLAS.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from ..errors import DataError

_SINGLE_EXACT_BOUND = 2 ** 24
_DOUBLE_EXACT_BOUND = 2 ** 53
_INT64_MAX = np.iinfo(np.int64).max

# environment() in perfbench/run.py records both names on every run; the
# int64 tier is plain numpy and there is no compiled kernel
INT_BACKEND = "numpy"
_kernel_cy = None


class MatrixOverflowError(DataError, OverflowError):
    pass


class CountMatrix:
    """Dense nonnegative counts with row/col keys back to value ids.

    uint8 data is kept as given (1 byte per 0/1 entry; a transposed view
    stays a view), bool becomes uint8, and any other dtype is cast to int64.
    """

    def __init__(self, data: np.ndarray, row_keys=None, col_keys=None):
        data = np.asarray(data)
        dtype = np.uint8 if data.dtype in (np.bool_, np.uint8) else np.int64
        data = np.asarray(data, dtype=dtype)
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

    @property
    def top(self) -> int:
        """The largest entry, 0 when empty."""
        return int(self.data.max()) if self.data.size else 0

    def __eq__(self, other):
        return isinstance(other, CountMatrix) and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"CountMatrix({self.rows}x{self.cols})"


def exact_type(bound: int) -> type:
    """The narrowest type whose matmul is exact when no entry of the product
    can pass `bound`; MatrixOverflowError past int64.

    The entries are nonnegative integers, so every product and every
    partial sum, in any summation order, blocking or FMA, is an integer
    <= bound. float32 holds every integer <= 2^24 exactly, float64 every
    integer <= 2^53 and int64 every integer <= bound, so no step rounds or
    wraps. The float tiers rely on a BLAS that forms plain sums of products
    (no Strassen-like subtraction), as OpenBLAS does. uint8 operands must be
    widened to the type: numpy's `@` would accumulate them mod 256.
    """
    if bound > _INT64_MAX:
        raise MatrixOverflowError(
            f"worst-case entry {bound} exceeds int64 capacity")
    if bound <= _SINGLE_EXACT_BOUND:
        return np.float32
    return np.float64 if bound <= _DOUBLE_EXACT_BOUND else np.int64


def multiply_counts(a: CountMatrix, b: CountMatrix) -> CountMatrix:
    """Exact int64 product A @ B on the narrowest exact arithmetic."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    ftype = exact_type(a.cols * a.top * b.top)
    data = a.data.astype(ftype) @ b.data.astype(ftype)
    return CountMatrix(data.astype(np.int64, copy=False),
                       row_keys=a.row_keys, col_keys=b.col_keys)


def worker_count() -> int:
    """Threads a Gram product runs on: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# A block's fixed part (its numpy calls and hand-off to a thread) is
# ~45 us, so a Gram is not cut into blocks of fewer multiply-adds than this,
# nor given a thread for fewer; and no block holds more entries than the
# second, which keeps a block's scratch at a few MiB.
_BLOCK_MADDS = 1 << 21
_BLOCK_ENTRIES = 1 << 18


def gram_workers(madds, workers: int) -> int:
    """Threads a Gram product of `madds` multiply-adds runs on: one per
    _BLOCK_MADDS, at least 1 and at most `workers` (worker_count)."""
    return int(max(1, min(workers, madds // _BLOCK_MADDS)))


def gram_blocks(rows, inner, workers: int):
    """Row blocks gram_cuts cuts a rows x rows Gram matrix of `inner`
    columns into: two per worker while each multiplies at least
    _BLOCK_MADDS, fewer when not, more when a block would pass
    _BLOCK_ENTRIES, and at most one per row. Takes ints or arrays."""
    half = rows * (rows + 1) // 2
    n = np.minimum(2 * workers, np.maximum(1, half * inner // _BLOCK_MADDS))
    return np.minimum(rows, np.maximum(n, -(-half // _BLOCK_ENTRIES)))


def gram_entries(rows, blocks):
    """About the entries gram_cuts' blocks hold: m blocks of equal height
    would hold rows^2 (m + 1) / (2m). Takes ints or arrays."""
    return rows * rows * (blocks + 1) / np.maximum(2 * blocks, 1)


def gram_cuts(rows: int, inner: int, workers: int) -> list:
    """Row cuts 0 = c_0 < c_1 < ... < c_m = rows of the upper triangle of a
    rows x rows Gram matrix into gram_blocks blocks (or fewer). Block b
    multiplies rows c_b..c_{b+1}-1 by every column from c_b on, so it holds
    (c_{b+1} - c_b) * (rows - c_b) entries; the cuts give every block about
    the same, the smallest entry count per block that still reaches the
    last row in m blocks (by bisection)."""
    m = int(gram_blocks(rows, inner, workers))

    def cut(area):  # at most m blocks of at most `area` entries
        at = [0]
        while at[-1] < rows and len(at) <= m:
            at.append(min(rows, at[-1] + -(-area // (rows - at[-1]))))
        return at

    lo, hi = 1, rows * rows
    while lo < hi:
        mid = (lo + hi) // 2
        if cut(mid)[-1] == rows:
            hi = mid
        else:
            lo = mid + 1
    return cut(lo)


_pool = None  # (pid, threads, executor), made on first use


def _executor(threads: int) -> ThreadPoolExecutor:
    """A pool of at least `threads` threads, kept for later calls. A forked
    child makes its own: the parent's threads are not in it."""
    global _pool
    if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads:
        _pool = (os.getpid(), threads,
                 ThreadPoolExecutor(threads, thread_name_prefix="mmjoin"))
    return _pool[2]


def run_shared(fn, tasks: Sequence, workers: int) -> list:
    """[fn(t) for t in tasks] on `workers` threads, the calling thread one
    of them: each takes the next task when it finishes one. An exception
    stops the tasks not yet taken and is raised as itself once every
    thread has stopped."""
    results = [None] * len(tasks)
    todo = iter(range(len(tasks)))
    lock = threading.Lock()

    def share():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(tasks[i])
            except BaseException:
                with lock:
                    for _ in todo:
                        pass
                raise

    helpers = min(workers, len(tasks)) - 1
    futures = ([_executor(helpers).submit(share) for _ in range(helpers)]
               if helpers > 0 else [])
    try:
        share()
    finally:
        for f in futures:
            f.exception()  # waits
    for f in futures:
        f.result()
    return results


def gram_upper(factors: Sequence[CountMatrix], tasks: Sequence[tuple],
               floor: int, want_counts: bool, workers: int,
               finish=None) -> list:
    """Row blocks of the upper triangles of the Gram matrices V @ V^T of
    `factors`, one per task (f, lo, hi): rows lo..hi-1 of factors[f]'s
    Gram against its columns from lo on. A block keeps its entries (i, j),
    i <= j, whose count is at least `floor`, and gives them as (i, j,
    counts), counts as int64 (None without want_counts), or as what
    `finish(f, i, j, counts)` makes of them on the thread that ran it.

    Each factor is widened once to exact_type of its bound (V's columns
    times its largest entry squared), and a block is one product of its
    rows by the columns from lo on, whose square on the diagonal is computed
    whole and its lower triangle dropped. (Multiplying that square apart,
    which numpy runs as SYRK, was no faster.) The blocks run on
    run_shared."""
    wide = [v.data.astype(exact_type(v.cols * v.top ** 2)) for v in factors]

    def block(task):
        f, lo, hi = task
        counts = wide[f][lo:hi] @ wide[f][lo:].T
        at = np.flatnonzero(counts >= floor)
        i, j = np.divmod(at, counts.shape[1])
        upper = j >= i
        at = at[upper]
        out = (i[upper] + lo, j[upper] + lo,
               counts.ravel()[at].astype(np.int64) if want_counts else None)
        return out if finish is None else finish(f, *out)

    return run_shared(block, tasks, workers)
