"""Exact count-matrix multiplication on the narrowest exact arithmetic.

`exact_type` bounds the largest possible result entry by
inner dimension * max(A) * max(B) and picks a precision ladder from it:

- bound <= 2^24: float32 SGEMM;
- bound <= 2^53: float64 DGEMM;
- bound <= int64 max: numpy's int64 matmul.

`multiply_counts` is the one product, V @ W^T on that ladder. The 0/1
matrices the operators pass have a bound equal to their inner dimension, so
they run in float32. It cuts V's rows into blocks (row_cuts), of the upper
triangle only where W is V (a self-join's Gram matrix), and runs them on
one thread per CPU the process may use (worker_count, run_shared), each
block handed to the caller's emit on the thread that computed it, and
reports the tier and threads it ran with (Blocks). Every BLAS call stays on
the one thread mmjoin/__init__.py gives BLAS.

`code_type` is the same narrowest-width rule for integer codes below a
known space: uint32 where the space fits, else int64.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..errors import DataError

_SINGLE_EXACT_BOUND = 2 ** 24
_DOUBLE_EXACT_BOUND = 2 ** 53
_INT64_MAX = np.iinfo(np.int64).max
# exact_type's ladder, narrowest first
TIERS = (np.float32, np.float64, np.int64)

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


# code_type's uint32 holds every code below this
_UINT32_SPACE = 2 ** 32


def code_type(space: int) -> type:
    """The narrowest type that holds every code below `space`: uint32 when
    the space fits in 32 bits, else int64. A uint32 sort or divmod moves
    half the bytes of an int64 one: on 108k codes (a 2-vCPU VM), np.sort
    took 0.33 ms against 0.78 and divmod 0.22 against 0.83. Arithmetic on
    the codes must stay below `space`, as uint32 wraps where int64 would
    not."""
    return np.uint32 if space <= _UINT32_SPACE else np.int64


def worker_count() -> int:
    """Threads a product runs on at most: the CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# A block's fixed part (its numpy calls and hand-off to a thread) is
# ~45 us, so a product is not cut into blocks of fewer multiply-adds than
# this, nor given a thread for fewer; and no block holds more entries than
# the second, which keeps a block's scratch at a few MiB.
_BLOCK_MADDS = 1 << 21
_BLOCK_ENTRIES = 1 << 18


def block_plan(rows, inner, cols, workers: int, triangle: bool = False):
    """How multiply_counts runs V (rows x inner) @ W^T (inner x cols), as
    (threads, blocks, entries): one thread per _BLOCK_MADDS multiply-adds,
    at least 1 and at most `workers` and the blocks; two blocks per thread
    (one for a rectangle on one thread) while each multiplies at least
    _BLOCK_MADDS, fewer when not, more when a block would pass
    _BLOCK_ENTRIES, and at most one per row; and about
    the entries the blocks hold. A rectangle's blocks hold its rows * cols
    entries. A triangle's (W is V, so cols is rows) m blocks of equal
    entries hold about rows^2 (m + 1) / (2m). Takes ints or arrays that
    broadcast."""
    least, most = (min, max) if isinstance(rows, int) else (np.minimum,
                                                            np.maximum)
    wanted = rows * (rows + 1) // 2 if triangle else rows * cols
    per = most(1, wanted * inner // _BLOCK_MADDS)
    threads = least(per, workers)
    # one thread runs a rectangle whole: only a triangle gains by its cuts
    blocks = least(rows, most(least((1 + ((threads > 1) | triangle))
                                    * threads, per),
                              -(-wanted // _BLOCK_ENTRIES)))
    entries = (rows * rows * (blocks + 1) / most(2 * blocks, 1)
               if triangle else rows * cols)
    return least(threads, most(blocks, 1)), blocks, entries


def row_cuts(rows: int, m: int, triangle: bool = False) -> list:
    """Row cuts 0 = c_0 < c_1 < ... < c_m = rows of V into block_plan's m
    blocks (or fewer). Block b multiplies rows c_b..c_{b+1}-1 by every
    column of W^T, in a triangle by the columns from c_b on, so there it
    holds (c_{b+1} - c_b) * (rows - c_b) entries. A rectangle's blocks are
    of equal height. A triangle's cuts give every block about the same
    entries, the smallest count per block that still reaches the last row
    in m blocks (by bisection)."""
    if not triangle or m <= 1:
        return [rows * b // m for b in range(m + 1)] if m else [0]

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
    if min(workers, len(tasks)) <= 1:
        return [fn(t) for t in tasks]
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


class Blocks(NamedTuple):
    """A product run through an emit: the emits' results in block order, the
    exact_type the blocks ran in and the threads they ran on."""
    parts: list
    tier: type
    threads: int


def multiply_counts(v: CountMatrix, wt: CountMatrix, emit=None,
                    triangle: bool = False, workers: Optional[int] = None):
    """The exact product V @ W^T of V (u x v) and W^T (v x w), by row blocks.

    Each factor is widened once to exact_type of the bound (v times the two
    factors' largest entries). V's rows are cut (row_cuts) into blocks that
    run on block_plan's threads, at most `workers` (worker_count by
    default). With `triangle`, W is V (`wt` is V's transpose): block
    lo..hi-1 is its rows against the columns from lo on, whose square on
    the diagonal is computed whole. (Multiplying that square apart, which
    numpy runs as SYRK, was no faster.) Each block goes to emit(lo, hi,
    block), in the widened type, on the thread that computed it; the
    emits' results come back in block order. Without an emit the product
    comes back whole, an int64 CountMatrix keyed by V's rows and W^T's
    columns."""
    if v.cols != wt.rows:
        raise ValueError(
            f"dimension mismatch: {v.rows}x{v.cols} @ {wt.rows}x{wt.cols}")
    if emit is None:
        whole = np.empty((v.rows, wt.cols), dtype=np.int64)

        def emit(lo, hi, block):
            whole[lo:hi, lo if triangle else 0:] = block
            if triangle:
                whole[hi:, lo:hi] = block[:, hi - lo:].T

        multiply_counts(v, wt, emit, triangle, workers)
        return CountMatrix(whole, row_keys=v.row_keys, col_keys=wt.col_keys)
    top = v.top
    kind = exact_type(v.cols * top * (top if triangle else wt.top))
    wide = v.data.astype(kind)
    wide_t = wide.T if triangle else wt.data.astype(kind)
    if workers is None:
        workers = worker_count()
    threads, blocks, _ = block_plan(v.rows, v.cols, wt.cols, workers, triangle)
    cuts = row_cuts(v.rows, blocks, triangle)

    def block(task):
        lo, hi = task
        return emit(lo, hi, wide[lo:hi] @ wide_t[:, lo if triangle else 0:])

    return Blocks(run_shared(block, list(zip(cuts, cuts[1:])), threads), kind,
                  threads)
