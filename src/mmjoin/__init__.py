"""mmjoin: join-project query evaluation with count-matrix multiplication."""

import os
import sys

# One BLAS thread unless the environment sets a count. Every operator is
# single-threaded Python around its products, and OpenBLAS' worker threads
# busy-wait between calls: on a 2-vCPU VM with the default two threads every
# 0/1 product from 128 to 300 a side took ~16 ms, against 0.08 ms at 128 and
# ~1 ms at 300 on one thread. OpenBLAS reads the variable as numpy loads; if
# numpy is loaded, its bundled OpenBLAS is set (other BLAS builds are not).
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" in sys.modules:
    import ctypes
    import glob
    for _lib in glob.glob(os.path.join(os.path.dirname(
            sys.modules["numpy"].__file__), os.pardir, "numpy.libs",
            "*openblas*")):
        try:
            ctypes.CDLL(_lib).scipy_openblas_set_num_threads64_(1)
        except (OSError, AttributeError):
            pass
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc's allocator maps each array past its mmap threshold afresh and
# hands the top of its heap back past its trim threshold; it raises both
# only once it frees a large mapped array. Until then every join's
# temporaries fault their pages in again: a 1000-set SSJ faulted ~1,400
# pages a call at ~2.4 us a page on a 2-vCPU VM. Both are set where glibc's
# own raising stops (32 MiB, and twice that), unless the environment tunes
# the allocator.
if not any(k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"
           for k in os.environ):
    import ctypes
    try:
        _mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        pass
    else:
        _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        _mallopt.restype = ctypes.c_int
        _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

from . import apps, joinproject, matmul, optimizer, relation  # noqa: E402

__version__ = "0.1.0"

__all__ = ["apps", "joinproject", "matmul", "optimizer", "relation",
           "__version__"]
