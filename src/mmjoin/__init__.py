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

from . import apps, joinproject, matmul, optimizer, relation  # noqa: E402

__version__ = "0.1.0"

__all__ = ["apps", "joinproject", "matmul", "optimizer", "relation",
           "__version__"]
