"""Compare the multiply backends (compiled int64 kernel, blocked numpy int64,
and BLAS in the narrowest exact float type) on square 0/1 uint8 count
matrices, the format `calibrate` probes and the join operators pass.

Usage: python benchmarks/bench_kernels.py [--dims 128,256,512] [--cores 1,2]
"""

import argparse
import time

import numpy as np

from mmjoin.matmul import CountMatrix, multiply_counts
from mmjoin.matmul import core


def _time(fn, runs=5):
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    kept = samples[1:-1] if len(samples) > 2 else samples
    return sum(kept) / len(kept)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="128,256,512")
    ap.add_argument("--cores", default="1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    cores = [int(c) for c in args.cores.split(",")]

    backends = ["numpy", "blas"]
    if core._kernel_cy is not None:
        backends.insert(0, "cython")
    print(f"seed={args.seed} active int backend: {core.INT_BACKEND}")
    print(f"{'dim':>6} {'cores':>5} " +
          " ".join(f"{b + ' (ms)':>14}" for b in backends))

    for p in dims:
        rng = np.random.default_rng(args.seed + p)
        a = CountMatrix((rng.random((p, p)) < 0.5).astype(np.uint8))
        b = CountMatrix((rng.random((p, p)) < 0.5).astype(np.uint8))
        ref = multiply_counts(a, b, backend="numpy").data
        for co in cores:
            row = []
            for backend in backends:
                out = multiply_counts(a, b, cores=co, backend=backend)
                assert np.array_equal(out.data, ref), backend
                nanos = _time(lambda: multiply_counts(a, b, cores=co,
                                                      backend=backend))
                row.append(f"{nanos / 1e6:>14.2f}")
            print(f"{p:>6} {co:>5} " + " ".join(row))


if __name__ == "__main__":
    main()
