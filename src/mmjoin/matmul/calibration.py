"""Measured multiply cost table and nearest-probe runtime extrapolation."""

from __future__ import annotations

import statistics
import time
from typing import Optional, Sequence

import numpy as np

from .core import CountMatrix, multiply_counts

FORMAT_VERSION = "mmjoin-calibration v1"
DEFAULT_PROBE_DIMS = (128, 256, 512, 1024)


class CalibrationError(RuntimeError):
    pass


class CalibrationTable:
    """Maps (probe dim p, cores co) -> measured nanos for a p^3 multiply."""

    def __init__(self, entries: Optional[dict] = None):
        self.entries: dict[tuple[int, int], int] = dict(entries or {})

    def __len__(self):
        return len(self.entries)

    def dims_for(self, co: int) -> list[int]:
        return sorted(p for p, c in self.entries if c == co)

    def cores_available(self) -> list[int]:
        return sorted({c for _, c in self.entries})

    def regularize(self) -> None:
        """Force nanos nondecreasing in p for every fixed core count."""
        for co in self.cores_available():
            best = 0
            for p in self.dims_for(co):
                best = max(best, self.entries[(p, co)])
                self.entries[(p, co)] = best

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {FORMAT_VERSION}\n")
            for (p, co), nanos in sorted(self.entries.items()):
                f.write(f"{p}\t{co}\t{nanos}\n")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        entries = {}
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if FORMAT_VERSION not in header:
                raise CalibrationError(f"unrecognized calibration file {path}")
            for line in f:
                line = line.strip()
                if not line:
                    continue
                p, co, nanos = line.split("\t")
                entries[(int(p), int(co))] = int(nanos)
        return cls(entries)


def calibrate(probe_dims: Sequence[int] = DEFAULT_PROBE_DIMS,
              cores: Sequence[int] = (1,), seed: int = 0,
              runs: int = 3) -> CalibrationTable:
    """Time multiply_counts on random 0/1 square matrices per probe dim.

    The probes are uint8, the format the join operators pass, so the table
    times the multiply path those operators take. Matrices are deterministic
    per seed; the recorded time is the median of `runs` >= 3 repetitions,
    then regularized to be monotone in p.
    """
    runs = max(runs, 3)
    table = CalibrationTable()
    for p in probe_dims:
        rng = np.random.default_rng(seed + p)
        try:
            a = CountMatrix((rng.random((p, p)) < 0.5).astype(np.uint8))
            b = CountMatrix((rng.random((p, p)) < 0.5).astype(np.uint8))
        except MemoryError as exc:
            raise CalibrationError(f"cannot allocate {p}x{p} probes") from exc
        for co in cores:
            samples = []
            for _ in range(runs):
                t0 = time.perf_counter_ns()
                multiply_counts(a, b, cores=co)
                samples.append(time.perf_counter_ns() - t0)
            table.entries[(p, co)] = int(statistics.median(samples))
    table.regularize()
    return table


def estimate_runtime(table: CalibrationTable, u: int, v: int, w: int,
                     co: int = 1) -> float:
    """Nanos estimate: nearest probe entry scaled by the volume ratio u*v*w/p^3."""
    if not table.entries:
        raise CalibrationError("calibration table is empty; run calibrate first")
    cores = table.cores_available()
    co = min(cores, key=lambda c: (abs(c - co), c))
    dims = table.dims_for(co)
    target = (u * v * w) ** (1.0 / 3.0)
    p = min(dims, key=lambda d: (abs(d - target), d))
    return table.entries[(p, co)] * (u * v * w) / (p ** 3)
