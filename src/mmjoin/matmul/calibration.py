"""Measured multiply cost table and the price per multiply-add fitted to it."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError
from .core import CountMatrix, multiply_counts

FORMAT_VERSION = "mmjoin-calibration v1"
# the sizes of the products the split multiplies (see calibrate); 32 and 64
# price the small ones, whose fixed part dominates
DEFAULT_PROBE_DIMS = (32, 64, 128, 256)


class CalibrationError(DataError, RuntimeError):
    pass


class CalibrationTable:
    """Maps probe dim p -> measured nanos for a p^3 multiply.

    The file format keeps a core-count column between p and nanos. It is
    written as 1; a file with several core counts is read at the smallest.
    """

    def __init__(self, entries: Optional[dict] = None):
        self.entries: dict[int, int] = dict(entries or {})

    def __len__(self):
        return len(self.entries)

    @property
    def ns_per_madd(self) -> float:
        """Nanos per multiply-add: the slope b of the least-squares line
        nanos = a + b * p^3 over the probes, never below 0, in exact
        integers. The intercept a is a product's fixed part, which the
        planner prices on its own (optimizer._NS_PER_BLOCK), so small
        probes do not charge it per multiply-add. One probe fixes no line:
        its nanos over its p^3."""
        if not self.entries:
            raise CalibrationError("calibration table is empty; run calibrate first")
        if len(self.entries) == 1:
            [(p, nanos)] = self.entries.items()
            return nanos / p ** 3
        xs = [p ** 3 for p in self.entries]
        ys = list(self.entries.values())
        n = len(xs)
        covariance = n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
        slope = Fraction(covariance, n * sum(x * x for x in xs) - sum(xs) ** 2)
        return float(max(slope, 0))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {FORMAT_VERSION}\n")
            for p, nanos in sorted(self.entries.items()):
                f.write(f"{p}\t1\t{nanos}\n")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        by_co: dict[int, dict[int, int]] = {}
        # undecodable bytes fail the header or row checks below
        with open(path, encoding="utf-8", errors="replace") as f:
            header = f.readline().strip()
            if FORMAT_VERSION not in header:
                raise CalibrationError(f"unrecognized calibration file {path}")
            for line_no, line in enumerate(f, start=2):
                fields = line.strip().split("\t")
                if fields == [""]:
                    continue
                where = f"{path}, line {line_no}"
                try:
                    p, co, nanos = map(int, fields)
                except ValueError:
                    raise CalibrationError(
                        f"{where}: expected 3 tab-separated integers, "
                        f"got {line.strip()!r}") from None
                if p < 1:
                    raise CalibrationError(f"{where}: probe dim {p} is below 1")
                if nanos < 0:
                    raise CalibrationError(f"{where}: negative nanos {nanos}")
                by_co.setdefault(co, {})[p] = nanos
        if not by_co:
            raise CalibrationError(f"{path}: no rows in calibration table")
        return cls(by_co[min(by_co)])


def calibrate(probe_dims: Sequence[int] = DEFAULT_PROBE_DIMS,
              seed: int = 0) -> CalibrationTable:
    """Time multiply_counts on random 0/1 square matrices per probe dim, on
    one thread: the planner divides a product's multiply-adds over the
    threads it gets, so the price per multiply-add is one thread's.

    The default dims are the sizes of the products the two-path split
    multiplies, one per witness component (32 to 256 a side); the planner
    prices every product by the table's ns_per_madd. The probes are drawn
    as uint8, the format the join operators pass, so the table times the
    multiply path those operators take. Matrices are deterministic per
    seed; the recorded time is the median of three repetitions.
    """
    table = CalibrationTable()
    for p in probe_dims:
        rng = np.random.default_rng(seed + p)
        try:
            a, b = (CountMatrix(rng.integers(0, 2, (p, p), dtype=np.uint8))
                    for _ in range(2))
        except MemoryError as exc:
            raise CalibrationError(f"cannot allocate {p}x{p} probes") from exc
        samples = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            multiply_counts(a, b, workers=1)
            samples.append(time.perf_counter_ns() - t0)
        table.entries[p] = int(statistics.median(samples))
    return table
