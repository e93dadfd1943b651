from .core import (
    INT_BACKEND,
    CountMatrix,
    MatrixOverflowError,
    gram_blocks,
    gram_cuts,
    gram_entries,
    gram_upper,
    gram_workers,
    multiply_counts,
)
from .calibration import (
    CalibrationError,
    CalibrationTable,
    DEFAULT_PROBE_DIMS,
    calibrate,
)

__all__ = [
    "INT_BACKEND",
    "CountMatrix",
    "MatrixOverflowError",
    "gram_blocks",
    "gram_cuts",
    "gram_entries",
    "gram_upper",
    "gram_workers",
    "multiply_counts",
    "CalibrationError",
    "CalibrationTable",
    "DEFAULT_PROBE_DIMS",
    "calibrate",
]
