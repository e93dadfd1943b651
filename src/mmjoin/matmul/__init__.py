from .core import (
    INT_BACKEND,
    CountMatrix,
    MatrixOverflowError,
    multiply_counts,
)
from .calibration import (
    CalibrationError,
    CalibrationTable,
    DEFAULT_PROBE_DIMS,
    calibrate,
    estimate_runtime,
)

__all__ = [
    "INT_BACKEND",
    "CountMatrix",
    "MatrixOverflowError",
    "multiply_counts",
    "CalibrationError",
    "CalibrationTable",
    "DEFAULT_PROBE_DIMS",
    "calibrate",
    "estimate_runtime",
]
