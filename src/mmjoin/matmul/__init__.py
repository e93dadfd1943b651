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
]
