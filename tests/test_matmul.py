import numpy as np
import pytest

from conftest import triple_loop_matmul
from mmjoin.matmul import (
    CalibrationError,
    CalibrationTable,
    CountMatrix,
    MatrixOverflowError,
    calibrate,
    estimate_runtime,
    identity,
    multiply_counts,
    theoretical_cost,
)
from mmjoin.matmul import core


def _random_mats(rng, u, v, w, hi=5):
    a = CountMatrix(rng.integers(0, hi, (u, v)).astype(np.int64))
    b = CountMatrix(rng.integers(0, hi, (v, w)).astype(np.int64))
    return a, b


@pytest.mark.parametrize("backend", ["auto", "blas", "cython", "numpy"])
def test_product_matches_triple_loop(backend):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v, w = rng.integers(1, 40, 3)
        a, b = _random_mats(rng, u, v, w)
        got = multiply_counts(a, b, backend=backend)
        assert np.array_equal(got.data, triple_loop_matmul(a.data, b.data))
    # uint8 0/1 operands, the format the join operators pass
    for _ in range(10):
        u, v, w = rng.integers(1, 40, 3)
        a = CountMatrix(rng.integers(0, 2, (u, v), dtype=np.uint8))
        b = CountMatrix(rng.integers(0, 2, (v, w), dtype=np.uint8))
        got = multiply_counts(a, b, backend=backend)
        assert got.data.dtype == np.int64
        assert np.array_equal(got.data, triple_loop_matmul(a.data, b.data))
    # all ones over 300 inner values: a uint8 accumulator would give 44
    a = CountMatrix(np.ones((2, 300), dtype=np.uint8))
    b = CountMatrix(np.ones((300, 3), dtype=np.uint8))
    got = multiply_counts(a, b, backend=backend)
    assert np.array_equal(got.data, np.full((2, 3), 300))


@pytest.mark.parametrize("backend", ["auto", "blas"])
def test_float_ladder_boundaries(backend):
    cases = [
        ([[4096]], [[4096]], 2 ** 24),  # largest bound routed to float32
        ([[4097]], [[4097]], 16_785_409),  # float32 would give 16,785,408
        # odd sum crossing 2^24: exact in float64, rounded in float32
        ([[4095, 4095, 1]], [[4097], [4097], [1]], 33_554_431),
    ]
    for a, b, want in cases:
        got = multiply_counts(CountMatrix(np.array(a)), CountMatrix(np.array(b)),
                              backend=backend)
        assert got.data.dtype == np.int64
        assert got.data.tolist() == [[want]]


def test_count_matrix_operand_dtypes():
    assert CountMatrix(np.ones((2, 2), dtype=np.uint8)).data.dtype == np.uint8
    assert CountMatrix(np.ones((2, 2), dtype=bool)).data.dtype == np.uint8
    assert CountMatrix(np.ones((2, 2), dtype=np.int32)).data.dtype == np.int64
    with pytest.raises(ValueError):
        CountMatrix(np.array([[1, -1]], dtype=np.int8))


def test_backends_agree_on_large_entries():
    rng = np.random.default_rng(8)
    a, b = _random_mats(rng, 30, 30, 30, hi=10 ** 6)
    ref = triple_loop_matmul(a.data, b.data)
    for backend in ("auto", "cython", "numpy"):
        assert np.array_equal(multiply_counts(a, b, backend=backend).data, ref)


def test_deterministic_across_cores():
    rng = np.random.default_rng(9)
    a, b = _random_mats(rng, 64, 50, 37)
    ref = multiply_counts(a, b, cores=1, backend=core.INT_BACKEND).data
    for cores in (2, 3, 4):
        got = multiply_counts(a, b, cores=cores, backend=core.INT_BACKEND).data
        assert np.array_equal(got, ref)


def test_identity_and_keys():
    rng = np.random.default_rng(3)
    a = CountMatrix(rng.integers(0, 4, (6, 6)).astype(np.int64),
                    row_keys=np.arange(10, 16), col_keys=np.arange(6))
    out = multiply_counts(a, identity(6))
    assert np.array_equal(out.data, a.data)
    assert np.array_equal(out.row_keys, a.row_keys)


def test_dimension_mismatch():
    a = CountMatrix(np.ones((2, 3), dtype=np.int64))
    b = CountMatrix(np.ones((4, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        multiply_counts(a, b)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        CountMatrix(np.array([[1, -1]], dtype=np.int64))


def test_overflow_detection():
    big = np.array([[2 ** 62]], dtype=np.int64)
    m = CountMatrix(big)
    with pytest.raises(MatrixOverflowError):
        multiply_counts(m, m)


def test_blas_backend_refuses_inexact_range():
    v = np.array([[2 ** 31]], dtype=np.int64)
    m = CountMatrix(v)
    with pytest.raises(MatrixOverflowError):
        multiply_counts(m, m, backend="blas")
    # the int64 paths still handle it exactly
    assert multiply_counts(m, m, backend="numpy").data[0, 0] == 2 ** 62


def test_unknown_backend():
    a = CountMatrix(np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        multiply_counts(a, a, backend="fortran")


def test_theoretical_cost():
    assert theoretical_cost(10, 20, 30) == 10 * 20 * 30
    assert theoretical_cost(10, 20, 30, omega=2.0) == pytest.approx(
        10 * 20 * 30 / 10)
    with pytest.raises(ValueError):
        theoretical_cost(0, 1, 1)
    with pytest.raises(ValueError):
        theoretical_cost(1, 1, 1, omega=4.0)


def test_calibration_roundtrip(tmp_path):
    table = calibrate([16, 32], cores=[1], seed=0)
    assert set(table.entries) == {(16, 1), (32, 1)}
    # monotone in p after regularization
    assert table.entries[(16, 1)] <= table.entries[(32, 1)]
    path = tmp_path / "cal.tsv"
    table.save(path)
    text = path.read_text()
    assert text.startswith("# mmjoin-calibration v1\n")
    loaded = CalibrationTable.load(path)
    assert loaded.entries == table.entries


def test_calibration_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a calibration file\n")
    with pytest.raises(CalibrationError):
        CalibrationTable.load(path)


def test_estimate_runtime_nearest_probe():
    table = CalibrationTable({(100, 1): 1_000_000, (200, 1): 9_000_000,
                              (100, 2): 600_000})
    # exact probe hit
    assert estimate_runtime(table, 100, 100, 100, 1) == 1_000_000
    # volume scaling from the nearest probe
    assert estimate_runtime(table, 200, 200, 200, 1) == 9_000_000
    est = estimate_runtime(table, 50, 100, 200, 1)
    assert est == pytest.approx(1_000_000 * (50 * 100 * 200) / 100 ** 3)
    # equidistant probe tie resolves to the smaller dimension
    assert estimate_runtime(table, 150, 150, 150, 1) == pytest.approx(
        1_000_000 * 150 ** 3 / 100 ** 3)
    # nearest core count
    assert estimate_runtime(table, 100, 100, 100, 5) == 600_000


def test_estimate_runtime_empty_table():
    with pytest.raises(CalibrationError):
        estimate_runtime(CalibrationTable(), 10, 10, 10, 1)


def test_env_backend_override(monkeypatch):
    import importlib

    monkeypatch.setenv("MMJOIN_BACKEND", "numpy")
    importlib.reload(core)
    try:
        assert core.INT_BACKEND == "numpy"
    finally:
        monkeypatch.delenv("MMJOIN_BACKEND")
        importlib.reload(core)
