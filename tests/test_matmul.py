import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mmjoin

from conftest import triple_loop_matmul
from mmjoin.matmul import (
    DEFAULT_PROBE_DIMS,
    CalibrationError,
    CalibrationTable,
    CountMatrix,
    MatrixOverflowError,
    calibrate,
    calibration,
    multiply_counts,
)


def _random_mats(rng, u, v, w, hi=5):
    a = CountMatrix(rng.integers(0, hi, (u, v)).astype(np.int64))
    b = CountMatrix(rng.integers(0, hi, (v, w)).astype(np.int64))
    return a, b


def test_product_matches_triple_loop():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v, w = rng.integers(1, 40, 3)
        a, b = _random_mats(rng, u, v, w)
        expected = triple_loop_matmul(a.data, b.data)
        got = multiply_counts(a, b)
        assert np.array_equal(got.data, expected)
        # operands scaled by 2^26 + 1 put the bound past 2^53 and below 2^63,
        # so the same triple runs in the int64 tier; float64 would round
        # these sums, which a power-of-two scale would not show
        scale = 2 ** 26 + 1
        got = multiply_counts(CountMatrix(a.data * scale),
                              CountMatrix(b.data * scale))
        assert np.array_equal(got.data, expected * scale ** 2)
    # uint8 0/1 operands, the format the join operators pass
    for _ in range(10):
        u, v, w = rng.integers(1, 40, 3)
        a = CountMatrix(rng.integers(0, 2, (u, v), dtype=np.uint8))
        b = CountMatrix(rng.integers(0, 2, (v, w), dtype=np.uint8))
        got = multiply_counts(a, b)
        assert got.data.dtype == np.int64
        assert np.array_equal(got.data, triple_loop_matmul(a.data, b.data))
    # all ones over 300 inner values: a uint8 accumulator would give 44
    a = CountMatrix(np.ones((2, 300), dtype=np.uint8))
    b = CountMatrix(np.ones((300, 3), dtype=np.uint8))
    got = multiply_counts(a, b)
    assert np.array_equal(got.data, np.full((2, 3), 300))


def test_float_ladder_boundaries():
    cases = [
        ([[4096]], [[4096]], 2 ** 24),  # largest bound routed to float32
        ([[4097]], [[4097]], 16_785_409),  # float32 would give 16,785,408
        # odd sum crossing 2^24: exact in float64, rounded in float32
        ([[4095, 4095, 1]], [[4097], [4097], [1]], 33_554_431),
        ([[2 ** 26]], [[2 ** 27]], 2 ** 53),  # largest bound routed to float64
        # odd and past 2^53: exact in int64, rounded in float64
        ([[2 ** 27 + 1]], [[2 ** 26 + 1]], 9_007_199_456_067_585),
        ([[2 ** 31]], [[2 ** 31]], 2 ** 62),
        ([[2 ** 63 - 1]], [[1]], 2 ** 63 - 1),  # largest bound int64 takes
    ]
    for a, b, want in cases:
        got = multiply_counts(CountMatrix(np.array(a)), CountMatrix(np.array(b)))
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
    assert np.array_equal(multiply_counts(a, b).data, ref)


def test_identity_and_keys():
    rng = np.random.default_rng(3)
    a = CountMatrix(rng.integers(0, 4, (6, 6)).astype(np.int64),
                    row_keys=np.arange(10, 16), col_keys=np.arange(6))
    out = multiply_counts(a, CountMatrix(np.eye(6, dtype=np.int64)))
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


def test_calibration_roundtrip(tmp_path):
    table = calibrate([16, 32], seed=0)
    assert set(table.entries) == {16, 32}
    path = tmp_path / "cal.tsv"
    table.save(path)
    text = path.read_text()
    assert text.startswith("# mmjoin-calibration v1\n")
    loaded = CalibrationTable.load(path)
    assert loaded.entries == table.entries


def test_calibrate_times_the_default_probes_as_uint8_0_1_squares(
        monkeypatch):
    """calibrate() times one p x p uint8 0/1 product per default probe dim
    p, through multiply_counts, and its table fits a positive price."""
    seen = []

    def checked(a, b):
        for m in (a, b):
            assert m.data.dtype == np.uint8
            assert m.data.shape == (a.rows, a.rows)
            assert m.data.max() <= 1
        seen.append(a.rows)
        return multiply_counts(a, b)

    monkeypatch.setattr(calibration, "multiply_counts", checked)
    table = calibrate()
    assert sorted(set(seen)) == sorted(DEFAULT_PROBE_DIMS)
    assert list(table.entries) == list(DEFAULT_PROBE_DIMS)
    assert table.ns_per_madd > 0


def test_calibration_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("not a calibration file\n")
    with pytest.raises(CalibrationError):
        CalibrationTable.load(path)
    for row in ("16\t1", "16\t1\t5\t7", "16\t1\tabc", "1.5\t1\t5",
                "0\t1\t5", "-4\t1\t5", "16\t1\t-1"):
        path.write_text(f"# mmjoin-calibration v1\n16\t1\t9\n\n{row}\n")
        with pytest.raises(CalibrationError, match=re.escape(f"{path}, line 4: ")):
            CalibrationTable.load(path)


def test_ns_per_madd_fits_a_line_through_the_origin():
    # nanos = p^3 / 10 on every probe: exactly 0.1 ns per multiply-add
    table = CalibrationTable({p: p ** 3 // 10 for p in (10, 20, 40, 80)})
    assert table.ns_per_madd == 0.1
    # one probe is enough: its nanos over its multiply-adds
    assert CalibrationTable({64: 36_318}).ns_per_madd == 36_318 / 64 ** 3
    # sum p^3 * nanos / sum p^6, weighted to the largest probe
    table = CalibrationTable({1: 5, 2: 0})
    assert table.ns_per_madd == 5 / 65


def test_ns_per_madd_of_a_non_monotone_file_is_not_negative(tmp_path):
    # the small probe timed slower than the large ones, and one at 0 nanos
    path = tmp_path / "cal.tsv"
    path.write_text("# mmjoin-calibration v1\n"
                    "32\t1\t48232\n64\t1\t34128\n128\t1\t0\n"
                    "256\t1\t652045\n")
    price = CalibrationTable.load(path).ns_per_madd
    assert price >= 0
    assert price == pytest.approx(
        (32 ** 3 * 48232 + 64 ** 3 * 34128 + 256 ** 3 * 652045)
        / (32 ** 6 + 64 ** 6 + 128 ** 6 + 256 ** 6))


def test_ns_per_madd_of_an_empty_table():
    with pytest.raises(CalibrationError, match="empty"):
        CalibrationTable().ns_per_madd


# the thread count of numpy's bundled OpenBLAS, 0 for another BLAS
_READ_BLAS_THREADS = """
import ctypes, glob, os
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
get = getattr(ctypes.CDLL(libs[0]) if libs else None,
              "scipy_openblas_get_num_threads64_", None)
print(get() if get else 0)
"""


@pytest.mark.parametrize("imports, env, want", [
    ("numpy, mmjoin", {}, 1),
    ("mmjoin, numpy", {}, 1),
    ("numpy, mmjoin", {"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_blas_threads_whatever_the_import_order(imports, env, want):
    """numpy's bundled OpenBLAS runs one thread after mmjoin is imported,
    before or after numpy, and a count the caller set is kept. OpenBLAS
    runs at most one thread per CPU it may use."""
    src = os.path.dirname(os.path.dirname(mmjoin.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, "-c", f"import {imports}\n" + _READ_BLAS_THREADS],
        env={**base, **env, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    if int(out) == 0:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    assert int(out) == min(want, len(os.sched_getaffinity(0)))
