import csv

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    canon_pair,
    oracle_ssj,
    oracle_two_path,
    random_family,
    random_pairs,
)
from mmjoin.cli import CSV_HEADER, main


@pytest.fixture
def runner():
    return CliRunner()


def _write_pairs(path, pairs):
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs))


def _write_family(path, fam):
    path.write_text("".join(f"{sid} {e}\n"
                            for sid, elems in fam.items() for e in elems))


def test_gen_prints_seed_and_is_deterministic(tmp_path, runner):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        res = runner.invoke(main, ["gen", "--kind", "community", "--nodes",
                                   "30", "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0
        assert "seed=5" in res.output
    assert out1.read_text() == out2.read_text()


def test_twopath_matches_oracle(tmp_path, runner):
    rng = np.random.default_rng(0)
    r_pairs = random_pairs(rng, 150, 20, 15)
    s_pairs = random_pairs(rng, 150, 20, 15)
    _write_pairs(tmp_path / "r.txt", r_pairs)
    _write_pairs(tmp_path / "s.txt", s_pairs)
    res = runner.invoke(main, ["twopath", "--left", str(tmp_path / "r.txt"),
                               "--right", str(tmp_path / "s.txt"),
                               "--delta1", "2", "--delta2", "2", "--counts"])
    assert res.exit_code == 0
    got = {}
    for line in res.output.splitlines():
        a, c, cnt = line.split()
        got[(int(a), int(c))] = int(cnt)
    assert got == dict(oracle_two_path(r_pairs, s_pairs))


def test_twopath_auto_plan(tmp_path, runner):
    rng = np.random.default_rng(1)
    pairs = random_pairs(rng, 100, 15, 10)
    _write_pairs(tmp_path / "g.txt", pairs)
    res = runner.invoke(main, ["twopath", "--left", str(tmp_path / "g.txt"),
                               "--right", str(tmp_path / "g.txt"),
                               "--auto-plan"])
    assert res.exit_code == 0
    expected = set(oracle_two_path(pairs, pairs))
    assert len(res.output.splitlines()) == len(expected)


def test_star_cli(tmp_path, runner):
    rng = np.random.default_rng(2)
    pairs = random_pairs(rng, 80, 10, 8)
    _write_pairs(tmp_path / "g.txt", pairs)
    res = runner.invoke(main, ["star", "--input", str(tmp_path / "g.txt"),
                               "--input", str(tmp_path / "g.txt"),
                               "--delta1", "2", "--delta2", "2"])
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == len(oracle_two_path(pairs, pairs))


def test_ssj_methods_cli(tmp_path, runner):
    rng = np.random.default_rng(3)
    fam = random_family(rng, 25, 20, 8)
    _write_family(tmp_path / "f.txt", fam)
    oracle = oracle_ssj(fam, 2)
    base = ["ssj", "--sets", str(tmp_path / "f.txt"), "--c", "2"]
    res = runner.invoke(main, base + ["--method", "mmjoin"])
    assert res.exit_code == 0
    got = {}
    for line in res.output.splitlines():
        a, b, cnt = line.split()
        got[canon_pair(a, b)] = int(cnt)
    assert got == oracle
    res = runner.invoke(main, base + ["--method", "sizeaware"])
    pairs = {canon_pair(*line.split()) for line in res.output.splitlines()}
    assert pairs == set(oracle)
    res = runner.invoke(main, base + ["--method", "sizeaware-pp"])
    assert res.exit_code == 0
    assert res.output.splitlines()[0].startswith("# merge_ops=")
    res = runner.invoke(main, base + ["--method", "ordered"])
    counts = [int(line.split()[2]) for line in res.output.splitlines()]
    assert counts == sorted(counts, reverse=True)


def test_ssj_mmjoin_cli_pairs_in_file_order(tmp_path, runner):
    fam = {"zeta": [1, 2, 3], "alpha": [2, 3, 4], "mid": [3, 4, 1]}
    _write_family(tmp_path / "f.txt", fam)
    res = runner.invoke(main, ["ssj", "--sets", str(tmp_path / "f.txt"),
                               "--c", "2", "--method", "mmjoin"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["alpha mid 2", "zeta alpha 2",
                                       "zeta mid 2"]


def test_scj_cli(tmp_path, runner):
    fam = {"a": [1, 2], "b": [1, 2, 3], "c": [9]}
    _write_family(tmp_path / "f.txt", fam)
    res = runner.invoke(main, ["scj", "--sets", str(tmp_path / "f.txt")])
    assert res.exit_code == 0
    assert res.output.strip() == "a b"


def test_bsi_cli(tmp_path, runner):
    rng = np.random.default_rng(4)
    pairs = random_pairs(rng, 100, 15, 10)
    _write_pairs(tmp_path / "g.txt", pairs)
    wl = tmp_path / "wl.txt"
    wl.write_text("".join(f"{int(a)} {int(b)} {i * 500}\n"
                          for i, (a, b) in
                          enumerate(rng.integers(0, 15, (30, 2)))))
    res = runner.invoke(main, ["bsi", "--left", str(tmp_path / "g.txt"),
                               "--right", str(tmp_path / "g.txt"),
                               "--workload", str(wl), "--rate", "1000",
                               "--batch-size", "10"])
    assert res.exit_code == 0
    assert "batch_size=10" in res.output
    assert "average_delay_s=" in res.output
    assert "implied_units=" in res.output


def test_calibrate_env_var(tmp_path, runner, monkeypatch):
    target = tmp_path / "cal.tsv"
    monkeypatch.setenv("MMJOIN_CALIBRATION", str(target))
    res = runner.invoke(main, ["calibrate", "--dims", "16,32"])
    assert res.exit_code == 0
    assert "seed=0" in res.output
    assert target.read_text().startswith("# mmjoin-calibration v1")


def test_bench_and_report(tmp_path, runner):
    out_csv = tmp_path / "out.csv"
    res = runner.invoke(main, ["bench", "twopath", "--n", "1e4",
                               "--csv", str(out_csv), "--seed", "7"])
    assert res.exit_code == 0, res.output
    with open(out_csv, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_HEADER
    methods = {row[2] for row in rows[1:]}
    assert methods == {"mmjoin", "fulljoin"}
    # equal output sizes across methods
    assert len({row[4] for row in rows[1:]}) == 1
    res = runner.invoke(main, ["report", "--csv", str(out_csv)])
    assert res.exit_code == 0
    assert "speedup=" in res.output


def test_report_empty_csv(tmp_path, runner):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_HEADER) + "\n")
    res = runner.invoke(main, ["report", "--csv", str(empty)])
    assert res.exit_code == 0
    assert "no records" in res.output


def test_report_malformed_csv(tmp_path, runner):
    bad = tmp_path / "bad.csv"
    bad.write_text("just,some,columns\n1,2,3\n")
    res = runner.invoke(main, ["report", "--csv", str(bad)])
    assert res.exit_code == 1


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["twopath"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2


def test_data_error_exit_code(tmp_path, runner):
    bad = tmp_path / "bad.txt"
    bad.write_text("only_one_token\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("1 2\n")
    res = runner.invoke(main, ["twopath", "--left", str(bad),
                               "--right", str(ok)])
    assert res.exit_code == 1


@pytest.mark.parametrize("bad_line", ["1 3 x", "1 3", "1 3 5 7"])
def test_bsi_workload_data_error_exit_code(tmp_path, runner, bad_line):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    wl = tmp_path / "wl.txt"
    wl.write_text(f"# a b micros\n1 3 0\n{bad_line}\n")
    res = runner.invoke(main, ["bsi", "--left", str(graph), "--right",
                               str(graph), "--workload", str(wl),
                               "--rate", "1000", "--batch-size", "2"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "line 3" in res.output


def test_check_commands(tmp_path, runner):
    res = runner.invoke(main, ["check", "twopath", "--seed", "3",
                               "--n", "500"])
    assert res.exit_code == 0
    assert "seed=3" in res.output and "OK" in res.output
    res = runner.invoke(main, ["check", "ssj", "--seed", "5", "--c", "2"])
    assert res.exit_code == 0 and "OK" in res.output
