import math

import numpy as np
import pytest

from mmjoin.matmul import CalibrationError, CalibrationTable, estimate_runtime
from mmjoin import optimizer as opt
from mmjoin.relation import (
    build_indexed,
    degree_stats,
    generate_community_graph,
)
from conftest import random_pairs, reduced_indexed


def _synthetic_table():
    # 1 us per 100^3 volume, monotone
    return CalibrationTable({100: 1_000, 200: 8_000, 400: 64_000})


def test_estimate_output_size_zero_cases():
    assert opt.estimate_output_size(0, 100, 10) == 0
    assert opt.estimate_output_size(50, 0, 10) == 0


def test_estimate_output_size_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        dom_x = int(rng.integers(1, 200))
        n = int(rng.integers(1, 5000))
        out_join = int(rng.integers(1, 10 ** 6))
        est = opt.estimate_output_size(dom_x, out_join, n)
        lower = max(dom_x, (out_join / n) ** 2)
        upper = min(dom_x * dom_x, out_join)
        if upper >= lower:
            assert lower * 0.999 <= est or est == upper
            assert est <= upper
        assert est >= 1


def test_estimate_output_size_validation():
    with pytest.raises(ValueError):
        opt.estimate_output_size(10, -1, 5)
    with pytest.raises(ValueError):
        opt.estimate_output_size(10, 5, 0)


def test_closed_form_thresholds_boundary_case():
    # out_est == n sits on the case boundary and gives (10, 10) at n=1000
    assert opt.closed_form_thresholds(1000, 1000) == (10, 10)


def test_closed_form_thresholds_large_output():
    n = 1000
    out = 10 ** 6
    d1, d2 = opt.closed_form_thresholds(n, out)
    expected = math.ceil((2 * n * n / (n + out)) ** (1 / 3))
    assert d1 == d2 == max(1, min(expected, n))
    with pytest.raises(ValueError):
        opt.closed_form_thresholds(0, 5)


def test_threshold_plan_tsv_roundtrip():
    plan = opt.ThresholdPlan(opt.PARTITIONED, 7, 9, 12.5, 3.5, 4)
    again = opt.ThresholdPlan.from_tsv_line(plan.to_tsv_line())
    assert again == plan
    assert again.total_cost == 16.0


def test_threshold_plan_validation():
    with pytest.raises(opt.PlanError):
        opt.ThresholdPlan("bogus", 1, 1).validate()
    with pytest.raises(opt.PlanError):
        opt.ThresholdPlan(opt.PARTITIONED, 0, 1).validate()
    opt.ThresholdPlan(opt.FULL_JOIN, 1, 1).validate()


def test_cost_constants():
    opt.DEFAULT_COSTS.validate()
    with pytest.raises(ValueError):
        opt.CostConstants(T_s=0.0).validate()


def test_full_join_cutoff():
    rng = np.random.default_rng(1)
    r, s = reduced_indexed(random_pairs(rng, 200, 50, 50),
                           random_pairs(rng, 200, 50, 50))
    stats_r = degree_stats(r, partner=s)
    stats_s = degree_stats(s)
    n = max(r.n, s.n)
    plan = opt.optimize_thresholds(stats_r, stats_s, r.rel.dom_left, 15 * n)
    assert plan.strategy == opt.FULL_JOIN
    assert plan.iterations == 0


def test_optimize_requires_table_beyond_cutoff():
    rng = np.random.default_rng(2)
    r, s = reduced_indexed(random_pairs(rng, 200, 20, 10),
                           random_pairs(rng, 200, 20, 10))
    stats_r = degree_stats(r, partner=s)
    stats_s = degree_stats(s)
    with pytest.raises(CalibrationError):
        opt.optimize_thresholds(stats_r, stats_s, r.rel.dom_left,
                                100 * max(r.n, s.n))


def test_optimize_thresholds_iteration_bound_and_quality():
    rel = generate_community_graph(210, 3, 0.85, seed=4)
    idx = build_indexed(rel)
    n, out_join = idx.n, idx.out_join_with(idx)
    assert out_join > 20 * n
    stats_r = degree_stats(idx, partner=idx)
    stats_s = degree_stats(idx)
    table = _synthetic_table()
    plan = opt.optimize_thresholds(stats_r, stats_s, rel.dom_left, out_join,
                                   table=table)
    assert plan.strategy == opt.PARTITIONED
    assert plan.iterations <= math.ceil(math.log(n) / math.log(1 / 0.95)) + 1
    out_est = max(1, opt.estimate_output_size(rel.dom_left, out_join, n))
    grid = sorted({int(d) for d in np.geomspace(1, n, 50)})
    best = min(sum(opt.modeled_costs(
        stats_r, stats_s, rel.dom_left, d1,
        max(1, min(n, round(n * d1 / out_est))), opt.DEFAULT_COSTS, table))
        for d1 in grid)
    assert plan.total_cost <= 1.5 * best


def test_modeled_costs_zero_heavy():
    rng = np.random.default_rng(3)
    r, s = reduced_indexed(random_pairs(rng, 100, 20, 10),
                           random_pairs(rng, 100, 20, 10))
    stats_r = degree_stats(r, partner=s)
    stats_s = degree_stats(s)
    big = max(r.n, s.n)
    light, heavy = opt.modeled_costs(stats_r, stats_s, r.rel.dom_left,
                                     big, big, opt.DEFAULT_COSTS,
                                     _synthetic_table())
    assert heavy == 0.0 and light > 0


def test_optimize_step_validation():
    rng = np.random.default_rng(4)
    r, s = reduced_indexed(random_pairs(rng, 50, 10, 5),
                           random_pairs(rng, 50, 10, 5))
    stats = degree_stats(r, partner=s)
    with pytest.raises(ValueError):
        opt.optimize_thresholds(stats, degree_stats(s), r.rel.dom_left, 10,
                                step=1.5)


def test_default_plan():
    rng = np.random.default_rng(5)
    r, s = reduced_indexed(random_pairs(rng, 100, 30, 30),
                           random_pairs(rng, 100, 30, 30))
    plan = opt.default_plan(r, s)
    plan.validate()
    rel = generate_community_graph(120, 3, 0.9, seed=6)
    idx = build_indexed(rel)
    plan = opt.default_plan(idx, idx)
    assert plan.strategy == opt.PARTITIONED
    assert 1 <= plan.delta1 <= idx.n and 1 <= plan.delta2 <= idx.n


def test_old_calibration_file_plans_at_fewest_cores(tmp_path):
    # a file from when calibrate took several core counts: the co = 1 rows
    # are read, the co = 2 rows (and the probe dim only they have) ignored
    path = tmp_path / "old.tsv"
    path.write_text("# mmjoin-calibration v1\n"
                    "50\t2\t10\n100\t2\t600\n100\t1\t100000\n"
                    "200\t1\t800000\n200\t2\t5000\n400\t2\t40000\n"
                    "400\t1\t6400000\n")
    table = CalibrationTable.load(path)
    assert table.entries == {100: 100_000, 200: 800_000, 400: 6_400_000}
    # frozen from the co = 1 column of the same file
    for uvw, nanos in [((50, 50, 50), 12_500.0), ((100, 100, 100), 100_000.0),
                       ((150, 150, 150), 337_500.0), ((30, 200, 900), 540_000.0),
                       ((400, 400, 400), 6_400_000.0)]:
        assert estimate_runtime(table, *uvw) == nanos
    rel = generate_community_graph(210, 3, 0.85, seed=4)
    idx = build_indexed(rel)
    plan = opt.optimize_thresholds(
        degree_stats(idx, partner=idx), degree_stats(idx), rel.dom_left,
        idx.out_join_with(idx), table=table)
    assert plan == opt.ThresholdPlan(opt.PARTITIONED, 51, 51, 78588.0,
                                     3489399.0, 105)
