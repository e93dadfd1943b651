import io

import numpy as np
import pytest

from mmjoin.matmul import CalibrationError, CalibrationTable
from mmjoin import optimizer as opt
from mmjoin.relation import (
    build_indexed,
    generate_community_graph,
    parse_edge_list,
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


def _sets_family(n_sets, universe, max_size, seed):
    """The set family `mmjoin gen --kind sets` writes, indexed."""
    rng = np.random.default_rng(seed)
    lines = []
    for a in range(n_sets):
        size = int(rng.integers(1, max_size + 1))
        elems = rng.choice(universe, size=min(size, universe), replace=False)
        lines.extend(f"s{a} e{e}" for e in elems)
    return build_indexed(parse_edge_list(io.StringIO("\n".join(lines))))


def test_sets_family_plans_all_light():
    # 1000 sets of 1-40 over 500 elements: every heavy plan multiplies a
    # ~1000 x 500 V by its transpose for output the full join writes anyway
    idx = _sets_family(1000, 500, 40, 7)
    plan = opt.default_plan(idx, idx)
    assert plan.strategy == opt.FULL_JOIN
    assert plan.heavy_cost == 0.0
    assert plan.delta1 > idx.right_deg.max()


def test_community_plans_all_heavy():
    # 600 nodes in 3 communities of 200: the full join writes ~160 codes
    # per output pair, the all-heavy products none, one per community
    idx = build_indexed(generate_community_graph(600, 3, 0.9, seed=1))
    for plan in (opt.default_plan(idx, idx),
                 opt.optimize_thresholds(idx, idx, _synthetic_table())):
        assert plan.strategy == opt.PARTITIONED
        assert plan.delta1 < idx.right_deg.min()
        assert plan.delta2 < idx.left_deg.min()
        sizes = opt.price_plan([idx, idx], 2, None, np.array([plan.delta1]),
                               np.array([plan.delta2])).sizes
        assert sizes.light[0, 0] == 0 and sizes.blocks[0, 0] == 3
        assert plan.heavy_cost > 0


def test_optimize_requires_a_table():
    rng = np.random.default_rng(2)
    r, s = reduced_indexed(random_pairs(rng, 200, 20, 10),
                           random_pairs(rng, 200, 20, 10))
    for table in (None, CalibrationTable()):
        with pytest.raises(CalibrationError):
            opt.optimize_thresholds(r, s, table)


def _assert_argmin_of_grid(idx, table):
    grid = opt.price_plan([idx, idx], 2, table)
    # powers of two up to the first past every degree
    for deltas, deg in ((grid.delta1s, idx.right_deg),
                        (grid.delta2s, idx.left_deg)):
        assert deltas.tolist() == [2 ** e for e in range(len(deltas))]
        assert deltas[-2] <= deg.max() < deltas[-1]
    plan = (opt.default_plan(idx, idx) if table is None
            else opt.optimize_thresholds(idx, idx, table))
    i = grid.delta1s.tolist().index(plan.delta1)
    j = grid.delta2s.tolist().index(plan.delta2)
    assert plan.total_cost == grid.cost[i, j] == grid.cost.min()
    # priced again on its own, the plan costs what the grid said
    again = opt.price_plan([idx, idx], 2, table, np.array([plan.delta1]),
                           np.array([plan.delta2]))
    assert again.cost[0, 0] == plan.total_cost
    return plan, grid


def test_optimize_thresholds_iteration_bound_and_quality():
    rel = generate_community_graph(210, 3, 0.85, seed=4)
    idx = build_indexed(rel)
    plan, grid = _assert_argmin_of_grid(idx, _synthetic_table())
    assert plan.strategy == opt.PARTITIONED
    # one candidate per pair of powers of two up to the largest degree
    top = int(max(idx.left_deg.max(), idx.right_deg.max()))
    assert plan.iterations == grid.cost.size <= (top.bit_length() + 1) ** 2


def test_default_plan_is_the_argmin_of_its_grid():
    rng = np.random.default_rng(8)
    r, _ = reduced_indexed(random_pairs(rng, 400, 40, 30),
                           random_pairs(rng, 400, 40, 30))
    for idx in (r, build_indexed(generate_community_graph(210, 3, 0.85, 4))):
        _assert_argmin_of_grid(idx, None)


def test_all_light_row_has_no_heavy_cost():
    rng = np.random.default_rng(3)
    r, s = reduced_indexed(random_pairs(rng, 100, 20, 10),
                           random_pairs(rng, 100, 20, 10))
    grid = opt.price_plan([r, s], 2, _synthetic_table())
    assert (grid.heavy_cost[-1] == 0.0).all()
    assert (grid.sizes.light[-1] == r.out_join_with(s)).all()
    assert (grid.light_cost[-1] > 0).all()
    assert grid.plan(partitioned=True).strategy == opt.PARTITIONED


def test_default_plan():
    rng = np.random.default_rng(5)
    r, s = reduced_indexed(random_pairs(rng, 100, 30, 30),
                           random_pairs(rng, 100, 30, 30))
    plan = opt.default_plan(r, s)
    assert plan.delta1 >= 1 and plan.delta2 >= 1
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
    # every co = 1 row is 0.1 ns per multiply-add
    assert table.ns_per_madd == 0.1
    rel = generate_community_graph(210, 3, 0.85, seed=4)
    idx = build_indexed(rel)
    plan = opt.optimize_thresholds(idx, idx, table)
    assert plan == opt.optimize_thresholds(idx, idx, CalibrationTable(
        {100: 100_000, 200: 800_000, 400: 6_400_000}))
    assert (plan.strategy, plan.delta1, plan.delta2) == (opt.PARTITIONED, 1, 1)
    co2 = CalibrationTable({50: 10, 100: 600, 200: 5000, 400: 40000})
    assert opt.optimize_thresholds(idx, idx, co2).heavy_cost < plan.heavy_cost


def test_table_prices_the_multiply_per_madd(monkeypatch):
    """With a table, the heavy cost is the built-in parts plus the table's
    ns_per_madd times each candidate's multiply-adds."""
    idx = build_indexed(generate_community_graph(210, 3, 0.85, seed=4))
    table = CalibrationTable({32: 9_000, 64: 40_000, 128: 90_000})
    monkeypatch.setattr(opt, "_NS_PER_MADD", 0.0)
    built_in = opt.price_plan([idx, idx], 2)
    priced = opt.price_plan([idx, idx], 2, table)
    assert (priced.sizes.madds > 0).any()
    assert np.array_equal(priced.light_cost, built_in.light_cost)
    assert np.array_equal(priced.heavy_cost, built_in.heavy_cost
                          + table.ns_per_madd * priced.sizes.madds)
