"""Acceptance suite: eleven end-to-end criteria, one pass/fail line each.

Every expected value is produced by an independent oracle in conftest or is
a frozen constant from the worked examples checked into the fixtures.
"""

import functools
import math
import sys
import time

import numpy as np

from conftest import (
    EXAMPLE_LISTS,
    canon_pair,
    EXAMPLE_R,
    EXAMPLE_S,
    EXAMPLE_SETS,
    decode_two_path,
    decode_two_path_counts,
    oracle_scj,
    oracle_ssj,
    oracle_star,
    oracle_two_path,
    pair_counts,
    pair_set,
    random_family,
    random_pairs,
    raw_pair,
    reduced_indexed,
    split_pair_sets,
    total_count,
    triple_loop_matmul,
    uniform_workload,
    whole_heavy_matrices,
)
from mmjoin import apps
from mmjoin import joinproject as jp
from mmjoin import optimizer as opt
from mmjoin.matmul import CountMatrix, calibrate, multiply_counts
from mmjoin.optimizer import PARTITIONED, ThresholdPlan
from mmjoin.relation import (
    Relation,
    build_indexed,
    generate_community_graph,
    semi_join_reduce_many,
)


def criterion(num, label, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:2d}] {label}: FAIL", file=sys.stderr)
                raise
            elapsed = time.monotonic() - t0
            assert elapsed < budget_s, (
                f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s")
            print(f"[criterion {num:2d}] {label}: PASS ({elapsed:.1f}s)")
        return wrapper
    return deco


@criterion(1, "worked two-path example reproduced exactly", 1.0)
def test_criterion_01_example_reproduction():
    r, s = reduced_indexed(EXAMPLE_R, EXAMPLE_S)
    light_y, light_a, light_c = jp.two_path_split(r, s, 2, 2)
    assert split_pair_sets(r, light_a, light_y)[1] == {
        (4, 4), (4, 6), (5, 4), (5, 5), (5, 6), (6, 4), (6, 5)}
    assert split_pair_sets(s, light_c, light_y)[1] == {
        (4, 4), (4, 5), (5, 4), (5, 5), (5, 6), (6, 5), (6, 6)}
    m1, m2 = whole_heavy_matrices(r, s, 2, 2)
    o1 = np.argsort([r.rel.left_values[i] for i in m1.row_keys])
    om = np.argsort([r.rel.right_values[i] for i in m1.col_keys])
    o2 = np.argsort([s.rel.left_values[i] for i in m2.col_keys])
    a = m1.data[o1][:, om]
    b = m2.data[om][:, o2]
    assert a.tolist() == [[1, 0, 1], [1, 1, 1], [1, 1, 0]]
    assert b.tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    prod = multiply_counts(CountMatrix(a), CountMatrix(b))
    # exact arithmetic product of the fixture partitions; see the decisions
    # ledger for the one documented transcription discrepancy at (6, 6)
    assert prod.data.tolist() == [[1, 2, 1], [2, 3, 2], [2, 2, 1]]
    # full query result cross-check
    res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, 2, 2),
                           want_counts=True)
    assert decode_two_path_counts(res, r, s) == dict(
        oracle_two_path(EXAMPLE_R, EXAMPLE_S))


@criterion(2, "two-path equals nested-loop oracle, 200 x 20 plans", 120.0)
def test_criterion_02_two_path_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for i in range(200):
        n = 5000 if i < 2 else int(rng.integers(20, 700))
        dom_x = int(rng.integers(5, 50))
        dom_y = max(5, n // int(rng.integers(8, 20)))
        r_pairs = random_pairs(rng, n, dom_x, dom_y)
        s_pairs = random_pairs(rng, n, dom_x, dom_y)
        expected = set(oracle_two_path(r_pairs, s_pairs))
        r, s = reduced_indexed(r_pairs, s_pairs)
        nn = max(r.n, s.n, 1)
        for _ in range(20):
            d1 = int(rng.integers(1, nn + 1))
            d2 = int(rng.integers(1, nn + 1))
            res = jp.two_path_join(r, s,
                                   plan=ThresholdPlan(PARTITIONED, d1, d2))
            if decode_two_path(res, r, s) != expected:
                mismatches += 1
    assert mismatches == 0


@criterion(3, "star join equals k-way oracle, 100 instances", 120.0)
def test_criterion_03_star_oracle():
    rng = np.random.default_rng(3033)
    for i in range(100):
        k = [2, 3, 4][i % 3]
        n = int(rng.integers(20, 170))
        dom_x = int(rng.integers(4, 13 if k == 4 else 18))
        dom_y = int(rng.integers(4, 12))
        rel_pairs = [random_pairs(rng, n, dom_x, dom_y) for _ in range(k)]
        expected = oracle_star(rel_pairs)
        rels = semi_join_reduce_many(
            [Relation.from_raw_pairs(f"R{j}", p)
             for j, p in enumerate(rel_pairs)])
        idxs = [build_indexed(x) for x in rels]
        d1 = int(rng.integers(1, 6))
        d2 = int(rng.integers(1, 6))
        res = jp.star_join(idxs, d1, d2)
        got = {tuple(rels[j].left_values[v] for j, v in enumerate(t))
               for t in res.tuples().tolist()}
        assert got == set(expected), f"instance {i}"
        if k == 2:
            two = jp.two_path_join(idxs[0], idxs[1],
                                   plan=ThresholdPlan(PARTITIONED, d1, d2))
            assert pair_set(two) == pair_set(res)


@criterion(4, "witness counts exact and sum to OUT_join, 100 instances", 60.0)
def test_criterion_04_count_exactness():
    rng = np.random.default_rng(4044)
    for _ in range(100):
        n = int(rng.integers(30, 500))
        dom = int(rng.integers(6, 40))
        r_pairs = random_pairs(rng, n, dom, dom)
        s_pairs = random_pairs(rng, n, dom, dom)
        r, s = reduced_indexed(r_pairs, s_pairs)
        nn = max(r.n, s.n, 1)
        d1 = int(rng.integers(1, nn + 1))
        d2 = int(rng.integers(1, nn + 1))
        res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, d1, d2),
                               want_counts=True)
        assert decode_two_path_counts(res, r, s) == dict(
            oracle_two_path(r_pairs, s_pairs))
        assert total_count(res) == r.out_join_with(s)


@criterion(5, "SSJ triple agreement + 9 vs 18 merge ops", 120.0)
def test_criterion_05_ssj():
    rng = np.random.default_rng(5055)
    for i in range(50):
        raw = random_family(rng, int(rng.integers(15, 55)),
                            int(rng.integers(12, 40)),
                            int(rng.integers(4, 12)))
        fam = apps.SetFamily.from_dict(raw)
        c = [1, 2, 3][i % 3]
        expected = oracle_ssj(raw, c)
        mm = {canon_pair(*raw_pair(fam, a, b)): cnt
              for (a, b), cnt in pair_counts(apps.ssj_mmjoin(fam, c)).items()}
        assert mm == expected
        sa = {canon_pair(*raw_pair(fam, a, b))
              for a, b in pair_set(apps.ssj_size_aware(fam, c))}
        assert sa == set(expected)
        pp_pairs, _ = apps.ssj_size_aware_pp(fam, c)
        assert {canon_pair(*raw_pair(fam, a, b))
                for a, b in pair_set(pp_pairs)} == set(expected)
    _, ops_reuse = apps.prefix_merge_partners(EXAMPLE_SETS, EXAMPLE_LISTS, 2,
                                              depth_cap=8)
    _, ops_flat = apps.prefix_merge_partners(EXAMPLE_SETS, EXAMPLE_LISTS, 2,
                                             depth_cap=0)
    assert (ops_reuse, ops_flat) == (9, 18)


@criterion(6, "SCJ equals subset oracle, 50 families", 60.0)
def test_criterion_06_scj():
    rng = np.random.default_rng(6066)
    for _ in range(50):
        raw = random_family(rng, int(rng.integers(10, 45)),
                            int(rng.integers(10, 30)),
                            int(rng.integers(3, 10)))
        fam = apps.SetFamily.from_dict(raw)
        got = {raw_pair(fam, a, b)
               for a, b in pair_set(apps.scj_join_project(fam))}
        assert got == oracle_scj(raw)


@criterion(7, "output-size estimator sandwich, 100 instances", 60.0)
def test_criterion_07_estimator():
    rng = np.random.default_rng(7077)
    for _ in range(100):
        n = int(rng.integers(30, 600))
        dom_x = int(rng.integers(8, 60))
        dom_z = int(rng.integers(3, dom_x + 1))  # keeps dom_x^2 a valid bound
        dom_y = int(rng.integers(4, 30))
        r_pairs = random_pairs(rng, n, dom_x, dom_y)
        s_pairs = random_pairs(rng, n, dom_z, dom_y)
        r, s = reduced_indexed(r_pairs, s_pairs)
        if r.n == 0 or s.n == 0:
            continue
        out_join = r.out_join_with(s)
        out = len(jp.full_join_dedup(r, s))
        nn = max(r.n, s.n)
        lower = max(r.rel.dom_left, (out_join / nn) ** 2)
        upper = min(r.rel.dom_left ** 2, out_join)
        assert lower <= out <= upper
        assert out_join <= nn * math.sqrt(out)
        est = opt.estimate_output_size(r.rel.dom_left, out_join, nn)
        assert lower <= est <= upper or est == math.ceil(lower)


@criterion(8, "planner within 1.5x of a 50 x 50 threshold grid, 20 graphs",
           300.0)
def test_criterion_08_optimizer_quality():
    table = calibrate(seed=0)  # the default probes
    configs = [(300, 3, 0.5), (360, 4, 0.6), (420, 3, 0.35), (500, 5, 0.7),
               (600, 6, 0.45), (700, 7, 0.55), (800, 8, 0.4)]
    instances = [(nodes, k, p, seed)
                 for seed in (1, 2, 3) for nodes, k, p in configs][:20]
    for nodes, k, p, seed in instances:
        rel = generate_community_graph(nodes, k, p, seed=seed)
        idx = build_indexed(rel)
        n = idx.n
        assert 10 ** 4 <= n <= 10 ** 5, (nodes, k, p, n)
        plan = opt.optimize_thresholds(idx, idx, table)
        bound = math.ceil(math.log(n) / math.log(1 / 0.95)) + 1
        assert plan.iterations <= bound
        assert plan.strategy == PARTITIONED, (nodes, k, p, seed)
        deltas = np.array(sorted({int(d) for d in np.geomspace(1, n, 50)}))
        fine = opt._price_grid(idx, idx, table, deltas, deltas)
        assert plan.total_cost <= 1.5 * fine.cost.min(), (nodes, k, p, seed)
        # the plan's cost is its price on the same sizes
        own = opt._price_grid(idx, idx, table, np.array([plan.delta1]),
                              np.array([plan.delta2]))
        assert own.cost[0, 0] == plan.total_cost, (nodes, k, p, seed)


def _trimmed_wall(fn, runs=5):
    samples = []
    for _ in range(runs):
        t0 = time.monotonic()
        fn()
        samples.append(time.monotonic() - t0)
    samples.sort()
    kept = samples[1:-1]
    return sum(kept) / len(kept)


@criterion(9, "matrix path beats full join on a dense graph", 240.0)
def test_criterion_09_performance_smoke():
    rel = generate_community_graph(600, 3, 0.9, seed=9)
    idx = build_indexed(rel)
    n, out_join = idx.n, idx.out_join_with(idx)
    plan = opt.default_plan(idx, idx)
    assert plan.strategy == PARTITIONED
    res = jp.two_path_join(idx, idx, plan=plan)
    out = len(res)
    assert out_join >= 20 * out and out_join >= 20 * n
    assert pair_set(res) == pair_set(jp.full_join_dedup(idx, idx))
    t_mm = _trimmed_wall(lambda: jp.two_path_join(idx, idx, plan=plan))
    t_full = _trimmed_wall(lambda: jp.full_join_dedup(idx, idx))
    assert t_mm <= 0.7 * t_full, f"mm={t_mm:.3f}s full={t_full:.3f}s"


@criterion(10, "BSI oracle, pinned batch size, interior delay minimum", 120.0)
def test_criterion_10_bsi():
    assert apps.bsi_batch_size(1000, 10 ** 6) == 251189
    rng = np.random.default_rng(1010)
    r_pairs = random_pairs(rng, 800, 60, 40)
    s_pairs = random_pairs(rng, 800, 60, 40)
    r = build_indexed(Relation.from_raw_pairs("R", r_pairs))
    s = build_indexed(Relation.from_raw_pairs("S", s_pairs))
    r_adj = {}
    s_adj = {}
    for a, y in r_pairs:
        r_adj.setdefault(a, set()).add(y)
    for b, y in s_pairs:
        s_adj.setdefault(b, set()).add(y)
    queries = [(int(a), int(b)) for a, b in rng.integers(0, 60, (1000, 2))]
    for start in range(0, 1000, 200):
        batch = queries[start:start + 200]
        answers = apps.bsi_answer_batch(r, s, batch)
        for (a, b), got in zip(batch, answers):
            expected = bool(r_adj.get(a, set()) & s_adj.get(b, set()))
            if a in r_adj and b in s_adj:
                assert got == expected
            else:
                assert got is None and not expected
    # sweep: waiting C/(2B) rises, amortized processing N/C^(2/3) falls
    wl = uniform_workload(queries, rate=100.0)
    grid = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
    delays = [apps.bsi_simulate(
        wl, c, lambda batch: 0.5 / len(batch) ** (2 / 3)).average_delay
        for c in grid]
    best = delays.index(min(delays))
    assert 0 < best < len(grid) - 1, delays


@criterion(11, "every multiply tier equals the triple loop", 60.0)
def test_criterion_11_kernel():
    rng = np.random.default_rng(1111)
    for i in range(200):
        u, v, w = (int(x) for x in rng.integers(1, 65, 3))
        a = CountMatrix(rng.integers(0, 6, (u, v)).astype(np.int64))
        b = CountMatrix(rng.integers(0, 6, (v, w)).astype(np.int64))
        expected = triple_loop_matmul(a.data, b.data)
        got = multiply_counts(a, b)
        assert np.array_equal(got.data, expected), f"triple {i}"
        # scaled by 2^26 + 1: bound past 2^53, below 2^63, so the int64
        # tier, with sums float64 would round
        scale = 2 ** 26 + 1
        got = multiply_counts(CountMatrix(a.data * scale),
                              CountMatrix(b.data * scale))
        assert np.array_equal(got.data, expected * scale ** 2), f"triple {i}"
