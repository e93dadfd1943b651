import math
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    EXAMPLE_R,
    EXAMPLE_S,
    EXAMPLE_T,
    EXAMPLE_U,
    decode_two_path,
    decode_two_path_counts,
    oracle_star,
    oracle_two_path,
    pair_set,
    random_family,
    random_pairs,
    reduced_indexed,
    split_pair_sets,
    total_count,
    whole_heavy_matrices,
)
from mmjoin import joinproject as jp
from mmjoin import optimizer as opt
from mmjoin.matmul import CountMatrix, core, multiply_counts
from mmjoin.optimizer import FULL_JOIN, PARTITIONED, ThresholdPlan
from mmjoin.relation import (
    Relation,
    _dedup,
    build_indexed,
    build_indexes,
    generate_community_graph,
    semi_join_reduce_many,
)


def _example_indexed():
    return reduced_indexed(EXAMPLE_R, EXAMPLE_S)


def test_partition_two_path_fixture():
    r, s = _example_indexed()
    light_y, (light_a, light_c) = opt.light_split([r, s], 2, 2, 2)
    r_light, r_heavy = split_pair_sets(r, light_a, light_y)
    s_light, s_heavy = split_pair_sets(s, light_c, light_y)
    assert r_light == {(1, 6), (2, 1), (2, 2), (3, 5), (3, 3), (4, 1), (6, 2)}
    assert r_heavy == {(4, 4), (4, 6), (5, 4), (5, 5), (5, 6), (6, 4), (6, 5)}
    assert s_heavy == {(4, 4), (4, 5), (5, 4), (5, 5), (5, 6), (6, 5), (6, 6)}
    # light/heavy cover each relation exactly
    assert len(r_light) + len(r_heavy) == r.n
    assert len(s_light) + len(s_heavy) == s.n


def test_partition_thresholds_validated():
    # the split rejects thresholds below 0 (0 is the all-heavy corner), and
    # so every join that runs a plan as its thresholds
    r, s = _example_indexed()
    for d1, d2 in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            opt.light_split([r, s], 2, d1, d2)
        with pytest.raises(ValueError):
            jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, d1, d2))
        with pytest.raises(ValueError):
            jp.star_join([r, s], d1, d2)


def test_heavy_matrices_fixture():
    r, s = _example_indexed()
    m1, m2 = whole_heavy_matrices(r, s, 2, 2)
    rows = [r.rel.left_values[i] for i in m1.row_keys]
    mids = [r.rel.right_values[i] for i in m1.col_keys]
    cols = [s.rel.left_values[i] for i in m2.col_keys]
    order1 = np.argsort(rows)
    orderm = np.argsort(mids)
    order2 = np.argsort(cols)
    a = m1.data[order1][:, orderm]
    b = m2.data[orderm][:, order2]
    assert sorted(rows) == [4, 5, 6] and sorted(mids) == [4, 5, 6]
    assert sorted(cols) == [4, 5, 6]
    assert a.tolist() == [[1, 0, 1], [1, 1, 1], [1, 1, 0]]
    assert b.tolist() == [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    prod = multiply_counts(jp.CountMatrix(a), jp.CountMatrix(b))
    assert prod.data.tolist() == [[1, 2, 1], [2, 3, 2], [2, 2, 1]]


def test_heavy_matrices_empty_when_all_light():
    r, s = _example_indexed()
    assert whole_heavy_matrices(r, s, 100, 100) is None


def test_two_path_join_fixture_counts():
    r, s = _example_indexed()
    res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, 2, 2),
                           want_counts=True)
    oracle = oracle_two_path(EXAMPLE_R, EXAMPLE_S)
    assert decode_two_path_counts(res, r, s) == dict(oracle)
    assert total_count(res) == r.out_join_with(s)


@pytest.mark.parametrize("seed", range(6))
def test_two_path_join_random_vs_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    dom = int(rng.integers(5, 40))
    r_pairs = random_pairs(rng, n, dom, dom)
    s_pairs = random_pairs(rng, n, dom, dom)
    oracle = oracle_two_path(r_pairs, s_pairs)
    r, s = reduced_indexed(r_pairs, s_pairs)
    nn = max(r.n, s.n, 1)
    for d1, d2 in [(1, 1), (2, 3), (5, 2), (nn, nn)]:
        res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, d1, d2),
                               want_counts=True)
        assert decode_two_path_counts(res, r, s) == dict(oracle)
    # default plan (may pick the full-join strategy)
    res = jp.two_path_join(r, s)
    assert decode_two_path(res, r, s) == set(oracle)


def test_light_intermediate_bound():
    # the light passes stay within N*delta1 + OUT_join*delta2 tuples
    rng = np.random.default_rng(42)
    r_pairs = random_pairs(rng, 500, 30, 25)
    s_pairs = random_pairs(rng, 500, 30, 25)
    r, s = reduced_indexed(r_pairs, s_pairs)
    out_join = r.out_join_with(s)
    for d1, d2 in [(1, 1), (2, 2), (4, 3)]:
        res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, d1, d2))
        bound = max(r.n, s.n) * d1 + out_join * d2
        assert res.stats["light_intermediate"] <= bound


def test_full_join_dedup_matches_oracle():
    rng = np.random.default_rng(5)
    r_pairs = random_pairs(rng, 300, 25, 20)
    s_pairs = random_pairs(rng, 300, 25, 20)
    r, s = reduced_indexed(r_pairs, s_pairs)
    res = jp.full_join_dedup(r, s, want_counts=True)
    oracle = oracle_two_path(r_pairs, s_pairs)
    assert decode_two_path_counts(res, r, s) == dict(oracle)
    assert res.stats["light_intermediate"] == r.out_join_with(s)
    assert res.stats["heavy_pairs"] == 0


def test_full_join_plan_strategy():
    r, s = _example_indexed()
    res = jp.two_path_join(r, s, plan=ThresholdPlan(FULL_JOIN, r.n, s.n))
    assert decode_two_path(res, r, s) == set(oracle_two_path(EXAMPLE_R,
                                                             EXAMPLE_S))


I64 = np.iinfo(np.int64)


def _unique_oracle(codes, counts=False):
    return np.unique(np.asarray(codes, dtype=np.int64), return_counts=counts)


@pytest.mark.parametrize("codes", [
    [],
    [5],
    [3, 3, 3, 3],
    [I64.max, I64.min, 0, I64.max, -1, I64.min + 1, I64.max - 1, I64.min],
    list(np.random.default_rng(8).integers(-50, 50, 400)),
])
def test_dedup_matches_np_unique(codes):
    codes = np.asarray(codes, dtype=np.int64)
    got = _dedup(codes)
    assert got.dtype == np.int64
    assert np.array_equal(got, _unique_oracle(codes))
    got_u, got_c = _dedup(codes, True)
    want_u, want_c = _unique_oracle(codes, True)
    assert np.array_equal(got_u, want_u)
    assert np.array_equal(got_c, want_c)
    assert got_c.dtype == np.int64


def test_dedup_merges_sorted_extra():
    light = np.array([9, 2, 2, I64.max, -4, 9, 9], dtype=np.int64)
    extra = np.array([I64.min, -4, 3, 9, I64.max], dtype=np.int64)
    extra_counts = np.array([5, 1, 2, 10, 7], dtype=np.int64)
    want = Counter(light.tolist())
    for code, cnt in zip(extra.tolist(), extra_counts.tolist()):
        want[code] += cnt
    codes, counts = _dedup(light, True, (extra, extra_counts))
    assert codes.tolist() == sorted(want)
    assert counts.tolist() == [want[c] for c in sorted(want)]
    assert _dedup(light, sorted_extra=(extra, extra_counts)).tolist() \
        == sorted(want)
    # either side empty
    empty = np.empty(0, dtype=np.int64)
    codes, counts = _dedup(empty, True, (extra, extra_counts))
    assert codes.tolist() == extra.tolist()
    assert counts.tolist() == extra_counts.tolist()
    codes, counts = _dedup(light, True, (empty, empty))
    want_u, want_c = _unique_oracle(light, True)
    assert np.array_equal(codes, want_u) and np.array_equal(counts, want_c)


# a size rule under which any space takes the dense path
_ALWAYS = 1e18


@contextmanager
def _size_rule(value):
    """Both size rules of counts_densely (beside products and without) at
    `value`."""
    with mock.patch.object(opt, "_DENSE_SPACE_PER_CODE", value), \
            mock.patch.object(opt, "_RANGE_SPACE_PER_CODE", value):
        yield


def _light(codes, dims, rows=1):
    """`codes` as _dedup_output's light ranges, each of `rows` rows of the
    two-dimensional space `dims`, empty ones included."""
    step, space = rows * dims[1], math.prod(dims)
    return [(lo, min(lo + step, space),
             codes[(codes >= lo) & (codes < lo + step)] - lo)
            for lo in range(0, space, step)]


def _on_path(dense, codes, dims, want_counts, factors, triangle=False,
             floor=1, rows=1):
    """_dedup_output on the dense or the codes emit, which it reports in
    its stats (None with nothing to count), of `codes` in ranges of `rows`
    rows."""
    out = jp._dedup_output(_light(codes, dims, rows), dims, dense,
                           want_counts, factors, triangle, floor)
    placed = len(codes) > 0 or len(factors) > 0
    assert out.stats["emit"] == (("dense" if dense else "codes") if placed
                                 else None)
    assert out.stats["light_intermediate"] == len(codes)
    return out


def _factor(data, rows, cols):
    """(V, W^T) whose product is `data`, keyed by `rows` and `cols`: W^T
    is an identity."""
    return (CountMatrix(np.asarray(data, dtype=np.int64),
                        row_keys=np.asarray(rows, dtype=np.int64)),
            CountMatrix(np.eye(len(cols), dtype=np.int64),
                        col_keys=np.asarray(cols, dtype=np.int64)))


@st.composite
def _coded(draw):
    """(codes, dims, factors, triangle): light codes of a 2-d space and up
    to three products over sorted distinct rows and columns of it, no row
    or column in two of them; or one self-join's V, whose product V @ V^T
    is over a square space."""
    dims = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    triangle = draw(st.booleans())
    if triangle:
        dims = (dims[0], dims[0])
    space = math.prod(dims)
    codes = draw(st.lists(st.integers(0, space - 1), max_size=60))
    factors = []
    if triangle:
        rows = sorted(draw(st.sets(st.integers(0, dims[0] - 1), min_size=1)))
        inner = draw(st.integers(1, 4))
        data = np.array(draw(st.lists(st.integers(0, 2),
                                      min_size=len(rows) * inner,
                                      max_size=len(rows) * inner)))
        v = CountMatrix(data.reshape(len(rows), inner),
                        row_keys=np.array(rows, dtype=np.int64))
        wt = CountMatrix(v.data.T, col_keys=v.row_keys)
        factors.append((v, wt))
    elif draw(st.booleans()):
        rows = sorted(draw(st.sets(st.integers(0, dims[0] - 1), min_size=1)))
        cols = sorted(draw(st.sets(st.integers(0, dims[1] - 1), min_size=1)))
        n = draw(st.integers(1, 3))
        row_of = draw(st.lists(st.integers(0, n - 1), min_size=len(rows),
                               max_size=len(rows)))
        col_of = draw(st.lists(st.integers(0, n - 1), min_size=len(cols),
                               max_size=len(cols)))
        for b in range(n):
            rb = [x for x, o in zip(rows, row_of) if o == b]
            cb = [x for x, o in zip(cols, col_of) if o == b]
            if not (rb and cb):
                continue
            data = draw(st.lists(st.integers(0, 4), min_size=len(rb) * len(cb),
                                 max_size=len(rb) * len(cb)))
            factors.append(_factor(np.reshape(data, (len(rb), len(cb))),
                                   rb, cb))
    return np.array(codes, dtype=np.int64), dims, factors, triangle


_FULL_BLOCK = [_factor([[0, 2, 1], [3, 0, 1]], range(2), range(3))]
# the later rows first: the products' codes are not in order across them
_TWO_BLOCKS = [_factor([[1, 0]], [2], [1, 3]),
               _factor([[2], [1]], [0, 1], [0])]


@settings(max_examples=200, deadline=None)
@given(_coded(), st.sampled_from([1, 2, 3]), st.integers(1, 3),
       st.integers(1, 4))
@example((np.empty(0, dtype=np.int64), (3, 4), [], False), 1, 2, 1)  # empty
@example((np.empty(0, dtype=np.int64), (1, 1), [], False), 1, 1, 1)  # D = 1
@example((np.zeros(5, dtype=np.int64), (1, 1), [], False), 1, 1, 1)  # D = 1
@example((np.array([0, 11, 11, 0, 5]), (3, 4), [], False), 2, 1, 1)  # 0, D-1
@example((np.full(7, 4, dtype=np.int64), (3, 4), [], False), 3, 1, 2)
@example((np.array([5, 0, 5]), (2, 3), _FULL_BLOCK, False), 1, 2, 1)  # space
@example((np.empty(0, dtype=np.int64), (2, 3), _FULL_BLOCK, False), 2, 1, 1)
@example((np.empty(0, dtype=np.int64), (3, 4), _TWO_BLOCKS, False), 1, 2, 2)
@example((np.array([1, 11, 4]), (3, 4), _TWO_BLOCKS, False), 2, 3, 1)
def test_dedup_output_dense_and_sort_paths_agree(case, floor, workers, rows):
    """Either emit, on 1-3 workers with blocks of one multiply-add, counts
    what the light ranges of `rows` rows each and the products count, and
    keeps the codes counted at least `floor` times."""
    with mock.patch.object(core, "_BLOCK_MADDS", 1), \
            mock.patch.object(core, "worker_count", lambda: workers):
        _check_dedup_output(*case, floor, rows)


def _check_dedup_output(codes, dims, factors, triangle, floor, rows):
    want = Counter(codes.tolist())
    for v, wt in factors:
        product = v.data @ wt.data
        for i, a in enumerate(v.row_keys.tolist()):
            for j, b in enumerate(wt.col_keys.tolist()):
                if product[i, j]:
                    want[a * dims[1] + b] += int(product[i, j])
    want = {code: n for code, n in want.items() if n >= floor}
    dense = _on_path(True, codes, dims, True, factors, triangle, floor, rows)
    sort = _on_path(False, codes, dims, True, factors, triangle, floor, rows)
    for out in (dense, sort):
        assert out.codes.dtype == np.int64 and out.counts.dtype == np.int64
        assert out.codes.tolist() == sorted(want)
        assert out.counts.tolist() == [want[c] for c in sorted(want)]
        assert out.dims == dims
        assert out.stats["blocks"] >= len(factors)
        assert out.stats["heavy_pairs"] == sum(
            int(np.count_nonzero(v.data @ wt.data)) for v, wt in factors)
    for dense_first in (True, False):
        plain = _on_path(dense_first, codes, dims, False, factors, triangle,
                         floor, rows)
        assert plain.counts is None
        assert np.array_equal(plain.codes, dense.codes)


def test_counts_densely_size_rule():
    # without a product the codes touch each light code once, counted
    # range by range; with one, each code and product entry once more
    assert opt.counts_densely(240, 40, 0)                   # 240 <= 6 * 40
    assert not opt.counts_densely(241, 40, 0)
    # 1.5 * (40 + 40 + 4) = 126
    assert opt.counts_densely(126, 40, 4)
    assert not opt.counts_densely(135, 40, 4)
    # with no light codes a floor is kept in the blocks: no buffer
    assert opt.counts_densely(4, 0, 4)
    assert not opt.counts_densely(4, 0, 4, floor=2)
    assert opt.counts_densely(240, 40, 0, floor=2)
    # nothing to count: no buffer
    assert not opt.counts_densely(1, 0, 0)
    # elementwise over a grid
    assert opt.counts_densely(126, np.array([40, 0, 40]), np.array([4, 4, 0]),
                              2).tolist() == [True, False, True]


def test_two_path_join_counts_on_either_path():
    rng = np.random.default_rng(12)
    r_pairs = random_pairs(rng, 300, 20, 15)
    s_pairs = random_pairs(rng, 300, 20, 15)
    r, s = reduced_indexed(r_pairs, s_pairs)
    want = oracle_two_path(r_pairs, s_pairs)
    plans = [ThresholdPlan(PARTITIONED, d1, d2)
             for d1, d2 in [(1, 1), (3, 3), (8, 2), (100, 100)]]
    for plan in plans + [ThresholdPlan(FULL_JOIN, 1, 1)]:
        for rule in (_ALWAYS, 0.0):
            with _size_rule(rule):
                res = jp.two_path_join(r, s, plan=plan, want_counts=True)
            assert res.stats["emit"] == ("dense" if rule == _ALWAYS
                                         else "codes")
            assert decode_two_path_counts(res, r, s) == dict(want)


@st.composite
def _planned_join(draw):
    """(join, relations, light_in, floor) over small random relations: a
    two-path self-join, a two-path join of two relations, a k=3 star, or
    SSJ's join (a two-path self-join keeping the pairs of overlap 3 or
    more)."""
    kind = draw(st.sampled_from(["self", "join", "star", "ssj"]))
    pair = st.tuples(st.integers(0, 7), st.integers(0, 5))
    rel_pairs = [sorted(draw(st.sets(pair, min_size=1, max_size=30)))
                 for _ in range(3)]
    if kind == "star":
        rels = build_indexes(semi_join_reduce_many(
            [Relation.from_raw_pairs(f"R{i}", p)
             for i, p in enumerate(rel_pairs)]))
        return (lambda d1, d2: jp.star_join(rels, d1, d2)), rels, 2, 1
    if kind == "join":
        rels = list(reduced_indexed(*rel_pairs[:2]))
    else:
        rels = [build_indexed(Relation.from_raw_pairs("R", rel_pairs[0]))] * 2
    floor = 3 if kind == "ssj" else 1
    return (lambda d1, d2: jp.two_path_join(
        *rels, ThresholdPlan(PARTITIONED, d1, d2), want_counts=True,
        floor=floor)), rels, 2, floor


@settings(max_examples=60, deadline=None)
@given(_planned_join(), st.sampled_from([0.2, 1.5, 6.0]))
def test_every_grid_candidate_runs_the_emit_it_was_priced_with(case, rule):
    """At every candidate of price_plan's grid the join counts its output
    with the emit the candidate was priced with (None with nothing to
    count), under size rules that make either emit win."""
    join, rels, light_in, floor = case
    with _size_rule(rule):
        grid = opt.price_plan(rels, light_in, floor=floor)
        for i, d1 in enumerate(grid.delta1s.tolist()):
            for j, d2 in enumerate(grid.delta2s.tolist()):
                placed = (grid.sizes.light[i, j] > 0
                          or grid.sizes.product_entries[i, j] > 0)
                priced = "dense" if grid.dense[i, j] else "codes"
                assert join(d1, d2).stats["emit"] == (priced if placed
                                                      else None)


def test_output_stats_counts_are_python_ints():
    # the stats go into JSON reports, which take no numpy scalars
    rng = np.random.default_rng(12)
    r, s = reduced_indexed(random_pairs(rng, 300, 20, 15),
                           random_pairs(rng, 300, 20, 15))
    results = [jp.full_join_dedup(r, s, want_counts=True)]
    for d1, d2 in [(1, 1), (3, 3), (100, 100)]:
        for rule in (_ALWAYS, 0.0):
            with _size_rule(rule):
                results.append(jp.two_path_join(
                    r, s, plan=ThresholdPlan(PARTITIONED, d1, d2)))
    assert any(res.stats["heavy_pairs"] > 0 for res in results[1:])
    for res in results:
        counts = {k: v for k, v in res.stats.items()
                  if k not in ("plan", "tier", "emit")}
        assert counts and all(type(v) is int for v in counts.values()), counts
        # the widest exact tier a product ran in; none for the full join
        assert res.stats["tier"] == (
            "float32" if res.stats["blocks"] else None)
        assert res.stats["emit"] in ("dense", "codes")


def test_star_fixture_heavy_matrix_rows():
    # four-relation star over the frozen example tables; group (x1, x2)
    rels = semi_join_reduce_many([Relation.from_raw_pairs("R", EXAMPLE_R),
                                  Relation.from_raw_pairs("S", EXAMPLE_S),
                                  Relation.from_raw_pairs("T", EXAMPLE_T),
                                  Relation.from_raw_pairs("U", EXAMPLE_U)])
    idxs = [build_indexed(r) for r in rels]
    deg = np.stack([i.right_deg for i in idxs])
    heavy_y = [rels[0].right_values[b]
               for b in np.nonzero((deg > 2).sum(axis=0) >= 2)[0]]
    assert sorted(heavy_y) == [4, 5, 6]
    # row (x1=4, x2=4) covers witness 4 only; (4,5) covers 4 and 6;
    # (6,6) covers 5 only -- membership over the full relations
    r_adj = {a: set(y for x, y in EXAMPLE_R if x == a) for a in (4, 5, 6)}
    s_adj = {a: set(y for x, y in EXAMPLE_S if x == a) for a in (4, 5, 6)}
    def vrow(a, b):
        return [1 if (y in r_adj[a] and y in s_adj[b]) else 0
                for y in sorted(heavy_y)]
    assert vrow(4, 4) == [1, 0, 0]
    assert vrow(4, 5) == [1, 0, 1]
    assert vrow(6, 6) == [0, 1, 0]


def test_star_join_fixture():
    rels = semi_join_reduce_many([Relation.from_raw_pairs("T", EXAMPLE_T),
                                  Relation.from_raw_pairs("U", EXAMPLE_U)])
    idxs = [build_indexed(r) for r in rels]
    res = jp.star_join(idxs, 2, 2, want_counts=True)
    oracle = oracle_star([EXAMPLE_T, EXAMPLE_U])
    got = {tuple(rels[i].left_values[v] for i, v in enumerate(t)): int(c)
           for t, c in zip(res.tuples().tolist(), res.counts.tolist())}
    assert got == dict(oracle)


@pytest.mark.parametrize("k,seed", [(2, 0), (3, 1), (4, 2), (3, 3)])
def test_star_join_random_vs_oracle(k, seed):
    rng = np.random.default_rng(seed)
    rel_pairs = [random_pairs(rng, 60, 10, 8) for _ in range(k)]
    oracle = oracle_star(rel_pairs)
    rels = semi_join_reduce_many(
        [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    for d1, d2 in [(1, 1), (2, 2), (3, 1)]:
        res = jp.star_join(idxs, d1, d2, want_counts=True)
        got = {tuple(rels[i].left_values[v] for i, v in enumerate(t)): int(c)
               for t, c in zip(res.tuples().tolist(), res.counts.tolist())}
        assert got == dict(oracle)


def test_star_join_k2_matches_two_path():
    rng = np.random.default_rng(10)
    r_pairs = random_pairs(rng, 150, 15, 12)
    s_pairs = random_pairs(rng, 150, 15, 12)
    r, s = reduced_indexed(r_pairs, s_pairs)
    star = jp.star_join([r, s], 2, 2)
    two = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, 2, 2))
    assert pair_set(star) == pair_set(two)


def test_star_join_indexes_each_distinct_relation_once():
    # unaligned relations: star_join aligns them, once per distinct relation,
    # so the repeated r stays one object and its heavy blocks are reused
    rng = np.random.default_rng(12)
    r_pairs = random_pairs(rng, 80, 10, 8)
    s_pairs = random_pairs(rng, 80, 10, 12)
    r, s = (build_indexed(Relation.from_raw_pairs(name, p))
            for name, p in (("R", r_pairs), ("S", s_pairs)))
    assert not r.shares_right_dict(s)
    with mock.patch("mmjoin.relation.build_indexed",
                    wraps=build_indexed) as built:
        res = jp.star_join([r, r, s], 1, 1, want_counts=True)
    assert built.call_count == 2
    assert _decoded(res, [r, r, s]) == dict(
        oracle_star([r_pairs, r_pairs, s_pairs]))


def test_star_join_validation():
    r, s = _example_indexed()
    with pytest.raises(ValueError):
        jp.star_join([r], 2, 2)
    with pytest.raises(ValueError):
        jp.star_join([r, s], -1, 2)


@st.composite
def _split_case(draw):
    """2..4 pair lists over small domains, a light_in of k - 1 or k, and
    thresholds from 1 to past the largest degree."""
    k = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(0, 5), st.integers(0, 4))
    rel_pairs = [sorted(draw(st.sets(pair, min_size=1, max_size=20)))
                 for _ in range(k)]
    return (rel_pairs, draw(st.sampled_from([k - 1, k])),
            draw(st.integers(1, 7)), draw(st.integers(1, 7)))


@settings(max_examples=150, deadline=None)
@given(_split_case())
@example(([[(0, 0), (1, 0), (2, 0)], [(0, 0)]], 1, 1, 1))    # one light
@example(([[(0, 0), (1, 0), (2, 0)], [(0, 0)]], 2, 1, 1))    # not both
def test_witness_key_and_split_count_light_relations(case):
    """A witness is light iff its degree is <= delta1 in at least light_in
    relations, counted by nested loops over the raw pairs of the witnesses
    every relation has; a left value iff its degree is <= delta2."""
    rel_pairs, light_in, d1, d2 = case
    rels = semi_join_reduce_many([Relation.from_raw_pairs(f"R{i}", p)
                                  for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    key = opt.witness_key(idxs, light_in)
    light_y, light_left = opt.light_split(idxs, light_in, d1, d2)
    shared = set.intersection(*[{y for _, y in p} for p in rel_pairs])
    assert len(key) == len(light_y) == len(shared)
    for y, value in enumerate(rels[0].right_values):
        degs = [sum(1 for _, w in p if w == value) for p in rel_pairs]
        is_light = sum(1 for d in degs if d <= d1) >= light_in
        assert light_y[y] == is_light == (key[y] <= d1)
        assert key[y] == sorted(degs)[light_in - 1]
    for rel, pairs, light in zip(rels, rel_pairs, light_left):
        for x, value in enumerate(rel.left_values):
            deg = sum(1 for a, w in pairs if a == value and w in shared)
            assert light[x] == (deg <= d2)


def test_full_join_corner_runs_as_the_full_join():
    # a family of 1000 sets over 500 elements, whose cheapest plan is the
    # grid's all-light corner at any worker count: run as its thresholds,
    # it is the full join
    fam = random_family(np.random.default_rng(1), 1000, 500, 40)
    r = build_indexed(Relation.from_raw_pairs(
        "sets", [(a, e) for a, elems in fam.items() for e in elems]))
    grid = opt.price_plan([r, r], 2)
    plan = grid.plan()
    assert plan.strategy == FULL_JOIN and plan == opt.default_plan(r, r)
    assert (plan.delta1, plan.delta2) == (grid.delta1s[-1], grid.delta2s[-1])
    for want_counts in (False, True):
        got = jp.two_path_join(r, r, plan=plan, want_counts=want_counts)
        full = jp.full_join_dedup(r, r, want_counts=want_counts)
        assert np.array_equal(got.codes, full.codes)
        assert (got.counts is None) == (not want_counts)
        if want_counts:
            assert np.array_equal(got.counts, full.counts)
        assert got.stats["light_intermediate"] == \
            full.stats["light_intermediate"] == r.out_join_with(r)
        assert got.stats["heavy_pairs"] == full.stats["heavy_pairs"] == 0


@pytest.mark.parametrize("k,seed", [(2, 0), (3, 1), (4, 2), (3, None)])
def test_star_join_without_thresholds_runs_its_planned_plan(k, seed):
    """The cheapest plan of the star's grid (all heavy on a community
    graph, seed None; on the random ones of k = 3 and 4, whose products are
    ~1,000 and ~10,000 entries for ~1,100 and ~5,000 light codes, the full
    join, which measured 0.22 and 0.35 ms against 0.31 and 0.37 ms for
    their cheapest partitioned plans, 1/0)."""
    if seed is None:
        graph = generate_community_graph(60, 3, 0.9, seed=7)
        rel_pairs = [list(graph.raw_pairs())] * k
    else:
        rng = np.random.default_rng(seed)
        rel_pairs = [random_pairs(rng, 60, 10, 8) for _ in range(k)]
    idxs = [build_indexed(r) for r in semi_join_reduce_many(
        [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(rel_pairs)])]
    res = jp.star_join(idxs, want_counts=True)
    plan = opt.price_plan(idxs, k - 1).plan()
    assert res.stats["plan"] == plan and len(res)
    if seed is None:
        assert (plan.strategy, plan.delta1, plan.delta2) == (PARTITIONED, 1, 1)
    elif k > 2:
        assert plan.strategy == FULL_JOIN
    assert _decoded(res, idxs) == dict(oracle_star(rel_pairs))
    with pytest.raises(ValueError, match="together"):
        jp.star_join(idxs, 2)


def test_star_resource_cap(monkeypatch):
    rng = np.random.default_rng(11)
    rel_pairs = [random_pairs(rng, 200, 12, 6) for _ in range(3)]
    rels = semi_join_reduce_many(
        [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    monkeypatch.setattr(jp, "_ENTRY_BUDGET", 2)
    with pytest.raises(jp.StarResourceError):
        jp.star_join(idxs, 1, 1)


def test_star_skewed_hub_raises_before_allocating():
    # three relations of 4,700 drawn tuples each whose witnesses follow
    # Zipf(1.5), so one hub joins about a third of every relation: its
    # 3.2e9 witness combinations are light codes or heavy matrix entries at
    # any thresholds
    rng = np.random.default_rng(2020)
    rel_pairs = [list(zip(rng.integers(0, 5000, 4700).tolist(),
                          np.minimum(rng.zipf(1.5, 4700), 2000).tolist()))
                 for _ in range(3)]
    rels = semi_join_reduce_many(
        [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    for d1, d2 in [(1, 1), (40, 1), (10 ** 6, 10 ** 6)]:
        tracemalloc.start()
        try:
            with pytest.raises(jp.StarResourceError, match="budget"):
                jp.star_join(idxs, d1, d2, want_counts=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (d1, d2, peak)


def _light_combos(rel_pairs, delta1, delta2):
    """Witness combinations (y, x1..xk) the star's light passes handle: y
    light (degree <= delta1 in k - 1 relations) or some xi light (degree
    <= delta2), degrees taken after the semi-join, by nested loops."""
    shared = set.intersection(*[{y for _, y in p} for p in rel_pairs])
    adj = [defaultdict(list) for _ in rel_pairs]
    left_deg = [Counter() for _ in rel_pairs]
    for i, pairs in enumerate(rel_pairs):
        for x, y in pairs:
            if y in shared:
                adj[i][y].append(x)
                left_deg[i][x] += 1
    n = 0
    for y in shared:
        light_y = sum(len(a[y]) <= delta1 for a in adj) >= len(adj) - 1
        for combo in product(*[a[y] for a in adj]):
            n += light_y or any(left_deg[i][x] <= delta2
                                for i, x in enumerate(combo))
    return n


@st.composite
def _star_case(draw):
    """k relations over small domains, and deltas from 1 to past the largest
    degree in them."""
    k = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(0, 5), st.integers(0, 4))
    rel_pairs = [sorted(draw(st.sets(pair, min_size=1, max_size=20)))
                 for _ in range(k)]
    top = max(max(Counter(p[side] for p in pairs).values())
              for pairs in rel_pairs for side in (0, 1)) + 2
    return rel_pairs, draw(st.integers(1, top)), draw(st.integers(1, top))


_DENSE = sorted(product(range(6), range(5)))
_HUB = [(x, 0) for x in range(6)] + [(0, 1), (1, 2), (2, 2)]


@settings(max_examples=150, deadline=None)
@given(_star_case(), st.sampled_from([_ALWAYS, 0.0]))
@example(([_DENSE] * 4, 1, 1), 0.0)                        # all heavy
@example(([_DENSE] * 2, 100, 100), _ALWAYS)                # all light
@example(([_HUB, _HUB, [(x, 0) for x in range(5)] + [(5, 2)]], 2, 2),
         _ALWAYS)                                          # one hub
@example(([[(0, 0), (1, 1)], [(0, 2)], [(1, 3)]], 1, 1), 0.0)  # empty
def test_star_counts_each_witness_once(case, rule):
    rel_pairs, d1, d2 = case
    rels = semi_join_reduce_many(
        [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    enumerated = []
    dedup_output = jp._dedup_output

    def spy(light, *args):
        out = dedup_output(light, *args)
        enumerated.append(out.stats["light_intermediate"])
        return out

    with _size_rule(rule), mock.patch.object(jp, "_dedup_output", spy):
        res = jp.star_join(idxs, d1, d2, want_counts=True)
    got = {tuple(rels[i].left_values[v] for i, v in enumerate(t)): int(c)
           for t, c in zip(res.tuples().tolist(), res.counts.tolist())}
    assert got == dict(oracle_star(rel_pairs))
    # every witness counted once: sum over y of prod_i deg_i(y)
    deg = [Counter(y for _, y in pairs) for pairs in rel_pairs]
    assert int(res.counts.sum()) == sum(math.prod(d[y] for d in deg)
                                        for y in deg[0])
    assert enumerated == [res.stats["light_intermediate"]]
    assert res.stats["light_intermediate"] == _light_combos(rel_pairs, d1, d2)


@st.composite
def _two_path_case(draw):
    """Two relations over small domains, and deltas from 1 to past the
    largest degree in them."""
    pair = st.tuples(st.integers(0, 6), st.integers(0, 4))
    r_pairs, s_pairs = (sorted(draw(st.sets(pair, min_size=1, max_size=25)))
                        for _ in range(2))
    top = max(max(Counter(p[side] for p in pairs).values())
              for pairs in (r_pairs, s_pairs) for side in (0, 1)) + 2
    return r_pairs, s_pairs, draw(st.integers(1, top)), draw(st.integers(1, top))


_TWO_SQUARES = [(x, y) for x in range(2) for y in range(2)] + [
    (x, y) for x in range(2, 5) for y in range(2, 5)]


@settings(max_examples=150, deadline=None)
@given(_two_path_case())
@example((_DENSE, _DENSE, 1, 1))                           # all heavy
@example((_DENSE, _HUB, 2, 2))                             # mixed
@example((_DENSE, _DENSE, 100, 1))                         # all light
@example((_TWO_SQUARES, _TWO_SQUARES, 1, 1))               # two components
def test_join_sizes_are_what_partitioned_allocates(case):
    r_pairs, s_pairs, d1, d2 = case
    r, s = reduced_indexed(r_pairs, s_pairs)
    grid = opt.price_plan([r, s], 2, None, np.array([d1]), np.array([d2]))
    factors = _assert_allocates_what_was_priced(
        lambda: jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, d1, d2)),
        grid, (r.rel.dom_left, s.rel.dom_left))
    if r_pairs == _TWO_SQUARES:
        assert len(factors) == 2


@settings(max_examples=100, deadline=None)
@given(_split_case())
@example(([_DENSE, _HUB, _DENSE], 2, 2, 2))     # one relation given twice
@example(([_DENSE, _DENSE, _DENSE, _DENSE], 3, 1, 1))        # all heavy
def test_star_grid_sizes_are_what_star_join_allocates(case):
    """The k-relation grid prices the sizes star_join allocates, a relation
    given more than once included."""
    rel_pairs, _, d1, d2 = case
    made = {}
    rels = semi_join_reduce_many([
        made.setdefault(tuple(p), Relation.from_raw_pairs("R", p))
        for p in rel_pairs])
    idxs = build_indexes(rels)
    grid = opt.price_plan(idxs, len(idxs) - 1, None, np.array([d1]),
                          np.array([d2]))
    _assert_allocates_what_was_priced(lambda: jp.star_join(idxs, d1, d2),
                                      grid, [idx.rel.dom_left for idx in idxs])


@st.composite
def _ranged_case(draw):
    """k = 2..4 relations over small domains, a k = 2 one sometimes a
    self-join kept in one orientation or in both, a floor of 1-3 and a
    range size in entries, 1 to cut a range at every value."""
    k = draw(st.integers(2, 4))
    pair = st.tuples(st.integers(0, 6), st.integers(0, 4))
    rel_pairs = [sorted(draw(st.sets(pair, min_size=1, max_size=25)))
                 for _ in range(k)]
    self_join = k == 2 and draw(st.booleans())
    if self_join:
        rel_pairs[1] = rel_pairs[0]
    upper = self_join and draw(st.booleans())
    return (rel_pairs, upper, draw(st.integers(1, 3)),
            draw(st.sampled_from([1, 2, 7, opt._RANGE_ENTRIES])))


@settings(max_examples=150, deadline=None)
@given(_ranged_case(), st.sampled_from([_ALWAYS, 0.0]))
@example(([_DENSE, _DENSE], True, 2, 1), _ALWAYS)        # cut at each value
@example(([_DENSE, _DENSE], True, 1, 1), 0.0)
@example(([_HUB, _DENSE, _HUB, _DENSE], False, 1, 1), 0.0)
def test_light_ranges_give_the_oracle_at_every_corner(case, rule):
    """Light codes written and counted by ranges, down to a value a range
    (whose cuts split every witness's lists) and, for the codes emit, to
    one code a range, give the oracle's tuples counted at least `floor`
    times at every corner of the grid (all heavy, all light, each
    threshold alone) and at 1/1, on either emit, in one orientation (pairs
    a < b) and in both."""
    rel_pairs, upper, floor, entries = case
    made = {}
    idxs = build_indexes(semi_join_reduce_many([
        made.setdefault(tuple(p), Relation.from_raw_pairs(f"R{len(made)}", p))
        for p in rel_pairs]))
    k, top = len(idxs), max(idx.n for idx in idxs) + 1
    ids = [idx.rel.left_ids for idx in idxs]
    want = {tuple(i[v] for i, v in zip(ids, t)): c
            for t, c in oracle_star(rel_pairs).items()
            if c >= floor and (not upper or ids[0][t[0]] < ids[1][t[1]])}
    with _size_rule(rule), mock.patch.object(opt, "_RANGE_ENTRIES", entries):
        for d1, d2 in [(0, 0), (top, top), (0, top), (top, 0), (1, 1)]:
            plan = ThresholdPlan(PARTITIONED, d1, d2)
            for want_counts in (True, False):
                res = (jp.two_path_join(*idxs, plan, want_counts, floor, upper)
                       if k == 2 else
                       jp._partitioned(idxs, k - 1, plan, want_counts, floor))
                assert (np.diff(res.codes) > 0).all()
                if want_counts:
                    assert dict(zip(map(tuple, res.tuples().tolist()),
                                    res.counts.tolist())) == want
                else:
                    assert set(map(tuple, res.tuples().tolist())) == set(want)


def _assert_allocates_what_was_priced(join, grid, dims):
    """Run `join`, checking that it writes the light codes, runs the light
    ranges (optimizer.light_ranges of the output's `dims` for its emit;
    with ranges of the default entries and of one) and builds the heavy
    factors that `grid`, the PlanGrid of its one candidate, counts; returns
    the factors."""
    planned = grid.sizes
    heavy_matrices, dedup_output = jp.heavy_matrices, jp._dedup_output
    for entries in (opt._RANGE_ENTRIES, 1):
        factors, ranges = [], []

        def spy_factors(*args):
            factors.extend(heavy_matrices(*args))
            return factors

        def spy_output(light, *args):
            return dedup_output((ranges.append(r) or r for r in light), *args)

        with mock.patch.object(jp, "heavy_matrices", spy_factors), \
                mock.patch.object(jp, "_dedup_output", spy_output), \
                mock.patch.object(opt, "_RANGE_ENTRIES", entries):
            res = join()
            priced = opt.light_ranges(dims, planned.light[0, 0],
                                      grid.dense[0, 0])
        assert res.stats["light_intermediate"] == planned.light[0, 0]
        assert len(ranges) == priced
    # one product per component with heavy witnesses and left values
    assert len(factors) == planned.blocks[0, 0]
    runs = np.flatnonzero(planned.inner[0] * planned.rows[0]
                          * planned.cols[0] > 0)
    for (v, wt), c in zip(factors, runs):
        u, inner, w = (int(x[0, c]) for x in (planned.rows, planned.inner,
                                              planned.cols))
        assert v.data.shape == (u, inner) and wt.data.shape == (inner, w)
    assert planned.factor_entries[0, 0] == sum(
        v.data.size + wt.data.size for v, wt in factors)
    assert planned.product_entries[0, 0] == sum(
        v.rows * wt.cols for v, wt in factors)
    return factors


def test_output_set_decode_roundtrip():
    codes = np.array([0, 7, 11], dtype=np.int64)
    out = jp.OutputSet(codes, dims=(3, 4))
    tuples = out.tuples()
    recoded = tuples[:, 0] * 4 + tuples[:, 1]
    assert np.array_equal(recoded, codes)
    assert len(out) == 3 and out.arity == 2
    with pytest.raises(ValueError):
        total_count(out)


def test_unreduced_inputs_are_reduced_internally():
    # left value 0 comes first and joins nothing: its id stays taken
    r_pairs = [(0, 99)] + EXAMPLE_R
    r = build_indexed(Relation.from_raw_pairs("R", r_pairs))
    s = build_indexed(Relation.from_raw_pairs("S", EXAMPLE_S))
    res = jp.two_path_join(r, s, plan=ThresholdPlan(PARTITIONED, 2, 2),
                           want_counts=True)
    assert decode_two_path_counts(res, r, s) == \
        dict(oracle_two_path(r_pairs, EXAMPLE_S))


def _decoded(res, idxs):
    """{raw tuple: count} of a result, decoded with the left dictionaries
    of `idxs`."""
    return {tuple(idx.rel.left_values[v] for idx, v in zip(idxs, t)): int(c)
            for t, c in zip(res.tuples().tolist(), res.counts.tolist())}


_MIXED = st.sampled_from([0, 1, 2, "0", "1", "a", "b"])


@st.composite
def _unaligned_case(draw):
    """2..4 pair lists over mixed int/str values, drawn apart, so right
    values miss from other lists and some left values join nothing, and
    deltas from 1 to past the largest degree."""
    k = draw(st.integers(2, 4))
    rel_pairs = [sorted(draw(st.sets(st.tuples(_MIXED, _MIXED), min_size=1,
                                     max_size=15)), key=repr)
                 for _ in range(k)]
    return rel_pairs, draw(st.integers(1, 8)), draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(_unaligned_case())
@example(([[("a0", "y9"), ("a1", "y1"), ("a2", "y1")],
           [("c0", "y1"), ("c1", "y2")]], 1, 1))
@example(([[(0, "a"), (1, 0), ("1", 0)], [(2, 0), ("a", 1)],
           [(0, 0), (1, "b")]], 1, 1))
def test_unaligned_inputs_decode_with_their_own_dictionaries(case):
    """Relations that do not share a right dictionary are aligned inside the
    join, and the result's ids are still the callers' own left ids."""
    rel_pairs, d1, d2 = case
    idxs = [build_indexed(Relation.from_raw_pairs(f"R{i}", p))
            for i, p in enumerate(rel_pairs)]
    want = dict(oracle_star(rel_pairs))
    assert _decoded(jp.star_join(idxs, d1, d2, want_counts=True), idxs) == want
    if len(idxs) == 2:
        r, s = idxs
        want = dict(oracle_two_path(*rel_pairs))
        for plan in (None, ThresholdPlan(PARTITIONED, d1, d2)):
            res = jp.two_path_join(r, s, plan=plan, want_counts=True)
            assert _decoded(res, idxs) == want
        assert _decoded(jp.full_join_dedup(r, s, want_counts=True),
                        idxs) == want
