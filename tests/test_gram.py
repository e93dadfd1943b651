"""The one blocked product on every plan and worker count: a self-join's
Gram blocks of the upper triangle, the overlap floor kept in the blocks
where no light code is beside them, and no buffer over the whole pair
space at the all-heavy corner."""

import sys
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (WorkerBoom, canon_pair, fail_off_the_main_thread,
                      oracle_ssj, oracle_star, pair_counts, random_family,
                      random_pairs, raw_pair)
from mmjoin import apps, joinproject as jp
from mmjoin.matmul import CountMatrix, core
from mmjoin import optimizer as opt
from mmjoin.optimizer import FULL_JOIN, PARTITIONED, ThresholdPlan
from mmjoin.relation import (Relation, build_indexed, build_indexes,
                             generate_community_graph, semi_join_reduce_many)

CORNER = ThresholdPlan(PARTITIONED, 0, 0)


@st.composite
def _families(draw):
    """Up to 15 sets over at most 8 elements, in a drawn order: empty sets,
    singletons, copies of drawn sets and one giant set of every element."""
    universe = draw(st.integers(1, 8))
    elem = st.integers(0, universe - 1)
    sets = draw(st.lists(st.frozensets(elem), min_size=1, max_size=10))
    sets += [frozenset([e]) for e in draw(st.lists(elem, max_size=2))]
    sets += draw(st.lists(st.sampled_from(sets), max_size=2))
    if draw(st.booleans()):
        sets.append(frozenset(range(universe)))
    order = draw(st.permutations(range(len(sets))))
    return {f"s{i}": sorted(sets[k]) for i, k in enumerate(order)}


@settings(max_examples=120, deadline=None)
@given(_families(), st.integers(1, 5), st.sampled_from([1, 2, 3]))
@example({"s0": [], "s1": [0]}, 1, 2)                      # empty and single
@example({"s0": [0, 1, 2], "s1": [0, 1, 2], "s2": [2]}, 3, 3)   # duplicates
def test_corner_and_full_join_give_the_oracle(raw, c, workers):
    """SSJ at the corner and at the full join equals the oracle, and a
    two-path self-join at either plan equals full_join_dedup over the
    floor, with and without counts. Blocks of a single multiply-add make
    every input run on all the workers, cut into as many blocks as it has
    rows."""
    fam = apps.SetFamily.from_dict(raw)
    want = oracle_ssj(raw, c)
    n = max(fam.relation.n, 1)
    plans = (CORNER, ThresholdPlan(FULL_JOIN, n, n))
    with mock.patch.object(core, "worker_count", lambda: workers), \
            mock.patch.object(core, "_BLOCK_MADDS", 1):
        for plan in plans:
            res = apps.ssj_mmjoin(fam, c, plan)
            assert (np.diff(res.codes) > 0).all()
            assert {canon_pair(*raw_pair(fam, a, b)): cnt
                    for (a, b), cnt in pair_counts(res).items()} == want
        idx = fam.indexed
        full = jp.full_join_dedup(idx, idx, want_counts=True)
        for floor, plan, want_counts in product({1, c}, plans, (False, True)):
            over = full.counts >= floor
            res = jp.two_path_join(idx, idx, plan, want_counts, floor)
            assert np.array_equal(res.codes, full.codes[over])
            if want_counts:
                assert np.array_equal(res.counts, full.counts[over])
            else:
                assert res.counts is None


def _family_of_400():
    """400 sets of 1-60 over 200 elements: its Gram has ~16M multiply-adds,
    enough for three workers."""
    return apps.SetFamily.from_dict(
        random_family(np.random.default_rng(3), 400, 200, 60))


@pytest.mark.parametrize("c", [1, 3])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, c):
    fam = _family_of_400()
    idx = fam.indexed
    joins, pairs = [], []
    for workers in (1, 2, 3):
        monkeypatch.setattr(core, "worker_count", lambda: workers)
        res = jp.two_path_join(idx, idx, CORNER, want_counts=True, floor=c)
        assert res.stats["workers"] == workers
        assert res.stats["blocks"] == 2 * workers
        joins.append(res)
        pairs.append(apps.ssj_mmjoin(fam, c, CORNER))
    full = jp.full_join_dedup(idx, idx, want_counts=True)
    over = full.counts >= c
    for res in joins:
        assert np.array_equal(res.codes, full.codes[over])
        assert np.array_equal(res.counts, full.counts[over])
    for res in pairs[1:]:
        assert np.array_equal(res.codes, pairs[0].codes)
        assert np.array_equal(res.counts, pairs[0].counts)


def test_a_block_past_2_24_runs_in_float64(monkeypatch):
    # 200 columns of counts up to 299: a block entry may reach
    # 200 * 299^2 > 2^24, so float32 could round; float64 cannot
    v = CountMatrix(np.random.default_rng(9).integers(0, 300, (50, 200)))
    tiers = []
    exact = core.exact_type
    monkeypatch.setattr(core, "exact_type",
                        lambda bound: tiers.append(exact(bound)) or tiers[-1])
    monkeypatch.setattr(core, "_BLOCK_MADDS", 1)
    product = v.data @ v.data.T
    blocks, tier, threads = core.multiply_counts(
        v, CountMatrix(v.data.T), lambda lo, hi, block: (lo, hi, block),
        triangle=True, workers=2)
    assert tiers == [np.float64] and tier is np.float64 and threads == 2
    assert len(blocks) > 1 and blocks[0][0] == 0 and blocks[-1][1] == 50
    for (lo, hi, block), (nxt, _, _) in zip(blocks,
                                            blocks[1:] + [(50, 0, 0)]):
        assert hi == nxt and block.dtype == np.float64
        # the block's rows against the columns from its first row on
        assert np.array_equal(block, product[lo:hi, lo:])


def test_the_corner_never_allocates_the_pair_space():
    # 3000 sets of 1-8 over 60 elements: their pair space holds 9M counts,
    # 72 MB as int64; the corner peaks under a byte a pair
    fam = apps.SetFamily.from_dict(
        random_family(np.random.default_rng(5), 3000, 60, 8))
    idx, n = fam.indexed, len(fam)
    tracemalloc.start()
    try:
        res = jp.two_path_join(idx, idx, CORNER, want_counts=True, floor=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak
    full = jp.full_join_dedup(idx, idx, want_counts=True)
    over = full.counts >= 3
    assert np.array_equal(res.codes, full.codes[over])
    assert np.array_equal(res.counts, full.counts[over])


def test_the_corner_counts_its_blocks_before_allocating(monkeypatch):
    fam = _family_of_400()
    idx = fam.indexed
    built = mock.Mock(wraps=jp.heavy_matrices)
    multiplied = mock.Mock(wraps=jp.multiply_counts)
    monkeypatch.setattr(jp, "heavy_matrices", built)
    monkeypatch.setattr(jp, "multiply_counts", multiplied)
    # V alone (400 x 200) fits; its blocks (more than 400^2 / 2) do not
    monkeypatch.setattr(jp, "_ENTRY_BUDGET", 400 * 200 + 400 * 400 // 2)
    with pytest.raises(jp.StarResourceError, match="over the budget"):
        jp.two_path_join(idx, idx, CORNER, floor=2)
    assert not built.called and not multiplied.called
    monkeypatch.setattr(jp, "_ENTRY_BUDGET", 1 << 28)
    assert len(jp.two_path_join(idx, idx, CORNER, floor=2))
    assert built.called and multiplied.called


def test_an_error_in_a_worker_surfaces_as_itself(monkeypatch):
    fam = _family_of_400()
    fail_off_the_main_thread(monkeypatch)
    with pytest.raises(WorkerBoom, match="raised in a worker"):
        apps.ssj_mmjoin(fam, 2, CORNER)


def test_run_shared_runs_each_task_once_in_order():
    """More threads than cores and a short switch interval: every task runs
    once, and its result lands at its place."""
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            runs.clear()
            got = core.run_shared(lambda t: runs.append(t) or t * t,
                                  range(500), workers)
            assert got == [t * t for t in range(500)]
            assert sorted(runs) == list(range(500))
    finally:
        sys.setswitchinterval(interval)
    assert core.run_shared(lambda t: t, [], 2) == []


@pytest.mark.parametrize("rows,inner,workers", [
    (1000, 500, 2), (1000, 500, 1), (200, 200, 2), (5000, 30, 3), (1, 5, 2),
    (3, 1, 4), (0, 5, 2)])
def test_gram_cuts_cover_the_rows_in_balanced_blocks(rows, inner, workers):
    """A triangle's cuts (W is V) give its blocks about equal entries, and
    a rectangle's (here rows x 3 rows) equal heights."""
    _, blocks, held = core.block_plan(rows, inner, rows, workers, True)
    cuts = core.row_cuts(rows, blocks, True)
    assert cuts[0] == 0 and cuts[-1] == rows
    assert all(lo < hi for lo, hi in zip(cuts, cuts[1:]))
    assert len(cuts) - 1 <= blocks
    entries = [(hi - lo) * (rows - lo) for lo, hi in zip(cuts, cuts[1:])]
    if len(entries) > 1:
        # each block holds about the same entries, the last one less
        assert max(entries) <= 1.2 * min(entries[:-1])
    assert sum(entries) == pytest.approx(held, rel=0.05)
    _, blocks, held = core.block_plan(rows, inner, 3 * rows, workers)
    cuts = core.row_cuts(rows, blocks)
    assert len(cuts) - 1 == blocks and held == 3 * rows * rows
    heights = np.diff(cuts)
    assert heights.sum() == rows and (rows == 0 or np.ptp(heights) <= 1)


@pytest.mark.parametrize("shape", [(0, 1, 0, 1), (0, 0)])
@pytest.mark.parametrize("seed", [4, 5])
def test_star_self_joins_run_their_corner_as_gram_blocks(monkeypatch, shape,
                                                         seed):
    """A star whose last inputs repeat its first ones (r, s, r, s, and r, r)
    is a self-join too: at thresholds 0 its product is a Gram matrix over
    combinations of left values, and it counts what the oracle counts."""
    monkeypatch.setattr(core, "worker_count", lambda: 2)
    monkeypatch.setattr(core, "_BLOCK_MADDS", 1)
    rng = np.random.default_rng(seed)
    pairs = [random_pairs(rng, 40, 8, 5), random_pairs(rng, 40, 8, 5)]
    rel_pairs = [pairs[i] for i in shape]
    made = [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(pairs)]
    idxs = build_indexes(semi_join_reduce_many([made[i] for i in shape]))
    res = jp.star_join(idxs, 0, 0, want_counts=True)
    assert res.stats["blocks"] > 0 and res.stats["workers"] == 2
    assert res.stats["light_intermediate"] == 0
    got = {tuple(idx.rel.left_values[v] for idx, v in zip(idxs, t)): int(c)
           for t, c in zip(res.tuples().tolist(), res.counts.tolist())}
    assert got == dict(oracle_star(rel_pairs))
    plain = jp.star_join(idxs, 0, 0)
    assert np.array_equal(plain.codes, res.codes) and plain.counts is None


def _shape(name, seed):
    """(pair lists, indexed relations) of a two-path self-join ("self"), a
    two-path join of two relations ("two"), a k=3 star ("star3") and a k=4
    star whose last two inputs repeat its first two ("star4self")."""
    rng = np.random.default_rng(seed)
    r, s, t = (random_pairs(rng, 60, 12, 6) for _ in range(3))
    lists = {"self": [r, r], "two": [r, s], "star3": [r, s, t],
             "star4self": [r, s, r, s]}[name]
    made = {}
    rels = [made.setdefault(id(p), Relation.from_raw_pairs(f"R{len(made)}", p))
            for p in lists]
    return lists, build_indexes(semi_join_reduce_many(rels))


def _join(idxs, plan, want_counts, floor):
    if len(idxs) == 2:
        return jp.two_path_join(*idxs, plan, want_counts, floor)
    return jp._partitioned(idxs, len(idxs) - 1, plan, want_counts, floor)


@pytest.mark.parametrize("shape", ["self", "two", "star3", "star4self"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("floor", [1, 3])
def test_every_plan_gives_the_oracle_on_every_worker_count(monkeypatch,
                                                           shape, workers,
                                                           floor):
    """The all-heavy corner, 1/1, the planned plan and the full join give
    the oracle's tuples counted at least `floor` times, with and without
    counts, on 1-3 workers with blocks of one multiply-add (so a product is
    cut into two blocks per thread, a self-join's on one thread too); a
    two-path join also gives what full_join_dedup gives."""
    monkeypatch.setattr(core, "worker_count", lambda: workers)
    monkeypatch.setattr(core, "_BLOCK_MADDS", 1)
    lists, idxs = _shape(shape, workers + floor)
    want = {t: c for t, c in oracle_star(lists).items() if c >= floor}
    n = max(ri.n for ri in idxs) + 1
    plans = [CORNER, ThresholdPlan(PARTITIONED, 1, 1),
             opt.price_plan(idxs, 2 if len(idxs) == 2 else len(idxs) - 1,
                            floor=floor).plan(),
             ThresholdPlan(FULL_JOIN, n, n)]
    blocks = 0
    for plan, want_counts in product(plans, (False, True)):
        res = _join(idxs, plan, want_counts, floor)
        assert (np.diff(res.codes) > 0).all()
        assert res.stats["workers"] <= workers
        blocks = max(blocks, res.stats["blocks"])
        got = [tuple(idx.rel.left_values[v] for idx, v in zip(idxs, t))
               for t in res.tuples().tolist()]
        if want_counts:
            assert dict(zip(got, res.counts.tolist())) == want
        else:
            assert res.counts is None and set(got) == set(want)
        if len(idxs) == 2:
            full = jp.full_join_dedup(*idxs, want_counts=True)
            assert np.array_equal(res.codes, full.codes[full.counts >= floor])
    # one thread runs a rectangle whole
    assert blocks > 1 or (workers == 1 and not opt.self_join(idxs))


@pytest.mark.parametrize("shape", ["two", "star3"])
def test_an_error_in_a_worker_surfaces_on_every_plan(monkeypatch, shape):
    """Off the corner and on a star, the product's blocks run on the
    workers too, and an error there is raised as itself."""
    monkeypatch.setattr(core, "_BLOCK_MADDS", 1)
    _, idxs = _shape(shape, 0)
    plan = ThresholdPlan(PARTITIONED, 1, 1)
    assert _join(idxs, plan, False, 1).stats["blocks"] > 1
    fail_off_the_main_thread(monkeypatch)
    with pytest.raises(WorkerBoom, match="raised in a worker"):
        _join(idxs, plan, False, 1)


def test_the_ci_community_graph_multiplies_on_two_workers(monkeypatch):
    """`gen --kind community --nodes 200 --seed 7`, which CI runs on one
    CPU and on every CPU: its k=3 star, at 20/20 and planned, multiplies on
    two threads where two CPUs are there."""
    monkeypatch.setattr(core, "worker_count", lambda: 2)
    idx = build_indexed(generate_community_graph(200, 3, 0.9, seed=7))
    for delta in (20, None):
        assert jp.star_join([idx] * 3, delta, delta).stats["workers"] == 2


def test_the_dense_emit_loses_no_update_on_many_threads(monkeypatch):
    """Blocks of one multiply-add on 8 threads (more than the cores) with a
    short switch interval add a self-join's product and its mirrors into
    one buffer, beside light codes: every entry is written by one block, so
    none is lost."""
    monkeypatch.setattr(core, "worker_count", lambda: 8)
    monkeypatch.setattr(core, "_BLOCK_MADDS", 1)
    rng = np.random.default_rng(11)
    keys = np.sort(rng.choice(90, 60, replace=False))
    v = CountMatrix(rng.integers(0, 2, (60, 7), dtype=np.uint8),
                    row_keys=keys)
    codes = rng.integers(0, 90 * 90, 2000)
    want = np.bincount(codes, minlength=90 * 90).reshape(90, 90)
    want[np.ix_(keys, keys)] += v.data.astype(np.int64) @ v.data.T
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = jp._dedup_output(codes, (90, 90), True, True,
                               [(v, CountMatrix(v.data.T, col_keys=keys))],
                               triangle=True)
    finally:
        sys.setswitchinterval(interval)
    assert out.stats["emit"] == "dense" and out.stats["workers"] == 8
    assert np.array_equal(out.codes, np.flatnonzero(want))
    assert np.array_equal(out.counts, want.ravel()[out.codes])
