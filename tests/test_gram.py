"""The all-heavy corner of a self-join: Gram blocks of the upper triangle
on every worker, the overlap floor kept in the blocks, and no buffer over
the whole pair space."""

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
from mmjoin.optimizer import FULL_JOIN, PARTITIONED, ThresholdPlan
from mmjoin.relation import Relation, build_indexes, semi_join_reduce_many

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
    product = v.data @ v.data.T
    floor = int(np.median(product))
    tasks = [(0, 0, 20), (0, 20, 35), (0, 35, 50)]
    parts = core.gram_upper([v], tasks, floor, True, 2)
    assert tiers == [np.float64]
    i, j, counts = (np.concatenate(p) for p in zip(*parts))
    want = np.triu(product >= floor)
    assert len(i) == want.sum() and (i <= j).all()
    assert np.array_equal(counts, product[i, j])
    assert want[i, j].all()


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
    multiplied = mock.Mock(wraps=jp.gram_upper)
    monkeypatch.setattr(jp, "heavy_matrices", built)
    monkeypatch.setattr(jp, "gram_upper", multiplied)
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
    cuts = core.gram_cuts(rows, inner, workers)
    assert cuts[0] == 0 and cuts[-1] == rows
    assert all(lo < hi for lo, hi in zip(cuts, cuts[1:]))
    blocks = int(core.gram_blocks(rows, inner, workers))
    assert len(cuts) - 1 <= blocks
    entries = [(hi - lo) * (rows - lo) for lo, hi in zip(cuts, cuts[1:])]
    if len(entries) > 1:
        # each block holds about the same entries, the last one less
        assert max(entries) <= 1.2 * min(entries[:-1])
    assert sum(entries) == pytest.approx(
        core.gram_entries(rows, len(entries)), rel=0.05)


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
