import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import (
    EXAMPLE_LISTS,
    EXAMPLE_SETS,
    canon_pair,
    oracle_scj,
    oracle_size_boundary,
    oracle_ssj,
    oracle_ssj_ordered,
    pair_counts,
    pair_set,
    random_family,
    random_pairs,
    raw_id,
    raw_pair,
    uniform_workload,
)
from mmjoin import apps, cli, joinproject
from mmjoin.joinproject import StarResourceError, two_path_join
from mmjoin.optimizer import PARTITIONED, ThresholdPlan
from mmjoin.relation import (
    ParseError,
    Relation,
    build_indexed,
    semi_join_reduce,
)

_FAMILIES = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(12)]),
    st.lists(st.integers(0, 9), min_size=1, max_size=7),
    max_size=12)


def _raw_pairs(family, res):
    return {canon_pair(*raw_pair(family, a, b))
            for a, b in res.tuples().tolist()}


def test_set_family_basics():
    fam = apps.SetFamily.from_dict({"a": [1, 2], "b": [2]})
    assert len(fam) == 2
    assert fam.indexed.left_deg[0] == 2
    assert raw_id(fam, 0) == "a"


def test_set_family_builds_sets_on_first_use():
    fam = apps.SetFamily.from_dict({"a": [1, 2], "b": [2]})
    assert len(fam) == 2 and fam.indexed.left_deg[1] == 1
    assert "sets" not in vars(fam)
    assert fam.sets[0].tolist() == [0, 1] and fam.sets is fam.sets


@pytest.mark.parametrize("c", [1, 2, 3])
def test_ssj_methods_agree_with_oracle(c):
    rng = np.random.default_rng(20 + c)
    raw = random_family(rng, 40, 30, 12)
    fam = apps.SetFamily.from_dict(raw)
    oracle = oracle_ssj(raw, c)
    mm = apps.ssj_mmjoin(fam, c)
    assert {canon_pair(*raw_pair(fam, a, b)): cnt
            for (a, b), cnt in pair_counts(mm).items()} == oracle
    assert _raw_pairs(fam, apps.ssj_size_aware(fam, c)) == set(oracle)
    pp, ops = apps.ssj_size_aware_pp(fam, c)
    assert _raw_pairs(fam, pp) == set(oracle)
    assert ops >= 0


@pytest.mark.parametrize("c", [3, 4])
def test_size_aware_heavy_and_light_sets_agree_with_oracle(c):
    """Sets on both sides of the size boundary: the heavy ones by their
    full join with every set, the light ones by their c-subsets."""
    raw = random_family(np.random.default_rng(43), 40, 60, 25)
    fam = apps.SetFamily.from_dict(raw)
    heavy = apps._heavy_sets(fam, c)
    assert heavy.any() and not heavy.all()
    assert _raw_pairs(fam, apps.ssj_size_aware(fam, c)) == \
        set(oracle_ssj(raw, c))


def test_ssj_rejects_bad_threshold():
    fam = apps.SetFamily.from_dict({"a": [1]})
    for fn in (apps.ssj_mmjoin, apps.ssj_size_aware):
        with pytest.raises(ValueError):
            fn(fam, 0)
    with pytest.raises(ValueError):
        apps.ssj_size_aware_pp(fam, 0)


def test_ssj_ordered_sorting(tmp_path):
    """The ordering lives in `ssj --method ordered`."""
    fam = {"a": [1, 2, 3], "b": [1, 2, 3], "c": [1, 9], "d": [1, 8]}
    path = tmp_path / "f.txt"
    path.write_text("".join(f"{sid} {e}\n"
                            for sid, elems in fam.items() for e in elems))
    res = CliRunner().invoke(cli.main, ["ssj", "--sets", str(path), "--c",
                                        "1", "--method", "ordered"])
    assert res.exit_code == 0
    assert res.output.splitlines() == oracle_ssj_ordered(fam, 1)
    ordered = [line.split() for line in res.output.splitlines()]
    counts = [int(cnt) for _, _, cnt in ordered]
    assert counts == sorted(counts, reverse=True)
    pairs_at_one = [(a, b) for a, b, cnt in ordered if cnt == "1"]
    assert pairs_at_one == sorted(pairs_at_one)


def test_get_size_boundary_matches_exhaustive():
    rng = np.random.default_rng(30)
    raw = random_family(rng, 25, 20, 10)
    fam = apps.SetFamily.from_dict(raw)
    for c in (1, 2, 3):
        sizes = sorted(fam.indexed.left_deg.tolist())
        best = None
        for x in sorted(set(sizes)):
            heavy_cost = 0
            for h in sizes:
                if h > x:
                    heavy_cost += sum(min(r, h) for r in sizes)
            light_cost = sum(math.comb(r, c) for r in sizes if r <= x)
            cost = heavy_cost + light_cost
            if best is None or cost < best[1]:
                best = (x, cost)
        assert apps.get_size_boundary(fam, c) == best[0]


_SIZE_FAMILIES = st.one_of(
    _FAMILIES,
    # every set the same size
    st.integers(1, 6).flatmap(lambda k: st.dictionaries(
        st.sampled_from([f"s{i}" for i in range(12)]),
        st.just(list(range(k))), max_size=12)))


@settings(max_examples=200, deadline=None)
@given(_SIZE_FAMILIES, st.integers(1, 9))
def test_get_size_boundary_matches_quadratic_oracle(raw, c):
    """c up to 9 goes past every size (sets hold at most 7 elements)."""
    fam = apps.SetFamily.from_dict(raw)
    assert apps.get_size_boundary(fam, c) == oracle_size_boundary(fam, c)


def test_get_size_boundary_edge_families():
    empty = apps.SetFamily.from_dict({})
    assert apps.get_size_boundary(empty, 2) == 0 == oracle_size_boundary(empty, 2)
    same = apps.SetFamily.from_dict({f"s{i}": [1, 2, 3] for i in range(5)})
    assert apps.get_size_boundary(same, 2) == 3 == oracle_size_boundary(same, 2)
    # sizes 2 and 4 with c=2 cost 7 at either boundary: the smaller wins
    tie = apps.SetFamily.from_dict({"a": [1, 2], "b": [1, 2, 3, 4]})
    assert apps.get_size_boundary(tie, 2) == 2 == oracle_size_boundary(tie, 2)
    mixed = apps.SetFamily.from_dict({"a": [1], "b": [1, 2], "c": [1, 2, 3]})
    for c in (1, 2, 3, 4, 10):
        assert apps.get_size_boundary(mixed, c) == oracle_size_boundary(mixed, c)


def _same_sets(count, size):
    """`count` sets of the elements 0..size-1: all the same size, so all
    light for SizeAware, and each pair shares all C(size, c) c-subsets."""
    return {f"s{i}": list(range(size)) for i in range(count)}


@pytest.mark.parametrize("budget, error", [
    (2000, "2184 c-subsets"), (5000, "5460 bucket pairs"), (5460, None)],
    ids=["subsets", "pairs", "within"])
def test_size_aware_budget_counts_subsets_then_pairs(monkeypatch, budget,
                                                     error):
    """Six light 14-element sets at c = 3 index 6 * C(14, 3) = 2184
    c-subsets, and their 364 buckets of 6 sets give 364 * 15 = 5460 bucket
    pairs, every pair of sets 364 times."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", budget)
    raw = _same_sets(6, 14)
    fam = apps.SetFamily.from_dict(raw)
    assert not apps._heavy_sets(fam, 3).any()
    if error is None:
        assert _raw_pairs(fam, apps.ssj_size_aware(fam, 3)) == \
            set(oracle_ssj(raw, 3))
    else:
        with pytest.raises(StarResourceError, match=error):
            apps.ssj_size_aware(fam, 3)


def test_size_aware_without_heavy_sets_runs_no_join(monkeypatch):
    """At c = 1 a family of equal-sized sets has no heavy set, so the heavy
    side returns no pairs without a two-path join, and the light side's
    pairs are the oracle's."""
    raw = _same_sets(5, 3)
    raw.update(t0=[7, 8, 9], t1=[9, 10, 11], t2=[12, 13, 14])
    fam = apps.SetFamily.from_dict(raw)
    assert not apps._heavy_sets(fam, 1).any()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return two_path_join(*args, **kwargs)

    monkeypatch.setattr(apps, "two_path_join", spy)
    assert _raw_pairs(fam, apps.ssj_size_aware(fam, 1)) == \
        set(oracle_ssj(raw, 1))
    assert calls == []


def test_size_aware_over_budget_raises_before_allocating(monkeypatch):
    """Six 30-element sets at c = 5 have 6 * C(30, 5) = 855,036 c-subsets,
    34 MB of int64 elements; the error comes before any of them exists."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", 1000)
    fam = apps.SetFamily.from_dict(_same_sets(6, 30))
    tracemalloc.start()
    try:
        with pytest.raises(StarResourceError, match="855036 c-subsets"):
            apps.ssj_size_aware(fam, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_size_aware_folds_subset_keys_past_2_63(monkeypatch):
    """55,110 singleton sets, each its own element, make |U|^4 > 2^63, so
    the folded 4-subset keys are re-ranked before the last column; the two
    light sets sharing four elements are still the one pair found."""
    raw = {f"one{i}": [10 + i] for i in range(55110)}
    raw.update(a=[0, 1, 2, 3, 4], b=[0, 1, 2, 3, 5])
    fam = apps.SetFamily.from_dict(raw)
    assert fam.relation.dom_right ** 4 > 2 ** 63
    calls = []

    def dense_rank(keys, space):
        calls.append(space)
        return joinproject._dense_rank(keys, space)

    monkeypatch.setattr(apps, "_dense_rank", dense_rank)
    assert not apps._heavy_sets(fam, 4)[[fam.relation.left_ids["a"],
                                         fam.relation.left_ids["b"]]].any()
    assert _raw_pairs(fam, apps.ssj_size_aware(fam, 4)) == {("a", "b")}
    assert calls == [fam.relation.dom_right ** 3]


def test_prefix_merge_example_accounting():
    with_reuse, ops_reuse = apps.prefix_merge_partners(
        EXAMPLE_SETS, EXAMPLE_LISTS, 2, depth_cap=8)
    no_reuse, ops_flat = apps.prefix_merge_partners(
        EXAMPLE_SETS, EXAMPLE_LISTS, 2, depth_cap=0)
    assert (ops_reuse, ops_flat) == (9, 18)
    assert with_reuse == no_reuse
    assert with_reuse["A1"] == {"C1", "C2", "C3"}
    assert with_reuse["A2"] == {"C1", "C2", "C3", "C4"}


def test_prefix_merge_matches_brute_force():
    rng = np.random.default_rng(31)
    raw = random_family(rng, 25, 15, 8)
    inverted = {}
    for sid, elems in raw.items():
        for e in elems:
            inverted.setdefault(e, []).append(sid)
    for c in (1, 2):
        got, ops = apps.prefix_merge_partners(
            {sid: list(elems) for sid, elems in raw.items()}, inverted, c)
        for sid, elems in raw.items():
            counts = {}
            for e in elems:
                for other in inverted[e]:
                    counts[other] = counts.get(other, 0) + 1
            expected = {o for o, k in counts.items() if k >= c}
            assert got[sid] == expected
        assert ops > 0


def test_scj_matches_subset_oracle():
    rng = np.random.default_rng(32)
    raw = random_family(rng, 30, 18, 8)
    fam = apps.SetFamily.from_dict(raw)
    got = {raw_pair(fam, a, b)
           for a, b in pair_set(apps.scj_join_project(fam))}
    assert got == oracle_scj(raw)


# 2000 sets, each with its own two elements: no set of a family over the
# elements 0..9 is inside one of them or holds one, so they add no pair, and
# the (set x element) space of a family padded with them is ~2000 times its
# tuples
_PADDING = {f"pad{i}": [100 + 2 * i, 101 + 2 * i] for i in range(2000)}


def _scj_raw(raw):
    """The family of `raw` and its SCJ pairs in raw ids; the codes ascend."""
    fam = apps.SetFamily.from_dict(raw)
    res = apps.scj_join_project(fam)
    assert (np.diff(res.codes) > 0).all()
    return fam, {raw_pair(fam, a, b) for a, b in pair_set(res)}


@settings(max_examples=100, deadline=None)
@given(_FAMILIES, st.booleans())
def test_scj_property_on_both_probe_paths(raw, padded):
    fam, got = _scj_raw({**raw, **_PADDING} if padded else raw)
    # a bitmap while the space is small next to the tuples, else a search
    assert (fam.indexed._tuple_table.dtype == bool) != padded
    assert got == oracle_scj(raw)


def test_scj_over_budget_raises_before_allocating():
    """One element in 20,000 sets makes 4e8 candidate pairs, past the
    budget; the error comes before an array of them (3.2 GB) exists."""
    fam = apps.SetFamily.from_dict({f"s{i}": [0] for i in range(20000)})
    tracemalloc.start()
    try:
        with pytest.raises(StarResourceError, match="candidate pairs"):
            apps.scj_join_project(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("budget, error", [
    (2, "3 candidate pairs"), (5, "10 membership probes"), (10, None)])
def test_scj_budget_counts_candidates_then_probes(monkeypatch, budget, error):
    """a's rarest element (0, a tie broken by id) is in a and b, and b's (10)
    in b alone: 3 candidates, and b survives as a's superset, verified by
    10 probes."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", budget)
    raw = {"a": list(range(10)), "b": list(range(11))}
    if error is None:
        assert _scj_raw(raw)[1] == {("a", "b")}
    else:
        with pytest.raises(StarResourceError, match=error):
            _scj_raw(raw)


def _check_ssj_scj(raw, c):
    fam = apps.SetFamily.from_dict(raw)
    mm = pair_counts(apps.ssj_mmjoin(fam, c))
    assert all(fam.first_seen(a, b) for a, b in mm)
    got = {canon_pair(*raw_pair(fam, a, b)): cnt for (a, b), cnt in mm.items()}
    assert got == oracle_ssj(raw, c)
    pp, _ = apps.ssj_size_aware_pp(fam, c)
    assert _raw_pairs(fam, pp) == set(got)
    assert _raw_pairs(fam, apps.ssj_size_aware(fam, c)) == set(got)
    assert _scj_raw(raw)[1] == oracle_scj(raw)


@pytest.mark.parametrize("shape, dense", [
    ((60, 5, 5), True),     # overlaps fill the pair space: counted densely
    ((60, 400, 3), False),  # few overlaps in a large pair space: sorted
])
@pytest.mark.parametrize("plan", [None, ThresholdPlan(PARTITIONED, 2, 2)])
def test_ssj_scj_on_either_side_of_the_size_rule(shape, dense, plan):
    raw = random_family(np.random.default_rng(sum(shape)), *shape)
    fam = apps.SetFamily.from_dict(raw)
    res = two_path_join(fam.indexed, fam.indexed, plan=plan, want_counts=True)
    assert res.stats["emit"] == ("dense" if dense else "codes")
    if dense and plan is not None:
        # the explicit plan merges a heavy block into the buffer; the
        # default plan of a family over 5 elements is the full join
        assert res.stats["heavy_pairs"] > 0
    for c in (1, 2, 3):
        kept = apps.ssj_mmjoin(fam, c, plan)
        assert kept.dims == res.dims
        assert (np.diff(kept.codes) > 0).all()
        got = {canon_pair(*raw_pair(fam, x, y)): n
               for (x, y), n in zip(kept.tuples().tolist(),
                                    kept.counts.tolist())}
        assert got == oracle_ssj(raw, c)
        pp, _ = apps.ssj_size_aware_pp(fam, c)
        assert _raw_pairs(fam, pp) == set(got)
        assert _raw_pairs(fam, apps.ssj_size_aware(fam, c)) == set(got)
    kept = apps.scj_join_project(fam)
    assert (np.diff(kept.codes) > 0).all()
    assert {raw_pair(fam, x, y) for x, y in kept.tuples().tolist()} \
        == oracle_scj(raw)


@settings(max_examples=150, deadline=None)
@given(_FAMILIES, st.integers(1, 8))
def test_ssj_scj_property(raw, c):
    _check_ssj_scj(raw, c)


@pytest.mark.parametrize("raw", [
    {},  # empty family
    {"a": [1]},
    {"a": [1], "b": [1], "c": [2]},  # singletons: scj probes no second
    {"a": [1, 2, 3], "b": [3, 2, 1], "c": [1, 2]},  # scj emits a b and b a
    {"a": [1, 2], "b": [2, 3], "c": [1, 3], "d": [3, 2, 1]},  # rarity ties
    {"x": [5], **{f"s{i}": [i, 5] for i in range(20)}},  # x inside all
    {"big": list(range(20)), **{f"s{i}": [i] for i in range(20)}},
])
@pytest.mark.parametrize("c", [1, 2, 4])  # 4 exceeds every set size
def test_ssj_scj_edge_families(raw, c):
    _check_ssj_scj(raw, c)


def test_bsi_batch_size():
    assert apps.bsi_batch_size(1000, 10 ** 6) == 251189
    assert apps.bsi_batch_size(1, 1) == 1
    with pytest.raises(ValueError):
        apps.bsi_batch_size(0, 10)


def test_bsi_batch_size_past_the_float_range():
    """rate * N past the largest float still has its 3/5 power, and the
    size keeps growing with the rate."""
    size = apps.bsi_batch_size(1e308, 2)
    assert math.isclose(math.log10(size), 0.6 * (308 + math.log10(2)))
    assert apps.bsi_batch_size(1e307, 2) < size


def test_bsi_answer_batch_oracle_and_markers():
    rng = np.random.default_rng(33)
    r_pairs = random_pairs(rng, 200, 30, 25)
    s_pairs = random_pairs(rng, 200, 30, 25)
    r = build_indexed(Relation.from_raw_pairs("R", r_pairs))
    s = build_indexed(Relation.from_raw_pairs("S", s_pairs))
    r_adj = {}
    s_adj = {}
    for a, y in r_pairs:
        r_adj.setdefault(a, set()).add(y)
    for b, y in s_pairs:
        s_adj.setdefault(b, set()).add(y)
    batch = [(int(a), int(b)) for a, b in rng.integers(0, 30, (60, 2))]
    batch.append((999, 0))  # unknown id -> None marker
    answers = apps.bsi_answer_batch(r, s, batch)
    for (a, b), got in zip(batch, answers):
        if a not in r_adj or b not in s_adj:
            assert got is None
        else:
            assert got == bool(r_adj[a] & s_adj[b])


def _adjacency(pairs):
    adj = {}
    for a, y in pairs:
        adj.setdefault(a, set()).add(y)
    return adj


def _bsi_oracle(r, s, r_pairs, s_pairs, batch):
    """None for an id unknown to its relation, else whether the sets meet."""
    r_adj, s_adj = _adjacency(r_pairs), _adjacency(s_pairs)
    return [None if a not in r.rel.left_ids or b not in s.rel.left_ids
            else bool(r_adj.get(a, set()) & s_adj.get(b, set()))
            for a, b in batch]


def test_bsi_answer_batch_one_shared_index():
    rng = np.random.default_rng(34)
    pairs = random_pairs(rng, 300, 40, 30)
    idx = build_indexed(Relation.from_raw_pairs("R", pairs))
    batch = [(int(a), int(b)) for a, b in rng.integers(0, 42, (80, 2))]
    assert apps.bsi_answer_batch(idx, idx, batch) == \
        _bsi_oracle(idx, idx, pairs, pairs, batch)


def test_bsi_known_set_without_shared_elements_is_false():
    # every element of set a and of set b is missing from the other side
    r = Relation.from_raw_pairs("R", [("a", 1), ("a", 2), ("c", 5)])
    s = Relation.from_raw_pairs("S", [("b", 3), ("d", 5)])
    batch = [("a", "b"), ("a", "d"), ("c", "d"), ("x", "b")]
    for pair in ((r, s), semi_join_reduce(r, s)):
        assert apps.bsi_answer_batch(*map(build_indexed, pair), batch) == \
            [False, False, True, None]
    idx = build_indexed(Relation.from_raw_pairs("F", [("a", 1), ("b", 2)]))
    assert apps.bsi_answer_batch(idx, idx, [("a", "b"), ("a", "a")]) == \
        [False, True]


def test_bsi_empty_unknown_and_repeated_batches():
    pairs = [("a", 1), ("a", 2), ("b", 2), ("c", 3)]
    idx = build_indexed(Relation.from_raw_pairs("R", pairs))
    assert apps.bsi_answer_batch(idx, idx, []) == []
    assert apps.bsi_answer_batch(idx, idx, [("x", "y"), ("a", "y"),
                                            ("x", "a")]) == [None] * 3
    batch = [("a", "b"), ("c", "a"), ("a", "b"), ("c", "a"), ("a", "b")]
    assert apps.bsi_answer_batch(idx, idx, batch) == \
        [True, False, True, False, True]


_BSI_PAIRS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                      max_size=30)


# 300 sets, each with its own two elements, in both relations: the
# (set x element) space of a relation padded with them is ~300 times its
# tuples, so its probe table is the sorted codes
_BSI_PADDING = [(100 + i, 100 + 2 * i + k) for i in range(300) for k in (0, 1)]


@settings(max_examples=150, deadline=None)
@given(_BSI_PAIRS, _BSI_PAIRS,
       st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25),
       st.sampled_from(["separate", "aligned", "same", "split"]),
       st.booleans())
def test_bsi_answer_batch_property(r_pairs, s_pairs, batch, layout, padded):
    if padded:
        r_pairs, s_pairs = r_pairs + _BSI_PADDING, s_pairs + _BSI_PADDING
    if layout in ("separate", "aligned"):
        # own dictionaries, aligned inside the call or before it
        pair = (Relation.from_raw_pairs("R", r_pairs),
                Relation.from_raw_pairs("S", s_pairs))
        if layout == "aligned":
            pair = semi_join_reduce(*pair)
        r, s = map(build_indexed, pair)
    elif layout == "same":
        r = s = build_indexed(Relation.from_raw_pairs("R", r_pairs))
        s_pairs = r_pairs
    else:  # two parts of one relation share both dictionaries
        whole = Relation.from_raw_pairs("U", r_pairs + s_pairs)
        mine = set(r_pairs)
        in_r = np.array([p in mine for p in whole.raw_pairs()], dtype=bool)
        r = build_indexed(Relation.from_encoded("R", whole.pairs[in_r], whole))
        s = build_indexed(Relation.from_encoded("S", whole.pairs[~in_r], whole))
        s_pairs = [p for p in whole.raw_pairs() if p not in mine]
    assert apps.bsi_answer_batch(r, s, batch) == \
        _bsi_oracle(r, s, r_pairs, s_pairs, batch)
    # a bitmap while the space is small next to the tuples, else a search
    # (the separate layout probes its aligned copies, padded alike)
    for idx in (r, s):
        if padded:
            assert idx._tuple_table.dtype == np.int64
        elif idx.n:
            assert idx._tuple_table.dtype == bool


def test_bsi_answers_without_a_join(monkeypatch):
    """BSI probes sets: it runs no two-path join and builds no index per
    batch, and still answers what the oracle answers."""
    rng = np.random.default_rng(35)
    r_pairs = random_pairs(rng, 200, 30, 25)
    s_pairs = random_pairs(rng, 200, 30, 25)
    r, s = map(build_indexed, semi_join_reduce(
        Relation.from_raw_pairs("R", r_pairs),
        Relation.from_raw_pairs("S", s_pairs)))

    def refuse(*args, **kwargs):
        raise AssertionError("BSI joined or indexed a batch")

    monkeypatch.setattr(apps, "two_path_join", refuse)
    monkeypatch.setattr(apps, "build_indexed", refuse)
    batch = [(int(a), int(b)) for a, b in rng.integers(0, 32, (200, 2))]
    for _ in range(2):
        assert apps.bsi_answer_batch(r, s, batch) == \
            _bsi_oracle(r, s, r_pairs, s_pairs, batch)


def test_bsi_workload_validation():
    with pytest.raises(ValueError):
        apps.BsiWorkload([("a", "b", 2.0), ("a", "b", 1.0)], rate=10)
    wl = uniform_workload([("a", "b")] * 5, rate=10)
    assert [t for _, _, t in wl.queries] == [i / 10 for i in range(5)]


def test_bsi_workload_from_file_rejects_earlier_arrivals(tmp_path):
    """The first line that arrives before the query above it is named, past
    comments and blank lines, with the file's path."""
    path = tmp_path / "wl.txt"
    path.write_text("a b 5\na b 5\n# c\n\na b 4\na b 1\n")
    with open(path, encoding="utf-8") as f, \
            pytest.raises(ParseError) as exc:
        apps.BsiWorkload.from_file(f, rate=10.0)
    assert exc.value.line_no == 5
    assert str(exc.value).startswith(f"{path}, line 5: arrival time 4")


def test_bsi_simulate_uniform_identity():
    # instantaneous processing: average delay = (C - 1) / (2B)
    wl = uniform_workload([("a", "b")] * 100, rate=50.0)
    for c in (1, 4, 10, 20):
        sim = apps.bsi_simulate(wl, c, lambda batch: 0.0)
        assert sim.average_delay == pytest.approx((c - 1) / (2 * 50.0))
    with pytest.raises(ValueError):
        apps.bsi_simulate(wl, 0, lambda batch: 0.0)


def test_bsi_simulate_c1_is_processing_time():
    """Batches of one that finish before the next query arrives: each
    query waits its processing time only."""
    wl = uniform_workload([("a", "b")] * 10, rate=100.0)
    sim = apps.bsi_simulate(wl, 1, lambda batch: 0.005)
    assert sim.average_delay == pytest.approx(0.005)
    assert sim.batches == 10
    assert sim.implied_units == pytest.approx(100.0 * 0.005 / 1)


def test_bsi_simulate_keeps_a_backlog():
    """Ten queries 0.01 s apart at 0.25 s each: query i starts when query
    i - 1 completes, at 0.25 i, and waits 0.25 (i + 1) - 0.01 i, 1.33 s on
    average, not the 0.25 s of its processing alone."""
    wl = uniform_workload([("a", "b")] * 10, rate=100.0)
    sim = apps.bsi_simulate(wl, 1, lambda batch: 0.25)
    assert sim.average_delay == pytest.approx(1.33)
    assert sim.batches == 10
    assert sim.implied_units == pytest.approx(100.0 * 0.25 / 1)
    # batches of five fill at 0.04 and 0.09 s; the second starts at 0.29
    sim = apps.bsi_simulate(wl, 5, lambda batch: 0.25)
    assert sim.average_delay == pytest.approx(
        (sum(0.29 - t for t in (0, .01, .02, .03, .04))
         + sum(0.54 - t for t in (.05, .06, .07, .08, .09))) / 10)


def test_bsi_workload_from_file():
    import io
    src = io.StringIO("# comment\na b 1000\nc d 2000\n")
    wl = apps.BsiWorkload.from_file(src, rate=10.0)
    assert wl.queries == [("a", "b", 0.001), ("c", "d", 0.002)]
