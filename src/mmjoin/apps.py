"""Applications: set-similarity joins on top of the two-path join core, and
the set-containment join and batched boolean set intersection by membership
probes.

One overlap probe (_overlaps) counts what pairs of sets share: it verifies
the containment join's candidates and answers each intersection query from
its smaller set; SizeAware joins its heavy sets as the two-path join does."""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Callable, Optional, Sequence

import numpy as np

from .joinproject import (_KEY_LIMIT, OutputSet, _dense_rank, _within_budget,
                          two_path_join)
from .optimizer import FULL_JOIN, ThresholdPlan, estimate_output_size
from .relation import (
    IndexedRelation,
    ParseError,
    Relation,
    _dedup,
    _key_groups,
    build_indexed,
    gather_ranges,
    read_source,
    semi_join_reduce,
)


DEFAULT_PREFIX_DEPTH = 8


class SetFamily:
    """A family of non-empty sets stored as a (set-id, element-id) relation.

    A pair of sets is reported as (a, b) with a the set that appears first
    in the input (`relation.left_first`), whatever the id order.
    """

    def __init__(self, relation: Relation):
        self.relation = relation
        self.indexed = build_indexed(relation)

    @functools.cached_property
    def sets(self) -> dict:
        """{set id: its element ids, ascending}, for SizeAware++'s merge."""
        return {a: self.indexed.fwd(a) for a in range(self.relation.dom_left)}

    @classmethod
    def from_dict(cls, sets: dict) -> "SetFamily":
        pairs = [(a, e) for a, elems in sets.items() for e in elems]
        return cls(Relation.from_raw_pairs("sets", pairs))

    def __len__(self):
        return self.relation.dom_left

    def first_seen(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Where set a appears before set b in the input, elementwise."""
        first = self.relation.left_first
        return first[a] < first[b]


def _oriented(family: SetFamily, pairs: np.ndarray) -> OutputSet:
    """The distinct pairs of sets among the id pairs `pairs` (an (m, 2)
    array, either way round), each turned so that a appears first in the
    input, as an OutputSet over (n, n) without counts."""
    a, b = pairs.reshape(-1, 2).T
    keep = family.first_seen(a, b)
    n = len(family)
    return OutputSet(_dedup(np.where(keep, a, b) * n + np.where(keep, b, a)),
                     (n, n))


def _subfamily(family: SetFamily, name: str, mask: np.ndarray) -> IndexedRelation:
    """The family's rows of the sets where `mask` holds, keeping its ids."""
    pairs = family.relation.pairs
    return build_indexed(Relation.from_encoded(
        name, pairs[mask[pairs[:, 0]]], family.relation))


def ssj_mmjoin(family: SetFamily, c: int,
               plan: Optional[ThresholdPlan] = None) -> OutputSet:
    """The pairs of sets (a, b) with |a n b| >= c, a appearing before b in
    the input, with their exact overlaps as counts, as an OutputSet over
    (n, n). The counted two-path self-join under `plan` keeps each pair
    once, as ids a < b over the floor c (two_path_join's `upper`); one swap
    turns each so that its first set comes first in the input, and one
    _key_groups sort puts them in order. With fewer than two sets of c
    elements or more nothing can pass the floor, and nothing is planned or
    multiplied."""
    if c < 1:
        raise ValueError("c must be >= 1")
    idx, n = family.indexed, len(family)
    if np.count_nonzero(idx.left_deg >= c) < 2:
        none = np.empty(0, dtype=np.int64)
        return OutputSet(none, (n, n), none.copy())
    res = two_path_join(idx, idx, plan=plan, want_counts=True, floor=c,
                        upper=True)
    # `//` by a scalar runs several times faster than np.divmod
    a = res.codes // n
    b = res.codes - a * n
    codes = np.where(family.first_seen(a, b), res.codes, b * n + a)
    order, _, _ = _key_groups(codes, (n * n - 1).bit_length())
    codes, counts = codes[order], res.counts[order]
    return OutputSet(codes, res.dims, counts, res.stats)


def _overlaps(p: IndexedRelation, ps: np.ndarray, q: IndexedRelation,
              qs: np.ndarray) -> np.ndarray:
    """|p's set ps[i] n q's set qs[i]|, elementwise, for SCJ and BSI, p and
    q sharing their right dictionary: each element of ps[i] is probed in qs[i]
    (IndexedRelation.has_tuples), the probes counted against the budget
    before any is allocated."""
    _within_budget(int(p.left_deg[ps].sum()), "membership probes")
    elems, lens = gather_ranges(p.fwd_indptr, p.fwd_indices, ps)
    hits = q.has_tuples(np.repeat(qs, lens), elems)
    out = np.zeros(len(lens), dtype=np.int64)
    # reduceat reads an empty range as one element: empty sets keep 0
    some = lens > 0
    out[some] = np.add.reduceat(hits, (np.cumsum(lens) - lens)[some])
    return out


def scj_join_project(family: SetFamily) -> OutputSet:
    """The pairs a != b with elements(a) <= elements(b), as an OutputSet
    over (set ids, set ids) without counts.

    A superset of a holds a's rarest element (in the fewest sets, ties by
    element id), so that element's sets b != a with |b| >= |a| are a's
    candidates. One membership probe (IndexedRelation.has_tuples) drops
    the candidates without a's second-rarest element, and the overlap
    probe (_overlaps) verifies the rest. The candidates and the verify
    probes are counted before either is allocated (_within_budget). The
    candidates come by a, then by b, so the codes ascend unsorted.
    """
    idx = family.indexed
    size, n = idx.left_deg, len(family)
    sets = np.flatnonzero(size)
    by_rarity = np.argsort(idx.right_deg, kind="stable")
    rank = np.empty_like(by_rarity)
    rank[by_rarity] = np.arange(len(rank))
    # each set's lowest element rank, then its next lowest (len(rank) for
    # a singleton)
    ranks = rank[idx.fwd_indices]
    starts = idx.fwd_indptr[sets]
    rarest = np.minimum.reduceat(ranks, starts)
    ranks[ranks == np.repeat(rarest, size[sets])] = len(rank)
    second = np.minimum.reduceat(ranks, starts)
    first = by_rarity[rarest]
    _within_budget(int(idx.right_deg[first].sum()), "candidate pairs")
    b, lens = gather_ranges(idx.rev_indptr, idx.rev_indices, first)
    at = np.repeat(np.arange(len(sets)), lens)
    a = sets[at]
    keep = (b != a) & (size[b] >= size[a])
    probe = np.flatnonzero(keep & (size[a] > 1))
    keep[probe] = idx.has_tuples(b[probe], by_rarity[second[at[probe]]])
    a, b = a[keep], b[keep]
    contained = _overlaps(idx, a, idx, b) == size[a]
    return OutputSet(a[contained] * n + b[contained], (n, n))


def get_size_boundary(family: SetFamily, c: int) -> int:
    """Size boundary x minimizing modeled heavy + light cost.

    Heavy cost: sum over heavy h of sum over all r of min(|r|, |h|).
    Light cost: sum over light r of C(|r|, c). Candidates are the distinct
    set sizes (a set is heavy iff its size exceeds x); ties take the
    smallest x. Prefix sums over the sorted sizes price every candidate in
    one pass, in exact integers.
    """
    sizes = sorted(family.indexed.left_deg.tolist())
    if not sizes:
        return 0
    n = len(sizes)
    size_upto = list(accumulate(sizes, initial=0))
    heavy_each = []
    for h in sizes:
        below = bisect_right(sizes, h)
        heavy_each.append(size_upto[below] + (n - below) * h)
    heavy_from = list(accumulate(reversed(heavy_each), initial=0))[::-1]
    light_upto = list(accumulate((math.comb(sz, c) for sz in sizes),
                                 initial=0))
    best_x, best_cost = None, None
    for x in sorted(set(sizes)):
        split = bisect_right(sizes, x)
        cost = heavy_from[split] + light_upto[split]
        if best_cost is None or cost < best_cost:
            best_x, best_cost = x, cost
    return best_x


def _heavy_sets(family: SetFamily, c: int) -> np.ndarray:
    """Mask over set ids of the sets larger than get_size_boundary, the
    heavy side of both size-aware methods, which check c here."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return family.indexed.left_deg > get_size_boundary(family, c)


def _heavy_pairs(family: SetFamily, heavy: np.ndarray, c: int,
                 plan: Optional[ThresholdPlan] = None) -> np.ndarray:
    """(m, 2) id pairs (a, h), a != h, of the sets sharing at least c
    elements with a set h where `heavy` holds, by the two-path join of
    every set with the heavy ones under `plan`, over the floor c; none,
    without a join, when no set is heavy."""
    if not heavy.any():
        return np.empty((0, 2), dtype=np.int64)
    pairs = two_path_join(family.indexed, _subfamily(family, "heavy", heavy),
                          plan=plan, floor=c).tuples()
    return pairs[pairs[:, 0] != pairs[:, 1]]


def _light_pairs(family: SetFamily, light: np.ndarray, c: int) -> np.ndarray:
    """(m, 2) id pairs, either way round, of the `light` sets sharing a
    c-subset. A table of the c-subsets of range(k) picks each size k's; a
    subset's elements fold into one key (re-ranked by _dense_rank before it
    would pass _KEY_LIMIT), one sort groups the keys, np.triu_indices pairs
    each group. Subsets, then pairs, are budgeted before allocation."""
    idx, size = family.indexed, family.indexed.left_deg
    ks, n_k = _dedup(size[light & (size >= c)], want_counts=True)
    _within_budget(sum(n * math.comb(k, c) for k, n in
                       zip(ks.tolist(), n_k.tolist())), "c-subsets")
    subsets, owner = [np.empty((0, c), dtype=np.int64)], [n_k[:0]]
    for k in ks.tolist():
        sets = np.flatnonzero(light & (size == k))
        table = np.fromiter(chain.from_iterable(combinations(range(k), c)),
                            dtype=np.int64, count=math.comb(k, c) * c)
        elems = idx.fwd_indices[idx.fwd_indptr[sets, None] + np.arange(k)]
        subsets.append(np.take(elems, table, axis=1).reshape(-1, c))
        owner.append(np.repeat(sets, math.comb(k, c)))
    subsets, owner = np.concatenate(subsets), np.concatenate(owner)
    dom = idx.rel.dom_right
    key, space = subsets[:, 0], dom
    for column in subsets.T[1:]:
        if space * dom > _KEY_LIMIT:
            distinct, key = _dense_rank(key, space)
            space = len(distinct)
        key, space = key * dom + column, space * dom
    order, new, _ = _key_groups(key)
    owner, starts = owner[order], np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(key)))
    starts, lens = starts[lens > 1], lens[lens > 1]
    _within_budget(int((lens * (lens - 1) // 2).sum()), "bucket pairs")
    found = [np.empty((0, 2), dtype=np.int64)]
    for length in _dedup(lens).tolist():
        pairs = np.column_stack(np.triu_indices(length, 1))
        found.append(owner[starts[lens == length, None, None] + pairs]
                     .reshape(-1, 2))
    return np.concatenate(found)


def ssj_size_aware(family: SetFamily, c: int) -> OutputSet:
    """Size-aware SSJ: the heavy sets by their full join with every set, the
    light sets by their shared c-subsets. The pairs are ssj_mmjoin's,
    without counts."""
    heavy = _heavy_sets(family, c)
    n = family.relation.n  # past every degree: all light, the full join
    return _oriented(family, np.concatenate((
        _heavy_pairs(family, heavy, c, ThresholdPlan(FULL_JOIN, n, n)),
        _light_pairs(family, ~heavy, c))))


def _merged(state, lst, c):
    o = set(state[0])
    u = dict(state[1])
    for item in lst:
        if item in o:
            continue
        cnt = u.get(item, 0) + 1
        if cnt >= c:
            o.add(item)
            u.pop(item, None)
        else:
            u[item] = cnt
    return o, u


def prefix_merge_partners(set_paths: dict, inverted: dict, c: int,
                          depth_cap: int = DEFAULT_PREFIX_DEPTH
                          ) -> tuple[dict, int]:
    """Merge inverted lists per set with shared-prefix reuse.

    set_paths maps set-id -> iterable of inverted-list keys; inverted maps
    key -> list of partner ids. Keys are globally ordered by descending list
    length. Returns ({set-id: partners with multiplicity >= c}, op counter).

    The counter charges every merged list except transient merges done by a
    set that materialized at least one new tree node in the same pass; with
    depth_cap=0 nothing materializes and every list is charged.
    """
    order = {k: (-len(inverted[k]), repr(k)) for k in inverted}
    paths = {a: tuple(sorted(keys, key=order.__getitem__))
             for a, keys in set_paths.items()}
    prefix_refs: dict[tuple, int] = {}
    for p in paths.values():
        for depth in range(1, len(p) + 1):
            pre = p[:depth]
            prefix_refs[pre] = prefix_refs.get(pre, 0) + 1

    # the materialized (O, U) state of each shared prefix
    tree: dict[tuple, tuple] = {}
    ops = 0
    results = {}
    for a, path in paths.items():
        state = (set(), {})
        built_here = False
        pending = 0
        for depth in range(1, len(path) + 1):
            pre = path[:depth]
            if pre in tree:
                state = tree[pre]
                continue
            lst = inverted.get(path[depth - 1], [])
            state = _merged(state, lst, c)
            if depth <= depth_cap and prefix_refs[pre] >= 2:
                tree[pre] = state
                ops += len(lst)
                built_here = True
            else:
                pending += len(lst)
        if not built_here:
            ops += pending
        results[a] = set(state[0])
    return results, ops


def ssj_size_aware_pp(family: SetFamily, c: int) -> tuple[OutputSet, int]:
    """SizeAware with matrix sub-joins and prefix-tree reuse: (pairs, merge
    op counter), the pairs as ssj_size_aware's."""
    heavy = _heavy_sets(family, c)
    # (m, 2) arrays of id pairs, either way round; heavy under a priced plan
    found = [_heavy_pairs(family, heavy, c)]

    ops = 0
    light = np.flatnonzero(~heavy).tolist()
    if light:
        light_idx = _subfamily(family, "light", ~heavy)
        j_light = light_idx.out_join_with(light_idx)
        out_est = estimate_output_size(len(light), max(j_light, 1),
                                       max(light_idx.n, 1))
        if j_light > out_est:
            # high duplication: light pairs via the matrix-backed join
            found.append(two_path_join(light_idx, light_idx, floor=c,
                                       upper=True).tuples())
        else:
            inverted = dict(enumerate(map(np.ndarray.tolist, np.split(
                light_idx.rev_indices, light_idx.rev_indptr[1:-1]))))
            partners, ops = prefix_merge_partners(
                {a: family.sets[a].tolist() for a in light}, inverted, c)
            found.append(np.array([(a, b) for a, ps in partners.items()
                                   for b in ps if b != a],
                                  dtype=np.int64).reshape(-1, 2))
    return _oriented(family, np.concatenate(found)), ops


def bsi_batch_size(rate: float, n: int) -> int:
    """Latency-optimal batch size ceil((B*N)^(3/5))."""
    if not rate > 0 or n < 1:
        raise ValueError("rate must be > 0 and n >= 1")
    product = rate * n
    # past the float range the product is inf, and its 3/5 power is not
    root = (product ** 0.6 if math.isfinite(product)
            else rate ** 0.6 * n ** 0.6)
    return math.ceil(root)


def bsi_answer_batch(r: IndexedRelation, s: IndexedRelation,
                     batch: Sequence[tuple]) -> list:
    """answer[i] True iff sets a_i (in R) and b_i (in S) intersect.

    Each query probes the elements of its smaller set in the other set
    (_overlaps), as Cohen & Porat answer light queries. Unknown set ids
    yield a None marker for that query instead of failing the whole batch.
    Relations that do not share a right dictionary are aligned first
    (semi_join_reduce, which keeps their set ids), once per call: pass
    aligned relations to answer many batches.
    """
    if not r.shares_right_dict(s):
        r, s = map(build_indexed, semi_join_reduce(r.rel, s.rel))
    answers: list = [None] * len(batch)
    qa = np.fromiter((r.rel.left_ids.get(a, -1) for a, _ in batch),
                     dtype=np.int64, count=len(batch))
    qb = np.fromiter((s.rel.left_ids.get(b, -1) for _, b in batch),
                     dtype=np.int64, count=len(batch))
    known = np.flatnonzero((qa >= 0) & (qb >= 0))
    qa, qb = qa[known], qb[known]
    by_a = r.left_deg[qa] <= s.left_deg[qb]
    hit = np.empty(len(known), dtype=bool)
    hit[by_a] = _overlaps(r, qa[by_a], s, qb[by_a]) > 0
    hit[~by_a] = _overlaps(s, qb[~by_a], r, qa[~by_a]) > 0
    for i, h in zip(known.tolist(), hit.tolist()):
        answers[i] = h
    return answers


@dataclass
class BsiWorkload:
    """Queries (a, b, arrival_time) arriving at `rate` per time unit."""
    queries: list
    rate: float

    def __post_init__(self):
        times = [t for _, _, t in self.queries]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("arrival times must be nondecreasing")

    @classmethod
    def from_file(cls, source, rate: float) -> "BsiWorkload":
        """Parse `a b arrival_micros` lines; `#` comments and blank lines
        are skipped. A malformed line, or a query that arrives before the
        one above it, raises ParseError with its number, and the file's
        path when the source was opened by one (read_source)."""
        text, path = read_source(source)
        queries, last = [], -math.inf
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise ParseError(line_no,
                                 f"expected 3 tokens, got {len(toks)}", path)
            a, b, micros = toks
            try:
                arrival = int(micros)
            except ValueError:
                raise ParseError(line_no, f"arrival time {micros!r} is not "
                                          "an integer", path) from None
            if arrival < last:
                raise ParseError(line_no, f"arrival time {arrival} is before "
                                          f"the previous query's {last}", path)
            last = arrival
            queries.append((a, b, arrival / 1e6))
        return cls(queries, rate)


@dataclass
class BsiSimResult:
    average_delay: float
    implied_units: float
    batches: int


def bsi_simulate(workload: BsiWorkload, batch_size: int,
                 per_batch_cost: Callable[[list], float]) -> BsiSimResult:
    """Virtual-clock batching simulator.

    A batch fills when its last query arrives (or the workload ends) and
    starts then or, in a backlog, when the batch before it completes; each
    query's delay is its batch's completion time minus its arrival.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    queries = workload.queries
    starts = range(0, len(queries), batch_size)
    total_delay = total_proc = 0.0
    done = -math.inf
    for start in starts:
        batch = queries[start:start + batch_size]
        proc = float(per_batch_cost([(a, b) for a, b, _ in batch]))
        total_proc += proc
        done = max(batch[-1][2], done) + proc
        total_delay += sum(done - t for _, _, t in batch)
    implied = workload.rate * total_proc / max(len(starts), 1) / batch_size
    return BsiSimResult(total_delay / max(len(queries), 1), implied,
                        len(starts))
