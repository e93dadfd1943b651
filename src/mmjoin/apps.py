"""Applications: set-similarity joins, set-containment join, and batched
boolean set intersection on top of the two-path join core."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .joinproject import OutputSet, two_path_join
from .optimizer import ThresholdPlan, estimate_output_size
from .relation import (
    IndexedRelation,
    ParseError,
    Relation,
    build_indexed,
    semi_join_reduce,
)


class SubsetCapError(RuntimeError):
    """c-subset enumeration exceeded the configured budget."""


DEFAULT_SUBSET_CAP = 10 ** 6
DEFAULT_PREFIX_DEPTH = 8


class SetFamily:
    """A family of non-empty sets stored as a (set-id, element-id) relation."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self.indexed = build_indexed(relation)
        self.sets = {a: self.indexed.fwd(a)
                     for a in range(relation.dom_left)}

    @classmethod
    def from_dict(cls, sets: dict) -> "SetFamily":
        pairs = [(a, e) for a, elems in sets.items() for e in elems]
        return cls(Relation.from_raw_pairs("sets", pairs))

    def __len__(self):
        return len(self.sets)

    def size(self, a: int) -> int:
        return len(self.sets[a])

    def raw_id(self, a: int):
        return self.relation.left_values[a]

    def raw_pair(self, a: int, b: int) -> tuple:
        return (self.raw_id(a), self.raw_id(b))


def _canonical(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _pair_counts_from_join(family: SetFamily, res: OutputSet, c: int) -> dict:
    out = {}
    for (a, b), cnt in zip(res.tuples().tolist(), res.counts.tolist()):
        if a < b and cnt >= c:
            out[(a, b)] = cnt
    return out


def ssj_mmjoin(family: SetFamily, c: int,
               plan: Optional[ThresholdPlan] = None) -> dict:
    """Unordered pairs {a < b: |a n b| >= c} with exact overlap counts."""
    if c < 1:
        raise ValueError("c must be >= 1")
    res = two_path_join(family.indexed, family.indexed, plan=plan,
                        want_counts=True)
    return _pair_counts_from_join(family, res, c)


def get_size_boundary(family: SetFamily, c: int) -> int:
    """Size boundary x minimizing modeled heavy + light cost.

    Heavy cost: sum over heavy h of sum over all r of min(|r|, |h|).
    Light cost: sum over light r of C(|r|, c). Candidates are the distinct
    set sizes (a set is heavy iff its size exceeds x); ties take the
    smallest x.
    """
    sizes = sorted(family.size(a) for a in family.sets)
    if not sizes:
        return 0
    total = sum(sizes)
    distinct = sorted(set(sizes))
    best_x, best_cost = None, None
    for x in distinct:
        split = bisect_right(sizes, x)
        light, heavy = sizes[:split], sizes[split:]
        heavy_cost = 0
        for h in heavy:
            below = bisect_right(sizes, h)
            heavy_cost += sum(sizes[:below]) + (len(sizes) - below) * h
        light_cost = sum(math.comb(sz, c) for sz in light)
        cost = heavy_cost + light_cost
        if best_cost is None or cost < best_cost:
            best_x, best_cost = x, cost
    return best_x


def _merge_overlap(x: np.ndarray, y: np.ndarray) -> int:
    return len(np.intersect1d(x, y, assume_unique=True))


def ssj_size_aware(family: SetFamily, c: int,
                   subset_cap: int = DEFAULT_SUBSET_CAP) -> set:
    """Size-aware SSJ: heavy sets by merge join against everyone, light sets
    through the c-subset inverted index."""
    if c < 1:
        raise ValueError("c must be >= 1")
    x = get_size_boundary(family, c)
    heavy = [a for a in family.sets if family.size(a) > x]
    light = [a for a in family.sets if family.size(a) <= x]
    out = set()
    for h in heavy:
        for r in family.sets:
            if r == h:
                continue
            if _merge_overlap(family.sets[h], family.sets[r]) >= c:
                out.add(_canonical(h, r))
    inverted: dict = {}
    generated = 0
    from itertools import combinations
    for r in light:
        elems = family.sets[r].tolist()
        for sub in combinations(elems, c):
            generated += 1
            if generated > subset_cap:
                raise SubsetCapError(
                    f"more than {subset_cap} c-subsets; raise the cap or "
                    "route light sets through the matrix path")
            inverted.setdefault(sub, []).append(r)
    for bucket in inverted.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                out.add(_canonical(bucket[i], bucket[j]))
    return out


@dataclass
class _Node:
    state: Optional[tuple] = None  # (O frozenset-ish set, U dict item->count)
    shared: bool = False


class PrefixTree:
    """Materialized (O, U) states keyed by inverted-list-id prefixes."""

    def __init__(self, depth_cap: int):
        self.depth_cap = depth_cap
        self.nodes: dict[tuple, _Node] = {}

    def node(self, path: tuple) -> _Node:
        n = self.nodes.get(path)
        if n is None:
            n = self.nodes[path] = _Node()
        return n


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

    tree = PrefixTree(depth_cap)
    ops = 0
    results = {}
    for a, path in paths.items():
        state = (set(), {})
        built_here = False
        pending = 0
        for depth in range(1, len(path) + 1):
            pre = path[:depth]
            key = path[depth - 1]
            lst = inverted.get(key, [])
            node = tree.node(pre)
            if node.state is not None:
                state = node.state
                continue
            if depth <= depth_cap and prefix_refs[pre] >= 2:
                node.state = _merged(state, lst, c)
                state = node.state
                ops += len(lst)
                built_here = True
            else:
                state = _merged(state, lst, c)
                pending += len(lst)
        if not built_here:
            ops += pending
        results[a] = set(state[0])
    return results, ops


def ssj_size_aware_pp(family: SetFamily, c: int,
                      prefix_depth_cap: int = DEFAULT_PREFIX_DEPTH,
                      subset_cap: int = DEFAULT_SUBSET_CAP
                      ) -> tuple[set, int]:
    """SizeAware with matrix sub-joins and prefix-tree reuse.

    Returns (pairs, merge op counter). Same output as ssj_size_aware.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    x = get_size_boundary(family, c)
    heavy = [a for a in family.sets if family.size(a) > x]
    light = [a for a in family.sets if family.size(a) <= x]
    out = set()

    if heavy:
        # join everyone against the heavy sets via the partitioned algorithm
        heavy_pairs = [(family.raw_id(a), family.relation.right_values[e])
                       for a in heavy for e in family.sets[a]]
        ra, rh = semi_join_reduce(family.relation,
                                  Relation.from_raw_pairs("heavy", heavy_pairs))
        res = two_path_join(build_indexed(ra), build_indexed(rh),
                            want_counts=True)
        back = family.relation.left_ids
        for (a, hb), cnt in zip(res.tuples().tolist(), res.counts.tolist()):
            ai = back[ra.left_values[a]]
            bi = back[rh.left_values[hb]]
            if ai != bi and cnt >= c:
                out.add(_canonical(ai, bi))

    if light:
        inverted: dict = {}
        for a in light:
            for e in family.sets[a].tolist():
                inverted.setdefault(e, []).append(a)
        j_light = sum(len(v) ** 2 for v in inverted.values())
        out_est = estimate_output_size(len(light), max(j_light, 1),
                                       max(sum(family.size(a) for a in light), 1))
        if j_light > out_est:
            # high duplication: light pairs via the matrix-backed join
            light_pairs = [(family.raw_id(a), family.relation.right_values[e])
                           for a in light for e in family.sets[a]]
            light_idx = build_indexed(Relation.from_raw_pairs("light", light_pairs))
            res = two_path_join(light_idx, light_idx, want_counts=True)
            ll = light_idx.rel.left_values
            back = family.relation.left_ids
            ops = 0
            for (i, j), cnt in zip(res.tuples().tolist(), res.counts.tolist()):
                if i < j and cnt >= c:
                    out.add(_canonical(back[ll[i]], back[ll[j]]))
        else:
            partners, ops = prefix_merge_partners(
                {a: family.sets[a].tolist() for a in light}, inverted, c,
                depth_cap=prefix_depth_cap)
            for a, ps in partners.items():
                for b in ps:
                    if b != a:
                        out.add(_canonical(a, b))
    else:
        ops = 0
    return out, ops


def ssj_ordered(family: SetFamily, c: int) -> list:
    """ssj_mmjoin result sorted by overlap descending, pair ascending."""
    counts = ssj_mmjoin(family, c)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def scj_join_project(family: SetFamily) -> set:
    """Ordered containment pairs (a, b), a != b, elements(a) <= elements(b)."""
    res = two_path_join(family.indexed, family.indexed, want_counts=True)
    out = set()
    for (a, b), cnt in zip(res.tuples().tolist(), res.counts.tolist()):
        if a != b and cnt == family.size(a):
            out.add((a, b))
    return out


def bsi_batch_size(rate: float, n: int) -> int:
    """Latency-optimal batch size ceil((B*N)^(3/5))."""
    if rate < 1 or n < 1:
        raise ValueError("rate and n must be >= 1")
    return math.ceil((rate * n) ** 0.6)


def bsi_answer_batch(r: IndexedRelation, s: IndexedRelation,
                     batch: Sequence[tuple]) -> list:
    """answer[i] True iff sets a_i (in R) and b_i (in S) intersect.

    Unknown set ids yield a None marker for that query instead of failing
    the whole batch.
    """
    answers: list = [None] * len(batch)
    known = []
    for i, (a, b) in enumerate(batch):
        ai = r.rel.left_ids.get(a)
        bi = s.rel.left_ids.get(b)
        if ai is None or bi is None:
            continue
        known.append((i, a, b))
        answers[i] = False
    if not known:
        return answers
    r_pairs = []
    s_pairs = []
    want_a = {a for _, a, _ in known}
    want_b = {b for _, _, b in known}
    for a, y in r.rel.raw_pairs():
        if a in want_a:
            r_pairs.append((a, y))
    for b, y in s.rel.raw_pairs():
        if b in want_b:
            s_pairs.append((b, y))
    ra, sb = semi_join_reduce(Relation.from_raw_pairs("Rb", r_pairs),
                              Relation.from_raw_pairs("Sb", s_pairs))
    if ra.n == 0 or sb.n == 0:
        return answers
    res = two_path_join(build_indexed(ra), build_indexed(sb))
    hits = {(ra.left_values[i], sb.left_values[j])
            for i, j in res.tuples().tolist()}
    for i, a, b in known:
        answers[i] = (a, b) in hits
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
    def uniform(cls, pairs: Sequence[tuple], rate: float) -> "BsiWorkload":
        return cls([(a, b, i / rate) for i, (a, b) in enumerate(pairs)], rate)

    @classmethod
    def from_file(cls, source, rate: float) -> "BsiWorkload":
        """Parse `a b arrival_micros` lines; `#` comments and blank lines
        are skipped. A malformed line raises ParseError with its number."""
        queries = []
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise ParseError(line_no, f"expected 3 tokens, got {len(toks)}")
            a, b, micros = toks
            try:
                arrival = int(micros)
            except ValueError:
                raise ParseError(line_no, f"arrival time {micros!r} is not "
                                          "an integer") from None
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

    A batch fills when its last query arrives (or the workload ends); each
    query's delay is (fill time - arrival) + the modeled processing time.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    queries = workload.queries
    total_delay = 0.0
    batches = 0
    total_proc = 0.0
    for start in range(0, len(queries), batch_size):
        batch = queries[start:start + batch_size]
        fill = batch[-1][2]
        proc = float(per_batch_cost([(a, b) for a, b, _ in batch]))
        total_proc += proc
        batches += 1
        for _, _, t in batch:
            total_delay += (fill - t) + proc
    n = max(len(queries), 1)
    avg_proc = total_proc / max(batches, 1)
    implied = workload.rate * avg_proc / batch_size
    return BsiSimResult(total_delay / n, implied, batches)
