"""Shared generators, independent brute-force oracles and small helpers
for the test suite.

The oracles deliberately avoid every code path under test: plain Python
dicts, sets, and nested loops only. The helpers read or build on the
product API (an OutputSet's tuples, one component's heavy matrices) for
tests that check it.
"""

import math
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import product

import numpy as np

from mmjoin.apps import BsiWorkload
from mmjoin.joinproject import heavy_matrices
from mmjoin.optimizer import light_split
from mmjoin.relation import ParseError, Relation, build_indexed, semi_join_reduce


def random_pairs(rng, n, dom_left, dom_right):
    """About n distinct (left, right) int pairs."""
    pairs = {(int(a), int(b))
             for a, b in zip(rng.integers(0, dom_left, n),
                             rng.integers(0, dom_right, n))}
    return sorted(pairs)


def random_family(rng, n_sets, universe, max_size):
    """Non-empty random sets keyed s0..s{n-1}."""
    fam = {}
    for i in range(n_sets):
        size = int(rng.integers(1, max_size + 1))
        fam[f"s{i}"] = sorted({int(e) for e in rng.integers(0, universe, size)})
    return fam


def oracle_two_path(r_pairs, s_pairs):
    """Counter{(a, c): #witnesses} by nested-loop join over a y-index."""
    by_y = defaultdict(list)
    for c, y in s_pairs:
        by_y[y].append(c)
    out = Counter()
    for a, y in r_pairs:
        for c in by_y[y]:
            out[(a, c)] += 1
    return out


def oracle_star(relations):
    """Counter{(x1..xk): #shared witnesses} for pair lists joined on y."""
    adj = []
    for pairs in relations:
        d = defaultdict(set)
        for a, y in pairs:
            d[a].add(y)
        adj.append(d)
    out = Counter()
    for combo in product(*[list(d) for d in adj]):
        witnesses = set.intersection(*[adj[i][v] for i, v in enumerate(combo)])
        if witnesses:
            out[combo] = len(witnesses)
    return out


def canon_pair(a, b):
    return (a, b) if a < b else (b, a)


def oracle_ssj(fam, c):
    """{(a, b): overlap} over raw set ids, a < b, overlap >= c."""
    ids = sorted(fam)
    out = {}
    for i, a in enumerate(ids):
        sa = set(fam[a])
        for b in ids[i + 1:]:
            ov = len(sa & set(fam[b]))
            if ov >= c:
                out[(a, b)] = ov
    return out


def oracle_scj(fam):
    """Ordered raw-id pairs (a, b), a != b, set(a) subset of set(b)."""
    out = set()
    for a in fam:
        for b in fam:
            if a != b and set(fam[a]) <= set(fam[b]):
                out.add((a, b))
    return out


def oracle_size_boundary(family, c):
    """Size boundary by pricing every heavy set under every candidate
    (quadratic); the cost model is `apps.get_size_boundary`'s.

    Heavy cost: sum over heavy h of sum over all r of min(|r|, |h|).
    Light cost: sum over light r of C(|r|, c). Candidates are the distinct
    set sizes (a set is heavy iff its size exceeds x); ties take the
    smallest x.
    """
    sizes = sorted(family.indexed.left_deg.tolist())
    if not sizes:
        return 0
    best_x, best_cost = None, None
    for x in sorted(set(sizes)):
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


def oracle_encode(name, raw_pairs):
    """Relation from raw pairs by a per-tuple dict loop: duplicates dropped,
    ids by first appearance."""
    right_values, right_ids = [], {}
    left_values, left_ids = [], {}
    seen = dict.fromkeys(tuple(p) for p in raw_pairs)
    enc = np.empty((len(seen), 2), dtype=np.int64)
    for i, (a, b) in enumerate(seen):
        ai = left_ids.get(a)
        if ai is None:
            ai = left_ids[a] = len(left_values)
            left_values.append(a)
        bi = right_ids.get(b)
        if bi is None:
            bi = right_ids[b] = len(right_values)
            right_values.append(b)
        enc[i, 0] = ai
        enc[i, 1] = bi
    return Relation(name, enc, left_values, left_ids, right_values, right_ids)


def oracle_parse_edge_list(source, name="R"):
    """Edge-list parse by iterating the source line by line. Each column's
    ids are the ranks of its distinct values in Python's str order (code
    point order), the pairs are distinct and sorted by (left, right), and
    `left_first` ranks the left values by first appearance."""
    pairs = []
    for line_no, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(line_no, f"expected 2 tokens, got {len(toks)}")
        pairs.append((toks[0], toks[1]))
    left_values = sorted({a for a, _ in pairs})
    right_values = sorted({b for _, b in pairs})
    left_ids = {v: i for i, v in enumerate(left_values)}
    right_ids = {v: i for i, v in enumerate(right_values)}
    enc = sorted({(left_ids[a], right_ids[b]) for a, b in pairs})
    seen = {v: i for i, v in enumerate(dict.fromkeys(a for a, _ in pairs))}
    return Relation(name, np.array(enc, dtype=np.int64).reshape(-1, 2),
                    left_values, left_ids, right_values, right_ids,
                    np.array([seen[v] for v in left_values], dtype=np.int64))


def oracle_semi_join_reduce_many(relations):
    """Semi-join by a per-tuple loop: the shared right dictionary is the
    first relation's values that every relation's dictionary holds, in the
    first relation's order; each relation keeps its tuples, in order, whose
    right value is shared, and its left ids, dictionary and first-seen
    ranks."""
    right_values = [v for v in relations[0].right_values
                    if all(v in rel.right_ids for rel in relations)]
    right_ids = {v: i for i, v in enumerate(right_values)}
    out = []
    for rel in relations:
        kept = [(a, right_ids[rel.right_values[b]])
                for a, b in rel.pairs.tolist()
                if rel.right_values[b] in right_ids]
        out.append(Relation(rel.name,
                            np.array(kept, dtype=np.int64).reshape(-1, 2),
                            rel.left_values, rel.left_ids, right_values,
                            right_ids, rel.left_first))
    return out


def triple_loop_matmul(a, b):
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for k in range(inner):
            if a[i, k] == 0:
                continue
            for j in range(cols):
                out[i, j] += a[i, k] * b[k, j]
    return out


def reduced_indexed(r_pairs, s_pairs):
    """(reduced R, reduced S) as IndexedRelations sharing the right dict."""
    r, s = semi_join_reduce(Relation.from_raw_pairs("R", r_pairs),
                            Relation.from_raw_pairs("S", s_pairs))
    return build_indexed(r), build_indexed(s)


def split_pair_sets(idx, light_left, light_y):
    """(light, heavy) raw pair sets of one relation under a two-path split:
    a tuple is light iff its left value or its y value is light."""
    parts = (set(), set())
    for a, y in idx.rel.pairs.tolist():
        heavy = not (light_left[a] or light_y[y])
        parts[heavy].add((idx.rel.left_values[a], idx.rel.right_values[y]))
    return parts


def raw_id(family, a):
    """The raw set id of a SetFamily id."""
    return family.relation.left_values[a]


def raw_pair(family, a, b):
    """The raw set ids of a pair of SetFamily ids."""
    return (raw_id(family, a), raw_id(family, b))


def pair_set(res):
    """An OutputSet's id tuples as a Python set."""
    return set(map(tuple, res.tuples().tolist()))


def pair_counts(res):
    """{id tuple: count} of an OutputSet with counts."""
    return dict(zip(map(tuple, res.tuples().tolist()), res.counts.tolist()))


def total_count(res):
    """The sum of an OutputSet's counts; ValueError without counts."""
    if res.counts is None:
        raise ValueError("counts were not requested")
    return int(res.counts.sum())


def reverse_row(idx, y):
    """The left ids joining right id y, from idx's reverse index."""
    return idx.rev_indices[idx.rev_indptr[y]:idx.rev_indptr[y + 1]]


def uniform_workload(pairs, rate):
    """A BsiWorkload whose i-th query arrives at i / rate."""
    return BsiWorkload([(a, b, i / rate) for i, (a, b) in enumerate(pairs)],
                       rate)


def whole_heavy_matrices(r, s, delta1, delta2):
    """(M1, M2) of the two-path split of r and s (which share their right
    dictionary), the whole heavy partition taken as one component, or None
    if it is empty."""
    light_y, (light_a, light_c) = light_split([r, s], 2, delta1, delta2)
    heavy_a, heavy_c = np.flatnonzero(~light_a), np.flatnonzero(~light_c)
    heavy_y = np.flatnonzero(~light_y)
    if not (len(heavy_a) and len(heavy_y) and len(heavy_c)):
        return None
    one = np.zeros(r.rel.dom_right, dtype=np.int64)
    return heavy_matrices([r, s], [heavy_a, heavy_c], heavy_y, one,
                          [np.zeros(i.rel.dom_left, dtype=np.int64)
                           for i in (r, s)])[0]


def oracle_ssj_ordered(fam, c):
    """`ssj --method ordered` lines of a raw family written in dict order:
    the oracle_ssj pairs, each turned so the set written first comes first,
    by overlap descending, then by the two sets' places in the file."""
    pos = {sid: i for i, sid in enumerate(fam)}
    found = {(a, b) if pos[a] < pos[b] else (b, a): ov
             for (a, b), ov in oracle_ssj(fam, c).items()}
    ranked = sorted(found.items(),
                    key=lambda kv: (-kv[1], pos[kv[0][0]], pos[kv[0][1]]))
    return [f"{a} {b} {ov}" for (a, b), ov in ranked]


def decode_two_path(res, r, s):
    """OutputSet -> set of raw (a, c) pairs via the relations' dictionaries."""
    return {(r.rel.left_values[a], s.rel.left_values[c])
            for a, c in res.tuples().tolist()}


def decode_two_path_counts(res, r, s):
    return {(r.rel.left_values[a], s.rel.left_values[c]): int(cnt)
            for (a, c), cnt in zip(res.tuples().tolist(),
                                   res.counts.tolist())}


# the worked two-path example frozen as test data: R(x,y), S(z,y)
EXAMPLE_R = [(1, 6), (2, 1), (2, 2), (3, 5), (3, 3), (4, 4), (4, 1), (4, 6),
             (5, 4), (5, 5), (5, 6), (6, 4), (6, 5), (6, 2)]
EXAMPLE_S = [(1, 6), (1, 2), (2, 6), (2, 3), (3, 3), (4, 4), (4, 5), (4, 1),
             (5, 4), (5, 5), (5, 6), (6, 2), (6, 5), (6, 6)]

# the worked star example frozen as test data: T(x1,y), U(x2,y)
EXAMPLE_T = [(1, 1), (1, 3), (2, 2), (6, 1), (3, 3), (3, 4), (4, 4), (4, 5),
             (4, 6), (5, 4), (5, 5), (5, 6), (6, 2), (6, 5), (6, 6)]
EXAMPLE_U = [(1, 1), (2, 2), (2, 5), (3, 3), (4, 4), (4, 5), (4, 6), (5, 4),
             (5, 5), (5, 6), (6, 4), (6, 5), (6, 6)]

# the worked prefix-reuse example: inverted lists and two probe sets
EXAMPLE_LISTS = {"b1": ["C1", "C2", "C3", "C4"], "b2": ["C1", "C2", "C3"],
                 "b3": ["C3", "C5"], "b4": ["C4", "C6"]}
EXAMPLE_SETS = {"A1": ["b1", "b2", "b3"], "A2": ["b1", "b2", "b4"]}
