"""Join-project evaluation: the two-path join, star queries and the
full-join baseline, all three through one witness-disjoint partitioned join
(_partitioned) and one dedup (_dedup_output).

Output tuples are kept as mixed-radix int64 codes over the left domains of
the participating relations; OutputSet decodes on demand.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .matmul import CountMatrix, multiply_counts
from .optimizer import FULL_JOIN, ThresholdPlan, default_plan
from .relation import IndexedRelation, build_indexed, semi_join_reduce_many


class StarResourceError(RuntimeError):
    """A join would allocate past its budget; retry with other thresholds."""


class OutputSet:
    """Deduplicated projected tuples, optionally with witness counts.

    `codes` ascend, so the tuples come sorted by their ids. `buffer` is None
    here; a result counted densely (_DenseOutputSet) holds the count of
    every code of its space there.
    """

    buffer = None

    def __init__(self, codes: np.ndarray, dims: Sequence[int],
                 counts: Optional[np.ndarray] = None,
                 stats: Optional[dict] = None):
        self.codes = codes
        self.dims = tuple(int(d) for d in dims)
        self.counts = counts
        self.stats = stats or {}

    @property
    def arity(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.codes)

    def tuples(self) -> np.ndarray:
        out = np.empty((len(self.codes), self.arity), dtype=np.int64)
        rem = self.codes
        for i in range(self.arity - 1, -1, -1):
            rem, out[:, i] = np.divmod(rem, self.dims[i])
        return out

    def as_set(self) -> set:
        return set(map(tuple, self.tuples().tolist()))

    def counts_dict(self) -> dict:
        if self.counts is None:
            raise ValueError("counts were not requested")
        return dict(zip(map(tuple, self.tuples().tolist()),
                        self.counts.tolist()))

    def total_count(self) -> int:
        if self.counts is None:
            raise ValueError("counts were not requested")
        return int(self.counts.sum())


class _DenseOutputSet(OutputSet):
    """An OutputSet counted in a dense buffer over its whole code space:
    buffer[code] is the count of `code`. Codes and counts are read off the
    buffer on first use, so a caller that filters on the buffer itself
    never materializes the rows it drops."""

    def __init__(self, buffer: np.ndarray, dims: Sequence[int],
                 want_counts: bool):
        self.buffer = buffer
        self.dims = tuple(int(d) for d in dims)
        self.stats = {}
        self._want_counts = want_counts

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return np.flatnonzero(self.buffer)

    @functools.cached_property
    def counts(self) -> Optional[np.ndarray]:
        return self.buffer[self.codes] if self._want_counts else None


def _check_code_space(dims: Sequence[int]) -> None:
    if math.prod(max(d, 1) for d in dims) >= 2 ** 62:
        raise StarResourceError("combined domain too large to encode")


def _ensure_reduced_many(idxs: Sequence[IndexedRelation]) -> list:
    first = idxs[0]
    if all(first.shares_right_dict(o) for o in idxs[1:]):
        return list(idxs)
    red = semi_join_reduce_many([i.rel for i in idxs])
    return [build_indexed(r) for r in red]


def two_path_split(r: IndexedRelation, s: IndexedRelation,
                   delta1: int, delta2: int):
    """The two-path light/heavy rule, as (light_y, light_a, light_c) masks
    over the shared y ids, R's left ids and S's left ids.

    A y value is light iff its degree is <= delta1 in both relations, and a
    left value iff its degree is <= delta2. A tuple is light iff its left
    value or its y value is light; the rest form the heavy matrices.
    """
    if delta1 < 1 or delta2 < 1:
        raise ValueError("thresholds must be >= 1")
    light_y = (r.right_deg <= delta1) & (s.right_deg <= delta1)
    return light_y, r.left_deg <= delta2, s.left_deg <= delta2


def heavy_matrices(r: IndexedRelation, s: IndexedRelation,
                   delta1: int, delta2: int):
    """(M1, M2) adjacency matrices of the heavy partitions, or None if empty."""
    r, s = _ensure_reduced_many([r, s])
    light_y, light_a, light_c = two_path_split(r, s, delta1, delta2)
    heavy_a, heavy_c = np.flatnonzero(~light_a), np.flatnonzero(~light_c)
    heavy_b = np.flatnonzero(~light_y)
    if not (len(heavy_a) and len(heavy_b) and len(heavy_c)):
        return None
    return _heavy_factors([r, s], [heavy_a, heavy_c], heavy_b)


def _membership(idx: IndexedRelation, heavy_left: np.ndarray,
                heavy_y: np.ndarray) -> np.ndarray:
    """0/1 uint8 matrix over heavy_left x heavy_y: 1 where the pair is a
    tuple of idx."""
    pos_l = np.full(idx.rel.dom_left, -1, dtype=np.int64)
    pos_l[heavy_left] = np.arange(len(heavy_left))
    pos_y = np.full(idx.rel.dom_right, -1, dtype=np.int64)
    pos_y[heavy_y] = np.arange(len(heavy_y))
    left, right = idx.rel.pairs[:, 0], idx.rel.pairs[:, 1]
    sel = (pos_l[left] >= 0) & (pos_y[right] >= 0)
    data = np.zeros((len(heavy_left), len(heavy_y)), dtype=np.uint8)
    data[pos_l[left[sel]], pos_y[right[sel]]] = 1
    return data


def _strides(dims: Sequence[int]) -> list:
    """What each position's value is multiplied by in a row-major code."""
    return [math.prod(dims[i + 1:]) for i in range(len(dims))]


def _cross_codes(parts: list) -> np.ndarray:
    """Codes of the cross product of `parts`, row-major; each part holds its
    values already multiplied by their stride (_strides)."""
    return functools.reduce(np.add.outer, parts).ravel()


def _heavy_factors(rels: Sequence[IndexedRelation], heavy_left: list,
                   heavy_y: np.ndarray):
    """(V, W^T) over the heavy witnesses heavy_y. V's rows are the
    combinations of heavy left values of the first ceil(k/2) relations and
    W's of the rest; a row is 1 at a witness every value in it joins. Row
    keys are the combinations' codes, so V @ W^T is keyed by the output
    space viewed as two dimensions (see _partitioned)."""
    half = (len(rels) + 1) // 2

    def grouped(idxs, lefts):
        data = _membership(idxs[0], lefts[0], heavy_y)
        for idx, hl in zip(idxs[1:], lefts[1:]):
            data = (data[:, None, :] * _membership(idx, hl, heavy_y)[None]
                    ).reshape(-1, len(heavy_y))
        strides = _strides([i.rel.dom_left for i in idxs])
        return data, _cross_codes([hl * st for hl, st in zip(lefts, strides)])

    v, v_keys = grouped(rels[:half], heavy_left[:half])
    w, w_keys = grouped(rels[half:], heavy_left[half:])
    return (CountMatrix(v, row_keys=v_keys, col_keys=heavy_y),
            CountMatrix(w.T, row_keys=heavy_y, col_keys=w_keys))


def _dedup(codes: np.ndarray, want_counts: bool = False, sorted_extra=None):
    """Sorted distinct `codes`, by one sort and an adjacent-difference mask
    (np.unique without counts hashes in numpy 2, which is far slower here).

    With want_counts, returns (codes, counts) where counts[i] is the number
    of occurrences of codes[i]. `sorted_extra`, a (codes, counts) pair that
    is already sorted and distinct, is merged in by binary search; its counts
    add to those of equal codes and are ignored without want_counts.
    """
    s = np.sort(codes)
    first = np.ones(len(s), dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    out = s[first]
    counts = (np.diff(np.flatnonzero(np.append(first, True)))
              if want_counts else None)
    if sorted_extra is not None:
        extra, extra_counts = sorted_extra
        pos = np.searchsorted(out, extra)
        hit = np.zeros(len(extra), dtype=bool)
        inside = pos < len(out)
        hit[inside] = out[pos[inside]] == extra[inside]
        if want_counts:
            counts[pos[hit]] += extra_counts[hit]
            counts = np.insert(counts, pos[~hit], extra_counts[~hit])
        out = np.insert(out, pos[~hit], extra[~hit])
    return (out, counts) if want_counts else out


# Counting in a buffer over the whole code space beats the sort path while
# the space is at most this many times the codes that path touches (see
# _dedup_output); measured break-even.
_DENSE_SPACE_PER_CODE = 1.5


def _as_run(keys: np.ndarray):
    """Sorted distinct `keys` as a slice when they are one run of
    consecutive ids (a slice indexes far faster than the keys)."""
    if len(keys) and keys[-1] - keys[0] == len(keys) - 1:
        return slice(int(keys[0]), int(keys[-1]) + 1)
    return keys


def _dedup_output(codes: np.ndarray, dims: Sequence[int],
                  want_counts: bool = False, heavy=None) -> OutputSet:
    """The distinct `codes` of the space `dims` as an OutputSet, with their
    counts if want_counts.

    `heavy`, a product CountMatrix over a two-dimensional space, adds its
    entry (i, j) to the count of code row_keys[i] * dims[1] + col_keys[j].

    The sort path (_dedup) touches every code once to sort it and, when a
    block merges in, every code and block entry once more. While the space
    is at most _DENSE_SPACE_PER_CODE times those touches, one bincount over
    the whole space holds every count instead and the block is added into
    it in place; a block that is the whole space and has no codes beside it
    is that buffer already.
    """
    space = math.prod(dims)
    touched = len(codes)
    if heavy is not None:
        touched += len(codes) + heavy.data.size
    if space <= _DENSE_SPACE_PER_CODE * touched:
        if (heavy is not None and not len(codes)
                and heavy.data.shape == tuple(dims)):
            return _DenseOutputSet(
                heavy.data.astype(np.int64, copy=False).ravel(), dims,
                want_counts)
        buf = np.bincount(codes, minlength=space)
        if heavy is not None:
            rows, cols = _as_run(heavy.row_keys), _as_run(heavy.col_keys)
            if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
                rows, cols = np.ix_(rows, cols)
            buf.reshape(dims)[rows, cols] += heavy.data
        return _DenseOutputSet(buf, dims, want_counts)
    extra = None
    if heavy is not None:
        hi, hj = np.nonzero(heavy.data)
        # row-major over sorted keys: sorted and distinct
        extra = (heavy.row_keys[hi] * dims[1] + heavy.col_keys[hj],
                 heavy.data[hi, hj])
    if want_counts:
        out, counts = _dedup(codes, True, extra)
        return OutputSet(out, dims, counts)
    return OutputSet(_dedup(codes, sorted_extra=extra), dims)


# A join allocates at most this many array entries across its light codes,
# V, W and V @ W^T, and raises StarResourceError before allocating any of
# them past it. The all-heavy k=4 star on a 120-node 3-community graph needs
# 2.1e8 (its product); a hub of degree 1500 in a k=3 star needs 3.4e9.
_ENTRY_BUDGET = 1 << 28


def _runs(values: np.ndarray, lens: np.ndarray):
    """`values` cut into consecutive runs of lengths `lens`, as (values,
    starts, ends) with the bounds as Python lists."""
    ends = np.cumsum(lens)
    return values, (ends - lens).tolist(), ends.tolist()


def _partitioned(rels: Sequence[IndexedRelation], light_y: np.ndarray,
                 light_left: list, want_counts: bool) -> OutputSet:
    """pi_{x1..xk} of relations sharing their right column y, each witness
    (a y and one left value per relation) handled exactly once, so counts
    add up without a recount.

    A light y (light_y) enumerates its full cross product. A heavy y
    enumerates, for each position j, the combinations whose first light left
    value (light_left[j]) is at j: heavy lists before j, the light list at j
    and full lists after it. The rest, heavy left values at a heavy y in
    every relation, is the product of _heavy_factors.
    """
    k = len(rels)
    dims = [ri.rel.dom_left for ri in rels]
    _check_code_space(dims)
    deg = np.stack([ri.right_deg for ri in rels])
    # light[i, y]: tuples of relation i at y taken as light; at a light y,
    # all of them
    light = np.stack([np.bincount(ri.rel.pairs[ll[ri.rel.pairs[:, 0]], 1],
                                  minlength=len(light_y))
                      for ri, ll in zip(rels, light_left)])
    light = np.where(light_y, deg, light)
    heavy = deg - light
    # sizes[j, y]: codes of witness y whose first light position is j,
    # prod_{i<j} heavy_i(y) * light_j(y) * prod_{i>j} deg_i(y), in float64:
    # a size past 2^53 is over the budget anyway
    ones = np.ones((1, len(light_y)))
    before = np.cumprod(np.vstack([ones, heavy]), axis=0)
    after = np.cumprod(np.vstack([deg[1:], ones])[::-1], axis=0)[::-1]
    sizes = before[:-1] * light * after
    n_light = sizes.sum()

    heavy_left = [np.flatnonzero(~ll) for ll in light_left]
    heavy_y = np.flatnonzero(~light_y)
    half = (k + 1) // 2
    n_heavy = 0
    if before[-1].any():  # some heavy y joins heavy left values everywhere
        rows = math.prod(len(h) for h in heavy_left[:half])
        cols = math.prod(len(h) for h in heavy_left[half:])
        n_heavy = (rows + cols) * len(heavy_y) + rows * cols
    if n_light + n_heavy > _ENTRY_BUDGET:
        raise StarResourceError(
            f"the join needs {int(n_light)} light codes and {n_heavy} heavy "
            f"matrix entries, over the budget of {_ENTRY_BUDGET}; "
            "change delta1/delta2")

    sizes = sizes.astype(np.int64)
    pos_j, pos_y = np.nonzero(sizes)
    codes = np.empty(int(sizes.sum()), dtype=np.int64)
    if len(codes):
        # per relation, its left values by witness: the heavy ones, the ones
        # taken as light, and all of them
        runs = []
        for ri, ll, stride, lens_light, lens_heavy in zip(
                rels, light_left, _strides(dims), light, heavy):
            taken = ll[ri.rev_indices] | np.repeat(light_y, ri.right_deg)
            xs = ri.rev_indices * stride
            runs.append((_runs(xs[~taken], lens_heavy),
                         _runs(xs[taken], lens_light), _runs(xs, ri.right_deg)))
        # piece j: heavy lists before j, the light list at j, full after j
        pieces = [[runs[i][0 if i < j else 1 if i == j else 2]
                   for i in range(k)] for j in range(k)]
        at = 0
        for j, y, n in zip(pos_j.tolist(), pos_y.tolist(),
                           sizes[pos_j, pos_y].tolist()):
            codes[at:at + n] = _cross_codes([xs[lo[y]:hi[y]]
                                             for xs, lo, hi in pieces[j]])
            at += n

    m = (multiply_counts(*_heavy_factors(rels, heavy_left, heavy_y))
         if n_heavy else None)
    # the output space viewed as two dimensions, V's keys by W's; a code is
    # the same integer in both views
    out = _dedup_output(codes, (math.prod(dims[:half]), math.prod(dims[half:])),
                        want_counts, m)
    out.dims = tuple(int(d) for d in dims)
    out.stats = {"light_intermediate": len(codes),
                 "heavy_pairs": 0 if m is None else int(np.count_nonzero(m.data))}
    return out


def two_path_join(r: IndexedRelation, s: IndexedRelation,
                  plan: Optional[ThresholdPlan] = None,
                  want_counts: bool = False) -> OutputSet:
    """pi_{x,z}(R(x,y) join S(z,y)) via heavy/light partitioning.

    two_path_split decides light and heavy; _partitioned handles every
    witness once, by a light pass or the heavy count-matrix product, so
    per-pair counts add up exactly without a recount.
    """
    r, s = _ensure_reduced_many([r, s])
    if plan is None:
        plan = default_plan(r, s)
    plan.validate()
    if plan.strategy == FULL_JOIN:
        out = full_join_dedup(r, s, want_counts=want_counts)
    else:
        light_y, light_a, light_c = two_path_split(r, s, plan.delta1,
                                                   plan.delta2)
        out = _partitioned([r, s], light_y, [light_a, light_c], want_counts)
    out.stats["plan"] = plan
    return out


def full_join_dedup(r: IndexedRelation, s: IndexedRelation,
                    want_counts: bool = False) -> OutputSet:
    """Enumerate the full join through the y-index, then deduplicate.

    Reference semantics for every join-project operation here: every
    witness is light, so nothing is multiplied.
    """
    r, s = _ensure_reduced_many([r, s])
    every = [np.ones(i.rel.dom_left, dtype=bool) for i in (r, s)]
    out = _partitioned([r, s], np.ones(r.rel.dom_right, dtype=bool), every,
                       want_counts)
    out.stats = {"intermediate": out.stats["light_intermediate"]}
    return out


def star_join(relations: Sequence[IndexedRelation], delta1: int, delta2: int,
              want_counts: bool = False) -> OutputSet:
    """pi_{x1..xk} of k relations joined on the shared right column.

    A witness is light iff its degree is <= delta1 in at least k - 1
    relations, and a left value iff its degree is <= delta2; _partitioned
    does the rest.
    """
    k = len(relations)
    if not 2 <= k <= 4:
        raise ValueError("star_join supports 2 <= k <= 4 relations")
    if delta1 < 1 or delta2 < 1:
        raise ValueError("thresholds must be >= 1")
    rels = _ensure_reduced_many(relations)
    deg = np.stack([ri.right_deg for ri in rels])
    light_y = (deg <= delta1).sum(axis=0) >= k - 1
    return _partitioned(rels, light_y, [ri.left_deg <= delta2 for ri in rels],
                        want_counts)
