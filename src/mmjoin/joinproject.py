"""Join-project evaluation: two-path partitioned algorithm, star queries,
full-join baseline, and the dedup they share.

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
from .relation import (
    IndexedRelation,
    _csr,
    build_indexed,
    gather_ranges,
    semi_join_reduce_many,
)


class StarResourceError(RuntimeError):
    """Heavy cross product too large; retry with a larger delta2."""


class OutputSet:
    """Deduplicated projected tuples, optionally with witness counts.

    `buffer` is None here; a result counted densely (_DenseOutputSet) holds
    the count of every code of its space there.
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


def _encode(columns: list, dims: Sequence[int]) -> np.ndarray:
    code = np.zeros_like(columns[0])
    for col, d in zip(columns, dims):
        code = code * d + col
    return code


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
    heavy_a = np.nonzero(~light_a)[0]
    heavy_b = np.nonzero(~light_y)[0]
    heavy_c = np.nonzero(~light_c)[0]
    if not (len(heavy_a) and len(heavy_b) and len(heavy_c)):
        return None
    pos_b = np.full(r.rel.dom_right, -1, dtype=np.int64)
    pos_b[heavy_b] = np.arange(len(heavy_b))

    def adj(idx, heavy_left, transpose):
        pos_l = np.full(idx.rel.dom_left, -1, dtype=np.int64)
        pos_l[heavy_left] = np.arange(len(heavy_left))
        left, right = idx.rel.pairs[:, 0], idx.rel.pairs[:, 1]
        sel = (pos_l[left] >= 0) & (pos_b[right] >= 0)
        data = np.zeros((len(heavy_left), len(heavy_b)), dtype=np.uint8)
        data[pos_l[left[sel]], pos_b[right[sel]]] = 1
        if transpose:
            return CountMatrix(data.T.copy(), row_keys=heavy_b, col_keys=heavy_left)
        return CountMatrix(data, row_keys=heavy_left, col_keys=heavy_b)

    return adj(r, heavy_a, False), adj(s, heavy_c, True)


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
    it in place.
    """
    space = math.prod(dims)
    touched = len(codes)
    if heavy is not None:
        touched += len(codes) + heavy.data.size
    if space <= _DENSE_SPACE_PER_CODE * touched:
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


def two_path_join(r: IndexedRelation, s: IndexedRelation,
                  plan: Optional[ThresholdPlan] = None,
                  want_counts: bool = False) -> OutputSet:
    """pi_{x,z}(R(x,y) join S(z,y)) via heavy/light partitioning.

    The light side is enumerated as three witness-disjoint passes (y light in
    both; x light with y heavy; z light with x and y heavy) and the heavy side
    as a count-matrix product, so per-pair counts add up exactly without a
    recount.
    """
    r, s = _ensure_reduced_many([r, s])
    if plan is None:
        plan = default_plan(r, s)
    plan.validate()
    if plan.strategy == FULL_JOIN:
        out = full_join_dedup(r, s, want_counts=want_counts)
        out.stats["plan"] = plan
        return out

    d1, d2 = plan.delta1, plan.delta2
    dims = (r.rel.dom_left, s.rel.dom_left)
    _check_code_space(dims)
    dom_z = dims[1]
    light_y, light_a, light_c = two_path_split(r, s, d1, d2)
    code_arrays = [np.empty(0, dtype=np.int64)]

    # pass 1: witnesses light in both relations
    for b in np.nonzero(light_y & (r.right_deg > 0) & (s.right_deg > 0))[0]:
        code_arrays.append(
            (r.rev(b)[:, None] * dom_z + s.rev(b)[None, :]).ravel())

    # pass 2: light x, heavy witness
    left, right = r.rel.pairs[:, 0], r.rel.pairs[:, 1]
    sel = light_a[left] & ~light_y[right]
    if sel.any():
        zs, lens = gather_ranges(s.rev_indptr, s.rev_indices, right[sel])
        code_arrays.append(np.repeat(left[sel], lens) * dom_z + zs)

    # pass 3: light z, heavy witness, heavy x
    sleft, sright = s.rel.pairs[:, 0], s.rel.pairs[:, 1]
    sel = light_c[sleft] & ~light_y[sright]
    if sel.any():
        heavy_pairs = r.rel.pairs[~light_a[left]]
        hp_indptr, hp_indices = _csr(heavy_pairs[:, 1], heavy_pairs[:, 0],
                                     r.rel.dom_right, r.rel.dom_left)
        xs, lens = gather_ranges(hp_indptr, hp_indices, sright[sel])
        code_arrays.append(xs * dom_z + np.repeat(sleft[sel], lens))

    light_codes = np.concatenate(code_arrays)
    intermediate = len(light_codes)

    mats = heavy_matrices(r, s, d1, d2)
    m = multiply_counts(*mats) if mats is not None else None
    out = _dedup_output(light_codes, dims, want_counts, m)
    heavy_pairs = 0 if m is None else int(np.count_nonzero(m.data))
    out.stats = {"light_intermediate": intermediate, "plan": plan,
                 "heavy_pairs": heavy_pairs}
    return out


def full_join_dedup(r: IndexedRelation, s: IndexedRelation,
                    want_counts: bool = False) -> OutputSet:
    """Enumerate the full join through the y-index, then deduplicate.

    Reference semantics for every join-project operation here.
    """
    r, s = _ensure_reduced_many([r, s])
    dims = (r.rel.dom_left, s.rel.dom_left)
    _check_code_space(dims)
    dom_z = dims[1]
    bufs = [np.empty(0, dtype=np.int64)]
    for b in range(r.rel.dom_right):
        lr, ls = r.rev(b), s.rev(b)
        if len(lr) and len(ls):
            bufs.append((lr[:, None] * dom_z + ls[None, :]).ravel())
    codes = np.concatenate(bufs)
    out = _dedup_output(codes, dims, want_counts)
    out.stats = {"intermediate": len(codes)}
    return out


def _cross_codes(lists: list, dims: Sequence[int]) -> np.ndarray:
    codes = lists[0].astype(np.int64)
    for lst, d in zip(lists[1:], dims[1:]):
        codes = (codes[:, None] * d + lst[None, :]).ravel()
    return codes


def star_join(relations: Sequence[IndexedRelation], delta1: int, delta2: int,
              want_counts: bool = False, heavy_rows_cap: int = 1 << 22) -> OutputSet:
    """pi_{x1..xk} of k relations joined on the shared right column.

    Light parts run k sub-joins with one relation replaced by its light-x
    part, then by its light-everywhere-else-y part; the heavy part multiplies
    the grouped matrices V and W^T over composite heavy-value keys.
    """
    k = len(relations)
    if not 2 <= k <= 4:
        raise ValueError("star_join supports 2 <= k <= 4 relations")
    if delta1 < 1 or delta2 < 1:
        raise ValueError("thresholds must be >= 1")
    rels = _ensure_reduced_many(relations)
    dims = [ri.rel.dom_left for ri in rels]
    _check_code_space(dims)
    dom_y = len(rels[0].rel.right_values)
    deg = np.stack([ri.right_deg for ri in rels])
    light_left = [ri.left_deg <= delta2 for ri in rels]

    code_arrays = [np.empty(0, dtype=np.int64)]
    nonempty = (deg > 0).all(axis=0)

    # sub-joins with one relation restricted to light-x tuples
    for j in range(k):
        for b in np.nonzero(nonempty)[0]:
            lists = [ri.rev(b) for ri in rels]
            lj = lists[j][light_left[j][lists[j]]]
            if len(lj) == 0:
                continue
            lists[j] = lj
            code_arrays.append(_cross_codes(lists, dims))

    # sub-joins over witnesses light in all relations but at most one
    diamond = (deg <= delta1).sum(axis=0) >= k - 1
    for b in np.nonzero(diamond & nonempty)[0]:
        code_arrays.append(_cross_codes([ri.rev(b) for ri in rels], dims))

    # heavy part: composite-key matrices V x W^T
    heavy_left = [np.nonzero(ri.left_deg > delta2)[0] for ri in rels]
    heavy_y = np.nonzero((deg > delta1).sum(axis=0) >= 2)[0]
    g1 = list(range(math.ceil(k / 2)))
    g2 = list(range(math.ceil(k / 2), k))
    heavy_codes = np.empty(0, dtype=np.int64)
    heavy_rows = []
    if len(heavy_y) and all(len(heavy_left[i]) for i in range(k)):
        for grp in (g1, g2):
            n_rows = math.prod(len(heavy_left[i]) for i in grp)
            if n_rows > heavy_rows_cap:
                raise StarResourceError(
                    f"{n_rows} heavy combinations exceed the cap; "
                    "increase delta2")
        pos_y = np.full(dom_y, -1, dtype=np.int64)
        pos_y[heavy_y] = np.arange(len(heavy_y))

        def membership(i):
            pos_l = np.full(dims[i], -1, dtype=np.int64)
            pos_l[heavy_left[i]] = np.arange(len(heavy_left[i]))
            left, right = rels[i].rel.pairs[:, 0], rels[i].rel.pairs[:, 1]
            sel = (pos_l[left] >= 0) & (pos_y[right] >= 0)
            a = np.zeros((len(heavy_left[i]), len(heavy_y)), dtype=np.uint8)
            a[pos_l[left[sel]], pos_y[right[sel]]] = 1
            return a

        def grouped(grp):
            v = membership(grp[0])
            for i in grp[1:]:
                v = (v[:, None, :] * membership(i)[None, :, :]).reshape(
                    -1, len(heavy_y))
            return v

        v, w = grouped(g1), grouped(g2)
        m = multiply_counts(CountMatrix(v),
                            CountMatrix(np.ascontiguousarray(w.T)))
        heavy_rows = [v.shape[0], w.shape[0], len(heavy_y)]
        ri, ci = np.nonzero(m.data)
        shape1 = tuple(len(heavy_left[i]) for i in g1)
        shape2 = tuple(len(heavy_left[i]) for i in g2)
        cols1 = np.unravel_index(ri, shape1)
        cols2 = np.unravel_index(ci, shape2)
        cols = [heavy_left[i][cols1[p]] for p, i in enumerate(g1)]
        cols += [heavy_left[i][cols2[p]] for p, i in enumerate(g2)]
        heavy_codes = _encode(cols, dims)

    codes = _dedup(np.concatenate(code_arrays + [heavy_codes]))
    stats = {"heavy_dims": heavy_rows}
    if not want_counts:
        return OutputSet(codes, dims, None, stats)

    # exact witness counts by full per-witness enumeration at desk scale
    bufs = [np.empty(0, dtype=np.int64)]
    for b in np.nonzero(nonempty)[0]:
        bufs.append(_cross_codes([ri.rev(b) for ri in rels], dims))
    u, cnt = _dedup(np.concatenate(bufs), True)
    if not np.array_equal(u, codes):
        raise RuntimeError("star_join: witness recount disagrees with the "
                           "partitioned result")
    return OutputSet(u, dims, cnt, stats)
