"""Join-project evaluation: the two-path join, star queries and the
full-join baseline, all three through one witness-disjoint partitioned join
(_partitioned) and one dedup (_dedup_output). Its heavy part is one blocked
product per component (matmul.multiply_counts, the upper triangle only for
a self-join), each block handed to one of two emits: added into a dense
buffer over the output space, or kept as codes over the floor.

Output tuples are kept as mixed-radix int64 codes over the left domains of
the participating relations; OutputSet decodes on demand.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .matmul import CountMatrix, multiply_counts
from .matmul import core as _matmul
from .optimizer import (
    FULL_JOIN,
    PARTITIONED,
    ThresholdPlan,
    counts_densely,
    default_plan,
    join_sizes,
    light_split,
    piece_sizes,
    price_plan,
    self_join,
)
from .relation import (
    IndexedRelation,
    build_indexes,
    gather_ranges,
    left_components,
    semi_join_reduce_many,
    witness_components,
)


class StarResourceError(DataError, RuntimeError):
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
    """`idxs` aligned on one right dictionary (semi_join_reduce_many), with
    their left ids kept, so the result's codes are in the callers' ids. A
    relation given more than once gets one index (build_indexes)."""
    first = idxs[0]
    if all(first.shares_right_dict(o) for o in idxs[1:]):
        return list(idxs)
    return build_indexes(semi_join_reduce_many([i.rel for i in idxs]))


def _strides(dims: Sequence[int]) -> list:
    """What each position's value is multiplied by in a row-major code."""
    return [math.prod(dims[i + 1:]) for i in range(len(dims))]


def _cross_codes(parts: list) -> np.ndarray:
    """Codes of the cross product of `parts`, row-major; each part holds its
    values already multiplied by their stride (_strides)."""
    return functools.reduce(np.add.outer, parts).ravel()


class _Groups(NamedTuple):
    """Sorted ids grouped by component: `values` in that order, each
    component's `counts` and `starts` in it, and each id's position within
    its component, over all ids (-1 where not a value)."""
    values: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    pos: np.ndarray

    def of(self, c: int) -> np.ndarray:
        return self.values[self.starts[c]:self.starts[c] + self.counts[c]]


def _by_component(values: np.ndarray, of: np.ndarray, n_comp: int,
                  dom: int) -> _Groups:
    """The sorted ids `values` of 0..dom-1 grouped by their components `of`."""
    order = np.argsort(of, kind="stable")
    counts = np.bincount(of, minlength=n_comp)
    starts = np.cumsum(counts) - counts
    grouped = values[order]
    pos = np.full(dom, -1, dtype=np.int64)
    pos[grouped] = np.arange(len(values)) - starts[of[order]]
    return _Groups(grouped, counts, starts, pos)


def heavy_matrices(rels: Sequence[IndexedRelation], heavy_left: list,
                   heavy_y: np.ndarray, comp: np.ndarray, comp_left: list):
    """The heavy matrices (M1 and M2 of a two-path join) as (V, W^T), one
    pair for each component of the witnesses (`comp`, and each left
    value's in `comp_left`) with heavy witnesses and heavy left values in
    every relation, over that component's heavy witnesses. V's rows are the
    combinations of the component's heavy left values of the first
    ceil(k/2) relations and W's of the rest; a row is 1 at a witness every
    value in it joins. No left value joins witnesses of two components, so
    the products of the pairs hold every nonzero entry of the product over
    all components. Row keys are the combinations' codes, so V @ W^T is
    keyed by the output space viewed as two dimensions (see _partitioned)."""
    k, half = len(rels), (len(rels) + 1) // 2
    n_comp = int(comp.max(initial=-1)) + 1
    ys = _by_component(heavy_y, comp[heavy_y], n_comp, len(comp))
    # a relation passed again with the same heavy left values (a self-join)
    # reuses the first one's groups and blocks
    first = [next(j for j in range(i + 1) if rels[j] is rels[i]
                  and np.array_equal(heavy_left[j], heavy_left[i]))
             for i in range(k)]
    lefts, members = {}, {}
    for i in sorted(set(first)):
        idx, cl = rels[i], comp_left[i]
        lefts[i] = _by_component(heavy_left[i], cl[heavy_left[i]], n_comp,
                                 len(cl))
        # the relation's tuples at the heavy witnesses, which come grouped
        # by component, and the heavy left values among them, at their
        # positions in their component's block
        values, lens = gather_ranges(idx.rev_indptr, idx.rev_indices,
                                     ys.values)
        rows = lefts[i].pos[values]
        keep = rows >= 0
        cols = np.repeat(ys.pos[ys.values], lens)[keep]
        ends = np.cumsum(np.bincount(np.repeat(comp[ys.values], lens)[keep],
                                     minlength=n_comp)).tolist()
        members[i] = (rows[keep], cols, [0] + ends)
    runs = np.flatnonzero(np.min([ys.counts] + [g.counts for g in
                                                lefts.values()],
                                 axis=0) > 0).tolist()

    def block(i, c):
        rows, cols, bounds = members[i]
        lo, hi = bounds[c], bounds[c + 1]
        m = np.zeros((lefts[i].counts[c], ys.counts[c]), dtype=np.uint8)
        m[rows[lo:hi], cols[lo:hi]] = 1
        return m

    strides = (_strides([ri.rel.dom_left for ri in rels[:half]])
               + _strides([ri.rel.dom_left for ri in rels[half:]]))

    def grouped(c, at, blocks):
        data = None
        for i in at:
            m = blocks[first[i]]
            data = m if data is None else (
                data[:, None, :] * m[None]).reshape(-1, ys.counts[c])
        keys = _cross_codes([lefts[first[i]].of(c) * strides[i] for i in at])
        return data, keys

    factors = []
    for c in runs:
        blocks = {i: block(i, c) for i in lefts}
        v, v_keys = grouped(c, range(half), blocks)
        w, w_keys = grouped(c, range(half, k), blocks)
        witnesses = ys.of(c)
        factors.append((CountMatrix(v, row_keys=v_keys, col_keys=witnesses),
                        CountMatrix(w.T, row_keys=witnesses, col_keys=w_keys)))
    return factors


def _dedup(codes: np.ndarray, want_counts: bool = False, sorted_extra=None):
    """Sorted distinct `codes`, by one sort and an adjacent-difference mask
    (np.unique without counts hashes in numpy 2, which is far slower here).

    With want_counts, returns (codes, counts) where counts[i] is the number
    of occurrences of codes[i]. `sorted_extra`, a (codes, counts) pair that
    is already sorted and distinct, is merged in by binary search; its counts
    add to those of equal codes and are ignored without want_counts.
    """
    if sorted_extra is not None and not len(codes):
        return sorted_extra if want_counts else sorted_extra[0]
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


# a key folded from several columns is re-ranked before it passes this
_KEY_LIMIT = 2 ** 63

# a key space at most this many times the keys is ranked with a bitmap over
# the whole space; a larger one with a sort (np.unique)
_BITMAP_SPACE_PER_KEY = 4


def _dense_rank(keys: np.ndarray, space: int):
    """The distinct `keys` (all in [0, space)) ascending, and each key's
    position among them."""
    if space > _BITMAP_SPACE_PER_KEY * len(keys):
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    # each distinct key's rank, written at the key's place in the space
    rank = np.empty(space, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[keys]


def _as_run(keys: np.ndarray):
    """Sorted distinct `keys` as a slice when they are one run of
    consecutive ids (a slice indexes far faster than the keys)."""
    if len(keys) and keys[-1] - keys[0] == len(keys) - 1:
        return slice(int(keys[0]), int(keys[-1]) + 1)
    return keys


def _rectangles(v: CountMatrix, wt: CountMatrix, lo: int, hi: int,
                block: np.ndarray, triangle: bool) -> list:
    """What block lo..hi-1 of V @ W^T stands for in the product, as (row
    keys, col keys, counts) rectangles: the block, and in a triangle the
    mirror of its part right of its square on the diagonal (the square is
    computed whole). No two blocks' rectangles share an entry."""
    rows, cols = v.row_keys, wt.col_keys
    rects = [(rows[lo:hi], cols[lo if triangle else 0:], block)]
    if triangle and hi < len(rows):
        rects.append((rows[hi:], cols[lo:hi],
                      np.ascontiguousarray(block[:, hi - lo:].T)))
    return rects


def _emit(v: CountMatrix, wt: CountMatrix, triangle: bool, view=None,
          dim: int = 1, floor: int = 1, counted: bool = False):
    """The emit that runs on each block of V @ W^T, on the thread that
    computed it, and gives one part per rectangle of the block. The dense
    emit adds each rectangle into `view` (the output buffer as two
    dimensions) at its keys, and gives its nonzero entries. The codes emit
    keeps a rectangle's entries counted at least `floor` times as codes
    row_key * dim + col_key, and gives (codes, counts or None without
    `counted`, each row's codes, each row's first code had it kept every
    entry, nonzero entries); every row's codes are one run, in order."""
    def emit(lo, hi, block):
        parts = []
        for keys, cols, m in _rectangles(v, wt, lo, hi, block, triangle):
            if view is not None:  # by slices where the keys are runs
                at = _as_run(keys), _as_run(cols)
                if all(isinstance(x, np.ndarray) for x in at):
                    at = np.ix_(*at)
                view[at] += m.astype(np.int64)
                parts.append(np.count_nonzero(m > 0))
                continue
            keep = m >= floor
            kept = np.count_nonzero(keep)
            rows = keys * dim
            if 10 * kept < 9 * keep.size:  # not nearly all: by position
                at = np.flatnonzero(keep)
                i = at // len(cols)
                codes = rows[i] + cols[at - i * len(cols)]
                counts = m.ravel()[at]
                lens = np.diff(np.searchsorted(
                    at, np.arange(len(rows) + 1) * len(cols)))
            else:
                codes, counts = np.add.outer(rows, cols).ravel(), m.ravel()
                lens = keep.sum(axis=1)
                if kept < keep.size:
                    flat = keep.ravel()
                    codes, counts = codes[flat], counts[flat]
            parts.append((codes, counts.astype(np.int64) if counted else None,
                          lens, rows + cols[0], kept if floor <= 1
                          else np.count_nonzero(m > 0)))
        return parts

    return emit


def _dedup_output(codes: np.ndarray, dims: Sequence[int],
                  want_counts: bool = False, factors=(),
                  triangle: bool = False, floor: int = 1) -> OutputSet:
    """The distinct `codes` of the two-dimensional space `dims` and the
    products V @ W^T of `factors` ((V, W^T) pairs over keys no two share;
    entry (i, j) counts code row_keys[i] * dims[1] + col_keys[j]), counted
    at least `floor` times, with their counts if want_counts. With
    `triangle` every V is its W. The stats name the products' nonzero
    entries before the floor (`heavy_pairs`, both orientations of a
    self-join's), their `blocks`, the most threads one ran on (`workers`)
    and the widest exact_type they ran in (`tier`).

    While the space is small next to the codes the codes emit touches
    (optimizer.counts_densely), one bincount over it holds every light
    count and the dense emit adds each block in. Otherwise the codes emit
    keeps each block's codes that reach the floor (1 beside light codes:
    the floor applies once merged), runs go in the order of their first
    codes, and one sort and a binary search merge the light codes in.
    """
    space = math.prod(dims)
    workers = _matmul.worker_count()
    low = 1 if len(codes) else floor
    counted = want_counts or floor > low
    dense = counts_densely(space, len(codes),
                           sum(v.rows * wt.cols for v, wt in factors), floor)
    buf = np.bincount(codes, minlength=space) if dense else None
    blocks = []
    for v, wt in factors:
        emit = _emit(v, wt, triangle, None if buf is None else
                     buf.reshape(dims), dims[1], low, counted)
        blocks += multiply_counts(v, wt, emit, triangle, workers)
    runs = [run for block in blocks for run in block]
    stats = {"heavy_pairs": int(sum(r if dense else r[4] for r in runs)),
             "blocks": len(blocks), "tier": None, "workers": max(
                 (_matmul.block_plan(v.rows, v.cols, wt.cols, workers,
                                     triangle)[0] for v, wt in factors),
                 default=1)}
    if factors:
        stats["tier"] = _matmul.exact_type(max(
            v.cols * v.top * wt.top for v, wt in factors)).__name__
    if dense:
        out = _DenseOutputSet(buf, dims, want_counts)
    else:
        extra = None
        if runs:
            extra = [np.concatenate([r[0] for r in runs]), np.concatenate(
                [r[1] for r in runs]) if counted else None]
            lens = np.concatenate([r[2] for r in runs])
            first = np.concatenate([r[3] for r in runs])
            if (np.diff(first) < 0).any():
                # the runs in the order of their first codes
                order = np.argsort(first)
                starts = (np.cumsum(lens) - lens)[order]
                lens = lens[order]
                at = (np.repeat(starts - (np.cumsum(lens) - lens), lens)
                      + np.arange(len(extra[0])))
                extra = [x if x is None else x[at] for x in extra]
        if counted:
            out, counts = _dedup(codes, True, extra)
        else:
            out, counts = _dedup(codes, sorted_extra=extra), None
        out = OutputSet(out, dims, counts)
    # where no light code is beside them, the blocks kept the floor
    out = _floored(out, floor if len(codes) else 1, want_counts)
    out.stats = stats
    return out


def _floored(out: OutputSet, floor: int, want_counts: bool) -> OutputSet:
    """`out` (counted) without the codes counted fewer than `floor` times,
    with its counts only if `want_counts`."""
    if floor <= 1:
        return out
    if out.buffer is not None:
        codes = np.flatnonzero(out.buffer >= floor)
        counts = out.buffer[codes]
    else:
        over = out.counts >= floor
        codes, counts = out.codes[over], out.counts[over]
    return OutputSet(codes, out.dims, counts if want_counts else None)


# A join allocates at most this many array entries across its light codes,
# V and W, the blocks of V @ W^T (whose codes the codes emit may keep) and
# the dense emit's buffer over the whole space, and raises StarResourceError
# before allocating any of them past it. A hub of degree 1500 in a k=3 star
# needs 3.4e9.
_ENTRY_BUDGET = 1 << 28


def _within_budget(entries: int, what: str) -> None:
    """StarResourceError if `entries` of `what` are past the join budget."""
    if entries > _ENTRY_BUDGET:
        raise StarResourceError(
            f"{entries} {what} are over the budget of {_ENTRY_BUDGET}")


def _runs(values: np.ndarray, lens: np.ndarray):
    """`values` cut into consecutive runs of lengths `lens`, as (values,
    starts, ends) with the bounds as Python lists."""
    ends = np.cumsum(lens)
    return values, (ends - lens).tolist(), ends.tolist()


def _partitioned(rels: Sequence[IndexedRelation], light_in: int,
                 plan: ThresholdPlan, want_counts: bool,
                 floor: int = 1) -> OutputSet:
    """pi_{x1..xk} of relations sharing their right column y, split by
    light_split at `plan`'s thresholds, each witness (a y and one left value
    per relation) handled exactly once, so counts add up without a recount;
    only the tuples counted at least `floor` times are kept.

    A light y enumerates its full cross product. A heavy y enumerates, for
    each position j, the combinations whose first light left value is at j:
    heavy lists before j, the light list at j and full lists after it. The
    rest, heavy left values at a heavy y in every relation, is the products
    of heavy_matrices, one per component of the witnesses, which
    _dedup_output multiplies and merges with the light codes; a self-join's
    (optimizer.self_join) are Gram matrices, of which only the upper
    triangles are computed. The stats add the light codes
    (`light_intermediate`) and the plan to _dedup_output's.
    """
    light_y, light_left = light_split(rels, light_in, plan.delta1,
                                      plan.delta2)
    k = len(rels)
    dims = [ri.rel.dom_left for ri in rels]
    _check_code_space(dims)
    deg = np.stack([ri.right_deg for ri in rels])
    # heavy[i, y]: tuples of relation i at y with a heavy left value; at a
    # light y, none: all of them are taken as light
    heavy = deg - np.stack([
        np.bincount(ri.rel.pairs[ll[ri.rel.pairs[:, 0]], 1],
                    minlength=len(light_y))
        for ri, ll in zip(rels, light_left)])
    heavy[:, light_y] = 0
    light = deg - heavy

    heavy_left = [np.flatnonzero(~ll) for ll in light_left]
    heavy_y = np.flatnonzero(~light_y)
    half = (k + 1) // 2
    # the heavy part is one product per component of the witnesses, if it
    # has heavy witnesses and heavy left values at all
    comp = (witness_components(rels)
            if len(heavy_y) and all(len(h) for h in heavy_left)
            else np.zeros(len(light_y), dtype=np.int64))
    n_comp = int(comp.max(initial=-1)) + 1
    comp_left = [left_components(ri, comp) for ri in rels]
    # sizes[j, y]: codes of witness y whose first light position is j
    sizes = piece_sizes(deg, heavy)
    # the sizes the planner prices, for this one split
    planned = join_sizes(deg, ~light_y[None], sizes[None],
                         np.array([[np.bincount(cl[h], minlength=n_comp)
                                    for cl, h in zip(comp_left, heavy_left)]]),
                         comp)
    n_light = int(planned.light[0, 0])
    triangle = self_join(rels)
    space = math.prod(dims)
    # the entries of V and W, and of the products' blocks
    run = planned.rows[0] * planned.inner[0] * planned.cols[0] > 0
    n_heavy = int(planned.factor_entries[0, 0] + _matmul.block_plan(
        planned.rows[0, run], planned.inner[0, run], planned.cols[0, run],
        _matmul.worker_count(), triangle)[2].sum())
    n_buffer = space if counts_densely(
        space, n_light, planned.product_entries[0, 0], floor) else 0
    _within_budget(n_light + n_heavy + n_buffer,
                   f"light codes, heavy matrix entries and buffer slots "
                   f"({n_light} + {n_heavy} + {n_buffer})")

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

    factors = (heavy_matrices(rels, heavy_left, heavy_y, comp, comp_left)
               if planned.blocks[0, 0] else [])
    # the output space viewed as two dimensions, V's keys by W's; a code is
    # the same integer in both views
    dims2 = (math.prod(dims[:half]), math.prod(dims[half:]))
    out = _dedup_output(codes, dims2, want_counts, factors, triangle, floor)
    out.dims = tuple(int(d) for d in dims)
    out.stats.update(light_intermediate=len(codes), plan=plan)
    return out


def two_path_join(r: IndexedRelation, s: IndexedRelation,
                  plan: Optional[ThresholdPlan] = None,
                  want_counts: bool = False, floor: int = 1) -> OutputSet:
    """pi_{x,z}(R(x,y) join S(z,y)) by _partitioned under `plan`,
    default_plan's by default: a witness is light iff its degree is <=
    delta1 in both relations. Only the pairs (x, z) joined by at least
    `floor` witnesses are kept. A self-join keeps both (x, z) and (z, x)."""
    if floor < 1:
        raise ValueError("floor must be >= 1")
    r, s = _ensure_reduced_many([r, s])
    if plan is None:
        plan = default_plan(r, s, floor)
    return _partitioned([r, s], 2, plan, want_counts, floor)


def full_join_dedup(r: IndexedRelation, s: IndexedRelation,
                    want_counts: bool = False) -> OutputSet:
    """Enumerate the full join through the y-index, then deduplicate.

    Reference semantics for every join-project operation here: every
    witness is light, so nothing is multiplied.
    """
    r, s = _ensure_reduced_many([r, s])
    n = max(r.n, s.n, 1)  # past every degree
    return _partitioned([r, s], 2, ThresholdPlan(FULL_JOIN, n, n), want_counts)


def star_join(relations: Sequence[IndexedRelation],
              delta1: Optional[int] = None, delta2: Optional[int] = None,
              want_counts: bool = False) -> OutputSet:
    """pi_{x1..xk} of k relations joined on the shared right column.

    A witness is light iff its degree is <= delta1 in at least k - 1
    relations, and a left value iff its degree is <= delta2. Without
    thresholds, the cheapest plan of price_plan's grid runs.
    """
    k = len(relations)
    if not 2 <= k <= 4:
        raise ValueError("star_join supports 2 <= k <= 4 relations")
    if (delta1 is None) != (delta2 is None):
        raise ValueError("delta1 and delta2 go together")
    rels = _ensure_reduced_many(relations)
    plan = (price_plan(rels, k - 1).plan() if delta1 is None
            else ThresholdPlan(PARTITIONED, delta1, delta2))
    return _partitioned(rels, k - 1, plan, want_counts)
