"""Join-project evaluation: the two-path join, star queries and the
full-join baseline, all three through one witness-disjoint partitioned join
(_partitioned) and one dedup (_dedup_output).

Output tuples are kept as mixed-radix int64 codes over the left domains of
the participating relations; OutputSet decodes on demand.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .matmul import CountMatrix, multiply_counts
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
)
from .relation import (
    IndexedRelation,
    build_indexes,
    gather_ranges,
    left_components,
    semi_join_reduce_many,
    witness_components,
)


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


def _kept(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """values[keep], without the copy when every entry is kept (a product
    within a component is often dense)."""
    return values if keep.all() else values[keep]


def _dedup_output(codes: np.ndarray, dims: Sequence[int],
                  want_counts: bool = False, heavy=()) -> OutputSet:
    """The distinct `codes` of the space `dims` as an OutputSet, with their
    counts if want_counts.

    Each of `heavy`, product CountMatrix blocks over a two-dimensional space
    whose keys no two of them share, adds its entry (i, j) to the count of
    code row_keys[i] * dims[1] + col_keys[j].

    The sort path (_dedup) touches every code once to sort it and, when
    blocks merge in, every code and block entry once more. While the space
    is small next to those touches (optimizer.counts_densely), one bincount
    over the whole space holds every count instead and the blocks are added
    into it in place; a single block that is the whole space and has no
    codes beside it is that buffer already.
    """
    space = math.prod(dims)
    if counts_densely(space, len(codes), sum(m.data.size for m in heavy)):
        if (len(heavy) == 1 and not len(codes)
                and heavy[0].data.shape == tuple(dims)):
            return _DenseOutputSet(
                heavy[0].data.astype(np.int64, copy=False).ravel(), dims,
                want_counts)
        buf = np.bincount(codes, minlength=space)
        for m in heavy:
            rows, cols = _as_run(m.row_keys), _as_run(m.col_keys)
            if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
                rows, cols = np.ix_(rows, cols)
            buf.reshape(dims)[rows, cols] += m.data
        return _DenseOutputSet(buf, dims, want_counts)
    extra = None
    if heavy:
        entries = [m.data.ravel() for m in heavy]
        kept = [e > 0 for e in entries]
        # row-major over sorted keys: each block's codes are sorted and
        # distinct, and the blocks' keys are disjoint
        extra = (np.concatenate([
            _kept(np.add.outer(m.row_keys * dims[1], m.col_keys).ravel(),
                  keep) for m, keep in zip(heavy, kept)]),
            np.concatenate([_kept(e, keep) for e, keep in zip(entries, kept)]))
        if len(heavy) > 1:
            # every row's codes are one run, in order: the runs go in the
            # order of their row keys
            lens = np.concatenate([keep.reshape(m.data.shape).sum(axis=1)
                                   for m, keep in zip(heavy, kept)])
            order = np.argsort(np.concatenate([m.row_keys for m in heavy]))
            starts = (np.cumsum(lens) - lens)[order]
            lens = lens[order]
            at = (np.repeat(starts - (np.cumsum(lens) - lens), lens)
                  + np.arange(len(extra[0])))
            extra = (extra[0][at], extra[1][at])
    if want_counts:
        out, counts = _dedup(codes, True, extra)
        return OutputSet(out, dims, counts)
    return OutputSet(_dedup(codes, sorted_extra=extra), dims)


# A join allocates at most this many array entries across its light codes,
# V, W and V @ W^T, and raises StarResourceError before allocating any of
# them past it. The all-heavy k=4 star on a 120-node 3-community graph needs
# 2.1e8 (its product); a hub of degree 1500 in a k=3 star needs 3.4e9.
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
                 plan: ThresholdPlan, want_counts: bool) -> OutputSet:
    """pi_{x1..xk} of relations sharing their right column y, split by
    light_split at `plan`'s thresholds, each witness (a y and one left value
    per relation) handled exactly once, so counts add up without a recount.

    A light y enumerates its full cross product. A heavy y enumerates, for
    each position j, the combinations whose first light left value is at j:
    heavy lists before j, the light list at j and full lists after it. The
    rest, heavy left values at a heavy y in every relation, is the products
    of heavy_matrices, one per component of the witnesses.
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
    n_heavy = int(planned.heavy_entries[0, 0])
    _within_budget(n_light + n_heavy, f"light codes and heavy matrix "
                   f"entries ({n_light} + {n_heavy})")

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

    products = [multiply_counts(v, wt) for v, wt in heavy_matrices(
        rels, heavy_left, heavy_y, comp, comp_left)] if n_heavy else []
    # the output space viewed as two dimensions, V's keys by W's; a code is
    # the same integer in both views
    out = _dedup_output(codes, (math.prod(dims[:half]), math.prod(dims[half:])),
                        want_counts, products)
    out.dims = tuple(int(d) for d in dims)
    out.stats = {"light_intermediate": len(codes),
                 "heavy_pairs": sum(int(np.count_nonzero(m.data))
                                    for m in products),
                 "plan": plan}
    return out


def two_path_join(r: IndexedRelation, s: IndexedRelation,
                  plan: Optional[ThresholdPlan] = None,
                  want_counts: bool = False) -> OutputSet:
    """pi_{x,z}(R(x,y) join S(z,y)) by _partitioned under `plan`,
    default_plan's by default: a witness is light iff its degree is <=
    delta1 in both relations."""
    r, s = _ensure_reduced_many([r, s])
    if plan is None:
        plan = default_plan(r, s)
    return _partitioned([r, s], 2, plan, want_counts)


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
