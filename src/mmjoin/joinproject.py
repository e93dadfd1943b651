"""Join-project evaluation: the two-path join, star queries and the
full-join baseline, all three through one witness-disjoint partitioned join
(_partitioned) and one dedup (_dedup_output). A join sizes its split once,
by the planner's optimizer.size_splits, and from those sizes budgets its
allocations and picks its emit (optimizer.counts_densely), as the planner
priced them. Its heavy part is one blocked product per component
(matmul.multiply_counts, the upper triangle only for a self-join), each
block handed to that emit: added into a dense buffer over the output space,
or kept as codes over the floor, in the narrow code_type of that space. A
two-path self-join may keep each pair once (two_path_join's `upper`, which
SSJ uses): its triangles then have no mirror. The products report the tier
and threads they ran with.

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
    light_split,
    price_plan,
    self_join,
    size_splits,
)
from .relation import (
    IndexedRelation,
    _dedup,
    build_indexes,
    gather_ranges,
    semi_join_reduce_many,
)


class StarResourceError(DataError, RuntimeError):
    """A join would allocate past its budget; retry with other thresholds."""


class OutputSet:
    """Deduplicated projected tuples, optionally with witness counts.

    `codes` ascend, so the tuples come sorted by their ids.
    """

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


def _rectangles(rows: np.ndarray, cols: np.ndarray, lo: int, hi: int,
                triangle: bool, upper: bool = False) -> list:
    """What block lo..hi-1 of V @ W^T stands for in the product, as (rows,
    cols, first column, transposed) rectangles of the block, the rows and
    cols slices of `rows` and `cols` (one key, or key as a code, per row of
    V and column of W^T): the block, and in a triangle the mirror of its
    part right of its square on the diagonal (the square is computed
    whole), that part transposed. In one orientation (`upper`) a triangle
    has no mirror. No two blocks' rectangles share an entry."""
    rects = [(rows[lo:hi], cols[lo if triangle else 0:], 0, False)]
    if triangle and not upper and hi < len(rows):
        rects.append((rows[hi:], cols[lo:hi], hi - lo, True))
    return rects


def _emit(v: CountMatrix, wt: CountMatrix, triangle: bool, view=None,
          dim: int = 1, floor: int = 1, counted: bool = False,
          upper: bool = False, code=np.int64):
    """The emit that runs on each block of V @ W^T, on the thread that
    computed it, and gives its rectangles' nonzero entries and a list of
    parts, one per rectangle. In one orientation (`upper`: a triangle's
    pairs a < b only) the block's diagonal square keeps only its strict
    upper triangle. The dense emit adds each rectangle into `view` (the
    output buffer as two dimensions) at its keys, and gives no parts. The
    codes emit compares the block with `floor` once and keeps a rectangle's
    entries counted at least that many times as codes row_key * dim +
    col_key of type `code` (matmul.core.code_type of the output space),
    giving (codes, counts in the block's exact type or None without
    `counted`, each row's codes, each row's first code had it kept every
    entry); every row's codes are one run, in order."""
    if view is None:  # the keys as codes, once a product
        row_keys = (v.row_keys * dim).astype(code)
        col_keys = wt.col_keys.astype(code)
    else:
        row_keys, col_keys = v.row_keys, wt.col_keys

    def emit(lo, hi, block):
        if upper:  # nothing on or below the diagonal
            block[:, :hi - lo][np.tri(hi - lo, dtype=bool)] = 0
        nonzero, parts = 0, []
        rects = _rectangles(row_keys, col_keys, lo, hi, triangle, upper)
        if view is not None:  # by slices where the keys are runs
            for keys, cols, off, flip in rects:
                m = block[:, off:].T if flip else block
                at = _as_run(keys), _as_run(cols)
                if all(isinstance(x, np.ndarray) for x in at):
                    at = np.ix_(*at)
                view[at] += m.astype(np.int64)
                nonzero += np.count_nonzero(m > 0)
            return nonzero, parts
        keep = block >= floor
        for rows, cols, off, flip in rects:
            m, k = ((block[:, off:].T, keep[:, off:].T) if flip
                    else (block, keep))
            kept = np.count_nonzero(k)
            nonzero += kept if floor <= 1 else np.count_nonzero(m > 0)
            if 10 * kept < 9 * k.size:  # not nearly all: by position
                at = np.flatnonzero(k)
                i = at // len(cols)
                j = at - i * len(cols)
                codes = rows[i] + cols[j]
                # the counts gathered at their places in the block
                place = j * block.shape[1] + off + i if flip else at
                counts = block.ravel()[place] if counted else None
                lens = np.bincount(i, minlength=len(rows))
            else:
                codes = np.add.outer(rows, cols).ravel()
                counts = m.ravel() if counted else None
                lens = k.sum(axis=1)
                if kept < k.size:
                    flat = k.ravel()
                    codes = codes[flat]
                    counts = None if counts is None else counts[flat]
            parts.append((codes, counts, lens, rows + cols[0]))
        return nonzero, parts

    return emit


def _dedup_output(codes: np.ndarray, dims: Sequence[int], dense: bool,
                  want_counts: bool = False, factors=(),
                  triangle: bool = False, floor: int = 1,
                  upper: bool = False) -> OutputSet:
    """The distinct `codes` of the two-dimensional space `dims` and the
    products V @ W^T of `factors` ((V, W^T) pairs over keys no two share;
    entry (i, j) counts code row_keys[i] * dims[1] + col_keys[j]), counted
    at least `floor` times, with their counts if want_counts. With
    `triangle` every V is its W, and with `upper` only its entries i < j
    count (one orientation: the caller's codes are of those pairs too).

    `dense` is the emit its caller priced (optimizer.counts_densely). The
    dense emit holds every light count in one bincount over the space, adds
    each block in, and reads the codes at the floor off it. The codes emit
    keeps each block's codes that reach the floor (1 beside light codes:
    the floor applies once merged) in the narrow code_type of the space,
    widens them to int64 once, as it joins the runs, and merges the light
    codes in by one sort and a binary search. The runs come in the order of
    their first codes where the blocks give them so (one product without
    mirrors: a rectangle, or a triangle in one orientation), and are put in
    that order otherwise. The stats name the `emit` (None with neither
    light codes nor products), the products' nonzero entries before the
    floor (`heavy_pairs`: both orientations of a self-join's, one with
    `upper`), their `blocks`, the most threads one ran on (`workers`) and
    the widest exact_type they ran in (`tier`), as multiply_counts reports
    them.
    """
    emit = (("dense" if dense else "codes") if len(codes) or factors
            else None)
    low = 1 if len(codes) else floor
    counted = want_counts or floor > low
    buf = (np.bincount(codes, minlength=math.prod(dims)) if emit == "dense"
           else None)
    workers = _matmul.worker_count()
    code = _matmul.code_type(math.prod(dims))
    products = [multiply_counts(v, wt, _emit(
        v, wt, triangle, None if buf is None else buf.reshape(dims), dims[1],
        low, counted, upper, code), triangle, workers) for v, wt in factors]
    blocks = [block for p in products for block in p.parts]
    tier = max((p.tier for p in products), key=_matmul.TIERS.index,
               default=None)
    stats = {"emit": emit, "heavy_pairs": int(sum(n for n, _ in blocks)),
             "blocks": len(blocks), "tier": tier and tier.__name__,
             "workers": max((p.threads for p in products), default=1)}
    if buf is not None:
        codes = np.flatnonzero(buf >= floor if floor > 1 else buf)
        return OutputSet(codes, dims, buf[codes] if want_counts else None,
                         stats)
    runs = [run for _, parts in blocks for run in parts]
    extra = None
    if runs:
        # the counts are whole numbers in their block's exact type, so the
        # cast from a float type (numpy's "unsafe") is exact
        extra = [np.concatenate([r[0] for r in runs], dtype=np.int64),
                 np.concatenate([r[1] for r in runs], dtype=np.int64,
                                casting="unsafe") if counted else None]
        lens = np.concatenate([r[2] for r in runs])
        first = np.concatenate([r[3] for r in runs])
        if (first[1:] < first[:-1]).any():
            # the runs in the order of their first codes
            order = np.argsort(first)
            starts = (np.cumsum(lens) - lens)[order]
            lens = lens[order]
            at = (np.repeat(starts - (np.cumsum(lens) - lens), lens)
                  + np.arange(len(extra[0])))
            extra = [x if x is None else x[at] for x in extra]
    if not counted:
        return OutputSet(_dedup(codes, sorted_extra=extra), dims, None, stats)
    codes, counts = _dedup(codes, True, extra)
    if floor > low:  # light codes beside the products: the floor, merged
        over = counts >= floor
        codes, counts = codes[over], counts[over]
    return OutputSet(codes, dims, counts if want_counts else None, stats)


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


def _below_diagonal(codes: np.ndarray, d: int,
                    step: int = 1 << 16) -> np.ndarray:
    """The codes x * d + z of `codes` with x < z, in their order. They are
    moved slice by slice to the front of `codes`, which they overwrite, and
    copied out: no temporary is as large as `codes`, where one vectorized
    pass held two arrays of its size (14.65 against 12.95 traced MiB for
    SSJ on one worker, tests/test_gram.py)."""
    at = 0
    for lo in range(0, len(codes), step):
        part = codes[lo:lo + step]
        # x * (d + 1) < x * d + z iff x < z
        part = part[part // d * (d + 1) < part]
        codes[at:at + len(part)] = part
        at += len(part)
    return codes[:at].copy()


def _partitioned(rels: Sequence[IndexedRelation], light_in: int,
                 plan: ThresholdPlan, want_counts: bool,
                 floor: int = 1, upper: bool = False) -> OutputSet:
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
    triangles are computed. `upper` keeps a two-path self-join in one
    orientation, the tuples (x, z) with x < z only: the light codes are
    written in both and halved in place (_below_diagonal) before they are
    counted. The stats add the light codes kept (`light_intermediate`) and
    the plan to _dedup_output's.
    """
    light_y, light_left = light_split(rels, light_in, plan.delta1,
                                      plan.delta2)
    k = len(rels)
    dims = [ri.rel.dom_left for ri in rels]
    _check_code_space(dims)
    # the facts the planner prices, for this one split: heavy[i, y] is the
    # tuples of relation i at y with a heavy left value (none at a light y:
    # all of them are taken as light), sizes[j, y] the codes of witness y
    # whose first light position is j
    split = size_splits(rels, light_in, np.array([plan.delta1]),
                        np.array([plan.delta2]))
    planned, heavy = split.sizes, split.heavy[0]
    light = split.deg - heavy
    heavy_left = [np.flatnonzero(~ll) for ll in light_left]
    heavy_y = np.flatnonzero(~light_y)
    half = (k + 1) // 2
    n_light = int(planned.light[0, 0])
    triangle = self_join(rels)
    space = math.prod(dims)
    # the entries of V and W, and of the products' blocks
    run = planned.rows[0] * planned.inner[0] * planned.cols[0] > 0
    n_heavy = int(planned.factor_entries[0, 0] + _matmul.block_plan(
        planned.rows[0, run], planned.inner[0, run], planned.cols[0, run],
        _matmul.worker_count(), triangle)[2].sum())
    dense = counts_densely(space, n_light, planned.product_entries[0, 0],
                           floor)
    n_buffer = space if dense else 0
    _within_budget(n_light + n_heavy + n_buffer,
                   f"light codes, heavy matrix entries and buffer slots "
                   f"({n_light} + {n_heavy} + {n_buffer})")

    sizes = split.pieces[0].astype(np.int64)
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
        if upper:
            codes = _below_diagonal(codes, dims[1])

    factors = (heavy_matrices(rels, heavy_left, heavy_y, split.comp,
                              split.comp_left)
               if planned.blocks[0, 0] else [])
    # the output space viewed as two dimensions, V's keys by W's; a code is
    # the same integer in both views
    dims2 = (math.prod(dims[:half]), math.prod(dims[half:]))
    out = _dedup_output(codes, dims2, dense, want_counts, factors, triangle,
                        floor, upper)
    out.dims = tuple(int(d) for d in dims)
    out.stats.update(light_intermediate=len(codes), plan=plan)
    return out


def two_path_join(r: IndexedRelation, s: IndexedRelation,
                  plan: Optional[ThresholdPlan] = None,
                  want_counts: bool = False, floor: int = 1,
                  upper: bool = False) -> OutputSet:
    """pi_{x,z}(R(x,y) join S(z,y)) by _partitioned under `plan`,
    default_plan's by default: a witness is light iff its degree is <=
    delta1 in both relations. Only the pairs (x, z) joined by at least
    `floor` witnesses are kept. A self-join keeps both (x, z) and (z, x),
    or with `upper` (r is s) only x < z: each product then keeps the strict
    upper triangle of its Gram matrix, with no mirror, and the light codes
    their pairs x < z."""
    if floor < 1:
        raise ValueError("floor must be >= 1")
    if upper and r is not s:
        raise ValueError("one orientation needs a self-join")
    r, s = _ensure_reduced_many([r, s])
    if plan is None:
        plan = default_plan(r, s, floor)
    return _partitioned([r, s], 2, plan, want_counts, floor, upper)


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
