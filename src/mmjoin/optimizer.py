"""Plans for the partitioned join of the two-path and star queries: the
light/heavy rule (witness_key, light_split), the exact sizes of the join at
every threshold pair of a grid, priced by measured per-operation costs, and
the output-size estimate. The grid runs from the all-heavy corner
(thresholds 0, the pure product) to the all-light one (the full join).
size_splits is the one place a split is sized: price_plan sizes its grid
with it, and joinproject._partitioned the one split it runs, so a join
allocates what was priced and counts with the emit priced for it
(counts_densely, one of joinproject's two). The light codes are priced as
they are written and counted, by ranges of the first field's values
(light_ranges), in one orientation where the join keeps one (a two-path
self-join's pairs x < z). Every product is priced as
matmul.multiply_counts runs it: by row blocks on the threads it gets, the
upper triangle only for a self-join."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matmul import CalibrationError, CalibrationTable
from .matmul import core as _matmul
from .relation import (IndexedRelation, _dedup, left_components,
                       witness_components)

FULL_JOIN = "fulljoin"
PARTITIONED = "partitioned"


@dataclass
class ThresholdPlan:
    """Thresholds, which a join runs as they are (light_split), and the
    planner's label for them (FULL_JOIN for its all-light corner); the
    costs are its modeled nanos and `iterations` the candidates priced.
    Thresholds of 0 are the all-heavy corner: no tuple is light."""
    strategy: str
    delta1: int
    delta2: int
    light_cost: float = 0.0
    heavy_cost: float = 0.0
    iterations: int = 0

    @property
    def total_cost(self) -> float:
        return self.light_cost + self.heavy_cost


# compare-exchanges that sort 1 to 4 rows
_SORTING_NETWORKS = {1: [], 2: [(0, 1)], 3: [(0, 1), (1, 2), (0, 1)],
                     4: [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]}


def witness_key(rels: Sequence[IndexedRelation], light_in: int) -> np.ndarray:
    """Each witness's `light_in`-th smallest degree in `rels` (at most 4):
    it is light iff that key is <= delta1, i.e. in at least `light_in`
    relations (both of a two-path join, k - 1 of a star of k). A sorting
    network orders the degree rows elementwise."""
    rows = [ri.right_deg for ri in rels]
    for i, j in _SORTING_NETWORKS[len(rows)]:
        rows[i], rows[j] = (np.minimum(rows[i], rows[j]),
                            np.maximum(rows[i], rows[j]))
    return rows[light_in - 1]


def light_split(rels: Sequence[IndexedRelation], light_in: int,
                delta1: int, delta2: int):
    """The one light/heavy rule, as masks (light_y, [light_left per
    relation]): a witness is light iff its witness_key is <= delta1, a left
    value iff its degree is <= delta2, and a tuple iff either is. At 0 no
    tuple is light."""
    if delta1 < 0 or delta2 < 0:
        raise ValueError("thresholds must be >= 0")
    return (witness_key(rels, light_in) <= delta1,
            [ri.left_deg <= delta2 for ri in rels])


def self_join(rels: Sequence[IndexedRelation]) -> bool:
    """Whether the relations after the first half are the first half again
    (a two-path join of a relation with itself): then V = W, and each heavy
    product is the Gram matrix V @ V^T, which is symmetric, on every plan."""
    half, odd = divmod(len(rels), 2)
    return not odd and all(a is b for a, b in zip(rels[:half], rels[half:]))


def estimate_output_size(dom_x: int, out_join: int, n: int) -> int:
    """Geometric mean of the analytic lower and upper |OUT| bounds."""
    if out_join < 0 or n < 1:
        raise ValueError("out_join >= 0 and n >= 1 required")
    if out_join == 0 or dom_x == 0:
        return 0
    lower = max(dom_x, (out_join / n) ** 2)
    upper = min(dom_x * dom_x, out_join)
    est = math.ceil(math.sqrt(lower * upper))
    if upper >= 1:
        est = max(1, min(est, upper))
    return int(est)


# Counting in a buffer over the whole code space beats the sort path while
# the space is at most this many times the codes that path touches (see
# counts_densely); measured break-even. Light codes with no product beside
# them are counted range by range (light_ranges), each range's buffer in
# cache: a bincount over a range's 2^16 slots and a read of its codes at
# the floor took as long as a sort of 10k-11k of its codes in uint32 and
# the same read (84-92 against 89-98 us at 11k, one core of a 2-vCPU VM),
# so there the break-even is the second.
_DENSE_SPACE_PER_CODE = 1.5
_RANGE_SPACE_PER_CODE = 6.0


def counts_densely(space, light, product, floor=1):
    """Whether joinproject._dedup_output counts `light` codes and products
    of `product` entries (0 for none) in buffers over the `space` (the
    dense emit) rather than as sorted codes (the codes emit), which touch
    every light code once and, when products merge in, every code and
    product entry once more. A floor over 1 with no light codes is kept in
    the blocks, never in a buffer. Takes scalars or arrays that broadcast."""
    touched = light + (product > 0) * (light + product)
    per_code = np.where(product > 0, _DENSE_SPACE_PER_CODE,
                        _RANGE_SPACE_PER_CODE)
    return (space <= per_code * touched) & ((floor <= 1) | (light > 0))


def piece_sizes(deg: np.ndarray, heavy: np.ndarray) -> np.ndarray:
    """Light codes of a partitioned join by the first position of a light
    left value in them, in float64 (a size past 2^53 is over any entry
    budget anyway).

    `deg[i, y]` is relation i's degree at witness y and `heavy[..., i, y]`
    its tuples at y whose left value is heavy (0 at a light witness). The
    combinations at y whose first light left value is at position j number
    sizes[..., j, y] = prod_{i<j} heavy_i(y) * light_j(y) *
    prod_{i>j} deg_i(y). At a light witness that is its full cross product
    at j = 0 and nothing after.
    """
    deg = np.asarray(deg, dtype=np.float64)
    heavy = np.asarray(heavy, dtype=np.float64)
    sizes = np.empty(heavy.shape)
    before = 1.0
    for j in range(len(deg)):
        sizes[..., j, :] = (before * (deg[j] - heavy[..., j, :])
                            * deg[j + 1:].prod(axis=0))
        before = before * heavy[..., j, :]
    return sizes


def _pairs(n: np.ndarray) -> np.ndarray:
    """n choose 2, in float64."""
    n = np.asarray(n, dtype=np.float64)
    return n * (n - 1) / 2


# The light codes are written and counted by ranges of the first field's
# values, each range's buffer within about this many entries: the dense
# emit's over the range's slots (values times the other fields' product,
# at least one value), the codes emit's its codes (about the light codes
# over the ranges). A range's codes and its count then stay within a few
# MiB, in cache; see light_ranges. Of 2^12 to 2^17 entries, 2^16 ran the
# four full joins of the cost measurements below fastest on the dense
# emit, and on the codes emit within 13% of the fastest (one series each,
# on one core of a 2-vCPU VM).
_RANGE_ENTRIES = 1 << 16


def range_width(dims: Sequence[int]) -> int:
    """Values of the first of the output's `dims` in a range of the dense
    emit: as many as fit _RANGE_ENTRIES slots, at least one."""
    return max(1, _RANGE_ENTRIES // max(math.prod(dims[1:]), 1))


def light_ranges(dims: Sequence[int], light, dense):
    """The ranges joinproject._partitioned writes and counts `light` codes
    in, elementwise over the emit (`dense`): range_width's values each for
    the dense emit, ceil(light / _RANGE_ENTRIES) for the codes emit, which
    cuts the first field where the codes pass each share; none without
    light codes."""
    light = np.asarray(light, dtype=np.float64)
    return np.where(light > 0, np.where(
        dense, -(-int(dims[0]) // range_width(dims)),
        np.ceil(light / _RANGE_ENTRIES)), 0)


def _positive(dims: np.ndarray) -> np.ndarray:
    return (dims > 0).astype(np.float64)


@dataclass
class JoinSizes:
    """What joinproject._partitioned allocates, per candidate split: G1
    witness splits by G2 left-value splits.

    `light` (G1, G2) is the light codes. The heavy part is one product
    V @ W^T per component of the witnesses (relation.witness_components)
    with heavy witnesses and heavy left values in every relation: `rows`
    (G2, C) and `cols` (G2, C) are the dims u and w of V (u x v) and W^T
    (v x w) per component and `inner` (G1, C) their v. The properties sum
    over the components whose product runs.
    """
    light: np.ndarray
    rows: np.ndarray
    inner: np.ndarray
    cols: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        """Products that run."""
        return _positive(self.inner) @ _positive(self.rows * self.cols).T

    @property
    def product_entries(self) -> np.ndarray:
        """Entries of the products V @ W^T."""
        return _positive(self.inner) @ (self.rows * self.cols).T

    @property
    def factor_entries(self) -> np.ndarray:
        """Entries of the factors V and W."""
        return self.inner @ ((self.rows + self.cols)
                             * _positive(self.rows * self.cols)).T


def join_sizes(full: np.ndarray, at_heavy: np.ndarray, heavy_y: np.ndarray,
               heavy_left: np.ndarray, comp: np.ndarray) -> JoinSizes:
    """Exact sizes of the partitioned join of k relations for G1 witness
    splits by G2 left-value splits.

    `full` (Y,) holds each witness's light codes where it is light (all its
    combinations) and `at_heavy` (G2, Y) where it is heavy, under each left
    split; `heavy_y` (G1, Y) each witness split's heavy witnesses,
    `heavy_left` (G2, k, C) each left split's heavy left values per
    relation and component and `comp` (Y,) each witness's component. V's
    rows are the heavy left combinations of the first ceil(k/2) relations
    within a component and W's of the rest.
    """
    g1, k = len(heavy_y), heavy_left.shape[1]
    half = (k + 1) // 2
    # every total is a sum over the witnesses, so one matrix product gives
    # them for every pair of splits: each witness's light codes as light,
    # changed at a heavy witness into those it has as heavy
    at_heavy_y = np.asarray(heavy_y, dtype=np.float64)
    light = at_heavy_y @ (at_heavy - full).T + full.sum()
    n_comp = heavy_left.shape[-1]
    inner = np.bincount((np.arange(g1)[:, None] * n_comp + comp).ravel(),
                        weights=at_heavy_y.ravel(),
                        minlength=g1 * n_comp).reshape(g1, n_comp)
    heavy_left = np.asarray(heavy_left, dtype=np.float64)
    return JoinSizes(light, heavy_left[:, :half].prod(axis=1), inner,
                     heavy_left[:, half:].prod(axis=1))


# Nanos per unit of work of a two-path join, measured on one core of a
# 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS on one thread), each the median of
# 21 timings of one joinproject step in isolation over its count:
# - _NS_PER_RANGE, _NS_PER_CODE: the light codes written by ranges
#   (_light_ranges, its setup included) per range and per code, from the
#   full joins of four inputs at 2^12 to 2^17 entries a range: the
#   benchmark sets family in one orientation (414k codes) and in both
#   (906k), a k=3 star of random relations (18.5M) and 800 nodes in 8
#   communities (2.0M); 3.3-6.5 a code, 13-33 us a range;
# - _NS_PER_SLOT, _NS_PER_COUNTED: the dense emit's count of the same
#   ranges at floor 1, least squares over the four (3.9-9.3 ms for the
#   sets, 198 ms for the star), the reads of the kept codes included;
# - _NS_PER_SORTED, _NS_PER_MERGED: the codes emit's sort of each range
#   (16-19 a code on the sets and the star, 8.5 on the graph, whose codes
#   repeat) and per entry of a product merged into the light codes (87-124
#   for squares of 100 to 1000 entries a side);
# - _NS_PER_TUPLE, _NS_PER_ENTRY: heavy_matrices per tuple of both
#   relations (12.1 on the 108k-tuple benchmark community graph and on an
#   8-community one, less the other two parts) and np.zeros per uint8
#   entry of V or W;
# - _NS_PER_MADD: CalibrationTable.ns_per_madd of calibrate()'s default
#   probes, in processes that first freed an 8 MiB array (so the multiply's
#   temporaries stay on the heap, as in a join after its parse): 0.024, the
#   median of 20 processes' medians of 31 calibrations, quartiles 0.019 and
#   0.028 (a fresh process reads 0.03-0.05); a calibration table's own
#   ns_per_madd replaces it.
# A product's blocks (matmul.multiply_counts) and their emits, on one
# thread:
# - _NS_PER_BLOCK: a block's fixed part, with its product's own: the numpy
#   calls from the component's heavy build to its emit (45 us a component
#   on graphs of 100 to 400 components of 4 nodes);
# - _NS_PER_WRITTEN: the dense emit adding a product entry into the buffer
#   by np.ix_, keys not one run (10-17 for products of 200 to 1000 rows a
#   side; ~6 where the keys are runs and it adds by slices);
# - _NS_PER_SCANNED, _NS_PER_KEPT: the codes emit per product entry
#   compared with the floor and per code kept and put in order (2-5 an
#   entry on the same products where ~15% reach the floor, 5-10 where all
#   do).
# _THREAD_GAIN: what each thread past the first adds to a product's
# blocks: the sets family's one-orientation Gram at c = 3 (954 x 500) ran
# 1.74 and 1.89 times as fast on two workers as on one (13.5 -> 7.7 and
# 12.8 -> 6.7 ms, medians of two series of 30 alternating pairs), where
# its blocks' work divided over two whole threads would run 2.4 times as
# fast (two threads cut it into more blocks, which hold less of V V^T):
# a gain of 0.5 and 0.6. At 0.6 the two-orientation join of the same
# family at floor 1 plans 1/16, which ran in 12.3 ms against the full
# join's 8.8 (60 alternating pairs); at 0.5 it plans the full join.
# With them the modeled cost of 96 grid candidates on eight inputs (the
# benchmark community and star graphs, the sets family at floors 1 and 3
# in one orientation, a 200-set family at 2, 800 nodes in 8 and in 200
# communities, a random graph; up to 12 candidates each) was 0.74 of the
# measured join time in the median, 0.34 to 1.03 from the 10th to the 90th
# percentile, on two vCPUs.
_NS_PER_RANGE = 20000.0
_NS_PER_CODE = 5.0
_NS_PER_SLOT = 2.0
_NS_PER_COUNTED = 4.0
_NS_PER_SORTED = 17.0
_NS_PER_MERGED = 95.0
_NS_PER_TUPLE = 12.0
_NS_PER_ENTRY = 0.05
_NS_PER_MADD = 0.024
_NS_PER_BLOCK = 45000.0
_NS_PER_WRITTEN = 13.0
_NS_PER_SCANNED = 2.0
_NS_PER_KEPT = 10.0
_THREAD_GAIN = 0.5
# gram_kept_estimate gives up past this many pairs of left-value groups,
# and sums at most this many terms of a Poisson tail
_ESTIMATE_PAIRS = 1 << 16
_ESTIMATE_TERMS = 200


def _split_grid(top: int) -> np.ndarray:
    """Thresholds 0 (all heavy), 1, 2, 4, ... up to the first power of two
    past `top` (all light)."""
    return np.concatenate(([0], 2 ** np.arange(int(top).bit_length() + 1)))


def gram_kept_estimate(idx: IndexedRelation, comp: np.ndarray,
                       floor: int) -> Optional[float]:
    """About the codes a two-path self-join of idx keeps at `floor`: the
    pairs (a, b) of left values of one component C, both orders and a = b
    included, whose overlap reaches the floor, the overlap taken as Poisson
    with mean s_a * s_b * q_C. s_a is a's degree and q_C the sum of the
    squares of C's witness degrees over the square of their sum, as if each
    left value picked its witnesses by their popularity. Left values are
    grouped by (component, degree); None past _ESTIMATE_PAIRS pairs of
    groups."""
    n_comp = int(comp.max(initial=-1)) + 1
    y_deg = idx.right_deg.astype(np.float64)
    q = (np.bincount(comp, weights=y_deg ** 2, minlength=n_comp)
         / np.maximum(np.bincount(comp, weights=y_deg, minlength=n_comp),
                      1) ** 2)
    size, has = idx.left_deg, idx.left_deg > 0
    top = int(size.max(initial=0)) + 1
    groups, count = _dedup(left_components(idx, comp)[has] * top + size[has],
                           True)
    g_comp, g_size = np.divmod(groups, top)
    per = np.bincount(g_comp, minlength=n_comp)
    if per @ per > _ESTIMATE_PAIRS:
        return None
    # every pair (i, j) of groups of one component
    partners = per[g_comp]
    i = np.repeat(np.arange(len(groups)), partners)
    j = ((np.cumsum(per) - per)[g_comp[i]] + np.arange(len(i))
         - np.repeat(np.cumsum(partners) - partners, partners))
    mean = g_size[i] * g_size[j] * q[g_comp[i]]
    term = np.exp(-mean)
    below = term.copy()
    for k in range(1, min(floor, _ESTIMATE_TERMS)):
        term = term * mean / k
        below += term
    return float(count[i] @ (count[j] * np.clip(1 - below, 0, 1)))


@dataclass
class Splits:
    """What size_splits finds for G1 witness splits by G2 left-value splits
    of k relations, all that price_plan prices and joinproject._partitioned
    runs: the thresholds, each relation's degree at each witness `deg`
    (k, Y), the witnesses' components `comp` (Y,) and each relation's left
    values' `comp_left`, and per left split the tuples at each witness whose
    left value is heavy `heavy` (G2, k, Y; 0 at a witness light in every
    witness split), and the `sizes`."""
    delta1s: np.ndarray
    delta2s: np.ndarray
    deg: np.ndarray
    comp: np.ndarray
    comp_left: list
    heavy: np.ndarray
    sizes: JoinSizes


def size_splits(rels: Sequence[IndexedRelation], light_in: int,
                delta1s: Optional[np.ndarray] = None,
                delta2s: Optional[np.ndarray] = None,
                upper: bool = False) -> Splits:
    """The Splits of `rels` under light_split with `light_in` at every
    candidate of the ascending `delta1s` by `delta2s`; by default, 0 and the
    powers of two up to the first past every witness key and left degree
    (the full join). Where no candidate has heavy witnesses and heavy left
    values in every relation, nothing is multiplied, and every witness is
    taken as in one component. With `upper` (a two-path self-join kept in
    one orientation) a witness of degree d, h of them heavy, has the light
    codes of its pairs x < z: C(d, 2) where it is light, C(d, 2) - C(h, 2)
    where it is heavy."""
    if not all(rels[0].shares_right_dict(o) for o in rels[1:]):
        raise ValueError("relations do not share a right dictionary; "
                         "run semi_join_reduce first")
    key = witness_key(rels, light_in)
    if delta1s is None:
        delta1s = _split_grid(key.max(initial=0))
    if delta2s is None:
        delta2s = _split_grid(max(ri.left_deg.max(initial=0) for ri in rels))
    deg = np.array([ri.right_deg for ri in rels])
    heavy_y = key > delta1s[:, None]
    comp = (witness_components(rels) if heavy_y.any() and all(
        (ri.left_deg > delta2s[0]).any() for ri in rels)
        else np.zeros(len(key), dtype=np.int64))
    g, dom_y, n_comp = len(delta2s), len(key), int(comp.max(initial=-1)) + 1
    comp_left, heavy, heavy_left = {}, {}, {}
    for ri in {id(ri): ri for ri in rels}.values():  # a self-join's once
        # per left split, the tuples at each witness whose left value has
        # degree past it and such left values per component: one bincount
        # each over (left splits below the degree, witness or component)
        i, has = id(ri), ri.left_deg > 0
        below = np.searchsorted(delta2s, ri.left_deg)
        comp_left[i] = left_components(ri, comp)
        heavy[i] = np.bincount(np.repeat(below * dom_y, ri.left_deg)
                               + ri.fwd_indices, minlength=(g + 1) * dom_y)
        heavy_left[i] = np.bincount(below[has] * n_comp + comp_left[i][has],
                                    minlength=(g + 1) * n_comp)
    # past split g are the values with more than g splits below, (G2, k, Y)
    # and (G2, k, C); a value without tuples has none, and no component
    heavy, heavy_left = (np.stack([x[id(ri)].reshape(g + 1, -1)[:0:-1].cumsum(
        axis=0)[::-1] for ri in rels], axis=1) for x in (heavy, heavy_left))
    # at a witness light in every witness split every tuple is light
    heavy = heavy * heavy_y.any(axis=0)
    if upper:
        full = _pairs(deg[0])
        at_heavy = full - _pairs(heavy[:, 0])
    else:
        full = deg.prod(axis=0, dtype=np.float64)
        at_heavy = piece_sizes(deg, heavy).sum(axis=1)
    return Splits(np.asarray(delta1s), np.asarray(delta2s), deg, comp,
                  [comp_left[id(ri)] for ri in rels], heavy,
                  join_sizes(full, at_heavy, heavy_y, heavy_left, comp))


@dataclass
class PlanGrid:
    """Every candidate (delta1s[i], delta2s[j]) with its exact sizes and
    modeled nanos. On the default grid the first delta1 and delta2 are 0:
    that corner is all heavy, the pure product. The last delta1 is past
    every witness key and the last delta2 past every left degree: that
    corner is all light, the full join. `dense`: where the emit priced is
    the dense one (counts_densely)."""
    delta1s: np.ndarray
    delta2s: np.ndarray
    sizes: JoinSizes
    light_cost: np.ndarray
    heavy_cost: np.ndarray
    dense: np.ndarray

    @property
    def cost(self) -> np.ndarray:
        return self.light_cost + self.heavy_cost

    def plan(self) -> ThresholdPlan:
        """The cheapest candidate, the all-light corner (labelled the full
        join) on a tie, and a threshold of 1 over 0."""
        cost = self.cost
        g1, g2 = cost.shape
        # thresholds of 0 (first, if there) go last: where no degree is 1,
        # 0 and 1 run the same join
        r, c = int(self.delta1s[0] == 0), int(self.delta2s[0] == 0)
        at = np.unravel_index(np.argmin(np.roll(cost, (-r, -c), (0, 1))),
                              cost.shape)
        i, j = (at[0] + r) % g1, (at[1] + c) % g2
        strategy = PARTITIONED
        if not self.sizes.inner[-1].any() and cost[-1, -1] <= cost[i, j]:
            strategy, i, j = FULL_JOIN, g1 - 1, g2 - 1
        return ThresholdPlan(strategy, int(self.delta1s[i]),
                             int(self.delta2s[j]),
                             float(self.light_cost[i, j]),
                             float(self.heavy_cost[i, j]),
                             self.light_cost.size)


# a grid's products are priced this many (candidate, component) pairs at a
# time, so a graph of many components prices them in bounded memory
_PRICE_CHUNK = 1 << 16


def _block_nanos(sizes: JoinSizes, triangle: bool, workers: int,
                 ns_per_madd: float, per_entry) -> np.ndarray:
    """The nanos of each candidate's products as matmul.multiply_counts
    runs them (block_plan): _NS_PER_BLOCK per block, `ns_per_madd` per
    multiply-add and `per_entry` (per candidate) per product entry emitted,
    each product's over the threads it runs on, each thread past the first
    adding _THREAD_GAIN of one's speed. `triangle`: every V is its
    W, and its blocks multiply only about half of V @ V^T."""
    nanos = np.zeros(sizes.light.shape)
    per_entry = np.broadcast_to(per_entry, nanos.shape)[..., None]
    rows, cols = sizes.rows[None], sizes.cols[None]
    step = max(1, _PRICE_CHUNK // max(rows.size, 1))
    for at in range(0, len(nanos), step):
        part = slice(at, at + step)
        inner = sizes.inner[part, None]
        threads, blocks, held = _matmul.block_plan(rows, inner, cols, workers,
                                                   triangle)
        nanos[part] = ((rows * inner * cols > 0)
                       * (_NS_PER_BLOCK * blocks + ns_per_madd * inner * held
                          + per_entry[part] * rows * cols)
                       / (1 + _THREAD_GAIN * (threads - 1))).sum(axis=-1)
    return nanos


def price_plan(rels: Sequence[IndexedRelation], light_in: int,
               table: Optional[CalibrationTable] = None,
               delta1s: Optional[np.ndarray] = None,
               delta2s: Optional[np.ndarray] = None,
               floor: int = 1, upper: bool = False) -> PlanGrid:
    """Price every candidate of size_splits(rels, light_in, delta1s,
    delta2s, upper), the sizes joinproject._partitioned allocates, keeping
    the codes counted at least `floor` times, in one orientation with
    `upper`.

    The light cost is per range of light_ranges, per light code and their
    count by the emit counts_densely picks (slots and counted codes, or the
    codes sorted).
    The heavy cost is the heavy build (tuples scanned, V's and W's
    entries), the blocks (_block_nanos; multiply-adds at `table`'s
    ns_per_madd when given, else at _NS_PER_MADD) and the codes kept: every
    product entry merged into light codes, or with none, each code kept.
    Where the blocks keep the floor, each kept code stands for at least
    `floor` of the full join's, and a two-path self-join prices
    gram_kept_estimate's codes when lower.
    """
    split = size_splits(rels, light_in, delta1s, delta2s, upper)
    sizes = split.sizes
    light, product = sizes.light, sizes.product_entries
    dims = [ri.rel.dom_left for ri in rels]
    space = math.prod(dims)
    dense = counts_densely(space, light, product, floor)
    ranges = light_ranges(dims, light, dense)
    light_cost = (_NS_PER_RANGE * ranges + _NS_PER_CODE * light
                  + np.where(dense, _NS_PER_SLOT * space + _NS_PER_COUNTED
                             * light, _NS_PER_SORTED * light))
    triangle = self_join(rels)
    heavy_cost = (_NS_PER_TUPLE * sum(ri.n for ri in rels) * (sizes.blocks > 0)
                  + _NS_PER_ENTRY * sizes.factor_entries
                  + _block_nanos(sizes, triangle, _matmul.worker_count(),
                                 _NS_PER_MADD if table is None
                                 else table.ns_per_madd,
                                 np.where(dense, _NS_PER_WRITTEN,
                                          _NS_PER_SCANNED)))
    per_kept = np.where(dense, 0.0,
                        np.where(light > 0, _NS_PER_MERGED, _NS_PER_KEPT))
    floored = (light == 0) & (floor > 1)
    kept = np.where(floored, np.minimum(product, split.deg.prod(
        axis=0, dtype=np.float64).sum() / floor), product)
    # at floor 1 the bounds are near the count: a sparse family's pairs
    # share about one witness each, a dense one keeps nearly all rows^2;
    # and the estimate only lowers the floored candidates' price, so it is
    # worth its time only where one of them keeping nothing is cheapest
    cost = light_cost + heavy_cost
    if (len(rels) == 2 and triangle and floored.any() and cost[floored].min()
            < (cost + per_kept * kept)[~floored].min(initial=math.inf)):
        estimate = gram_kept_estimate(rels[0], split.comp, floor)
        if estimate is not None:
            kept = np.where(floored, np.minimum(kept, estimate), kept)
    return PlanGrid(split.delta1s, split.delta2s, sizes, light_cost,
                    heavy_cost + per_kept * kept, dense)


def default_plan(r: IndexedRelation, s: IndexedRelation,
                 floor: int = 1, upper: bool = False) -> ThresholdPlan:
    """The cheapest two-path plan of price_plan keeping the codes counted at
    least `floor` times, in one orientation with `upper`, the multiply
    priced at _NS_PER_MADD per multiply-add."""
    return price_plan([r, s], 2, floor=floor, upper=upper).plan()


def optimize_thresholds(r: IndexedRelation, s: IndexedRelation,
                        table: CalibrationTable) -> ThresholdPlan:
    """The cheapest two-path plan of price_plan, the multiply priced at the
    calibration table's ns_per_madd."""
    if table is None or not table.entries:
        raise CalibrationError("optimizer needs a calibration table; run calibrate")
    return price_plan([r, s], 2, table).plan()
