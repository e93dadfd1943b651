"""Plans for the partitioned join of the two-path and star queries: the
light/heavy rule (witness_key, light_split), the exact sizes of the join at
every threshold pair of a grid, priced by measured per-operation costs, and
the output-size estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matmul import CalibrationError, CalibrationTable
from .relation import IndexedRelation, left_components, witness_components

FULL_JOIN = "fulljoin"
PARTITIONED = "partitioned"


@dataclass
class ThresholdPlan:
    """Thresholds, which a join runs as they are (light_split), and the
    planner's label for them (FULL_JOIN for its all-light corner); the
    costs are its modeled nanos and `iterations` the candidates priced."""
    strategy: str
    delta1: int
    delta2: int
    light_cost: float = 0.0
    heavy_cost: float = 0.0
    iterations: int = 0

    @property
    def total_cost(self) -> float:
        return self.light_cost + self.heavy_cost


def witness_key(rels: Sequence[IndexedRelation], light_in: int) -> np.ndarray:
    """Each witness's `light_in`-th smallest degree in `rels`: it is light
    iff that key is <= delta1, i.e. in at least `light_in` relations (both
    of a two-path join, k - 1 of a star of k)."""
    return np.sort([ri.right_deg for ri in rels], axis=0)[light_in - 1]


def light_split(rels: Sequence[IndexedRelation], light_in: int,
                delta1: int, delta2: int):
    """The one light/heavy rule, as masks (light_y, [light_left per
    relation]): a witness is light iff its witness_key is <= delta1, a left
    value iff its degree is <= delta2, and a tuple iff either is."""
    if delta1 < 1 or delta2 < 1:
        raise ValueError("thresholds must be >= 1")
    return (witness_key(rels, light_in) <= delta1,
            [ri.left_deg <= delta2 for ri in rels])


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
# counts_densely); measured break-even.
_DENSE_SPACE_PER_CODE = 1.5


def counts_densely(space, light, block):
    """Whether joinproject._dedup_output counts `light` codes and a heavy
    product block of `block` entries (0 for none) in a buffer over the
    whole `space` rather than sorting them. The sort path touches every code
    once and, when a block merges in, every code and block entry once more.
    Takes scalars or arrays that broadcast."""
    touched = light + (block > 0) * (light + block)
    return space <= _DENSE_SPACE_PER_CODE * touched


def piece_sizes(deg: np.ndarray, heavy: np.ndarray) -> np.ndarray:
    """Codes of the light pieces of a partitioned join, in float64 (a size
    past 2^53 is over any entry budget anyway).

    `deg[i, y]` is relation i's degree at witness y and `heavy[..., i, y]`
    its tuples at y whose left value is heavy (0 at a light witness). The
    piece (j, y) holds the combinations whose first light left value is at
    position j: sizes[..., j, y] = prod_{i<j} heavy_i(y) * light_j(y) *
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


def _positive(dims: np.ndarray) -> np.ndarray:
    return (dims > 0).astype(np.float64)


@dataclass
class JoinSizes:
    """What joinproject._partitioned allocates and loops over, per candidate
    split: G1 witness splits by G2 left-value splits.

    `light` (G1, G2) is the light codes and `pieces` (G1, G2) the iterations
    of the loop over (witness, first light position). The heavy part is one
    product V @ W^T per component of the witnesses
    (relation.witness_components) with heavy witnesses and heavy left values
    in every relation: `rows` (G2, C) and `cols` (G2, C) are the dims u and w
    of V (u x v) and W^T (v x w) per component and `inner` (G1, C) their v.
    The properties sum over the components whose product runs.
    """
    light: np.ndarray
    pieces: np.ndarray
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

    @property
    def heavy_entries(self) -> np.ndarray:
        return self.factor_entries + self.product_entries

    @property
    def madds(self) -> np.ndarray:
        """Multiply-adds of the products, u * v * w each."""
        return self.inner @ (self.rows * self.cols).T


def join_sizes(deg: np.ndarray, heavy_y: np.ndarray, pieces: np.ndarray,
               heavy_left: np.ndarray, comp: np.ndarray) -> JoinSizes:
    """Exact sizes of the partitioned join of k relations for G1 witness
    splits by G2 left-value splits.

    `deg` (k, Y) holds each relation's degree at each witness, `heavy_y`
    (G1, Y) each witness split's heavy witnesses, `pieces` (G2, k, Y) each
    left split's piece_sizes, `heavy_left` (G2, k, C) each left split's heavy
    left values per relation and component and `comp` (Y,) each witness's
    component. A light witness enumerates its full cross product; a heavy
    one its pieces. V's rows are the heavy left combinations of the first
    ceil(k/2) relations within a component and W's of the rest.
    """
    k, g1, g2 = len(deg), len(heavy_y), len(pieces)
    half = (k + 1) // 2
    full = np.asarray(deg, dtype=np.float64).prod(axis=0)
    # every total is a sum over the witnesses, so one matrix product gives
    # them for every pair of splits: each witness's full cross product,
    # changed at a heavy witness into its pieces
    at_heavy = np.asarray(heavy_y, dtype=np.float64)
    per = at_heavy @ np.concatenate([pieces.sum(axis=1) - full,
                                     np.count_nonzero(pieces, axis=1)
                                     - (full > 0)]).T
    n_comp = heavy_left.shape[-1]
    inner = np.bincount((np.arange(g1)[:, None] * n_comp + comp).ravel(),
                        weights=at_heavy.ravel(),
                        minlength=g1 * n_comp).reshape(g1, n_comp)
    heavy_left = np.asarray(heavy_left, dtype=np.float64)
    return JoinSizes(per[:, :g2] + full.sum(),
                     per[:, g2:] + np.count_nonzero(full),
                     heavy_left[:, :half].prod(axis=1), inner,
                     heavy_left[:, half:].prod(axis=1))


# Nanos per unit of work of a two-path join, measured on one core of a
# 2-vCPU x86-64 VM (numpy 2.4, OpenBLAS on one thread), each the median of
# 21 timings of one joinproject step in isolation over its count:
# - _NS_PER_PIECE: the light loop over 2,000 pieces of 2 codes;
# - _NS_PER_CODE: the loop writing 10^6 codes in pieces of 20 x 20 to
#   40 x 40 (2.0-2.9, less the per-piece part);
# - _NS_PER_SLOT, _NS_PER_COUNTED: np.bincount over a 10^6-slot space, per
#   slot with 100 codes and per code with the 840k codes of a 1000-set
#   family's full join;
# - _NS_PER_SORTED, _NS_PER_MERGED: the sort path of _dedup_output per code
#   (11-28 from 10^4 to 10^6 random codes) and per entry of a product
#   merged into the sorted codes (87-124 for squares of 100 to 1000 entries
#   a side);
# - _NS_PER_PLACED: the same path with no codes, per entry of the products
#   put in order (11 on the three of the benchmark community graph);
# - _NS_PER_BLOCK: _dedup_output adding a product into a buffer by np.ix_
#   (its keys are not one run), per product entry (12-15 for squares of 200
#   to 1000 entries a side);
# - _NS_PER_TUPLE, _NS_PER_ENTRY, _NS_PER_PRODUCT: heavy_matrices per tuple
#   of both relations (12.1 on the 108k-tuple benchmark community graph and
#   on an 8-community one, less the other two parts), np.zeros per uint8
#   entry of V or W, and the fixed part of one product, from its factors to
#   its dedup (42-45 us on graphs of 100 to 400 components of 4 nodes),
#   with or without a calibration table;
# - _NS_PER_MADD: CalibrationTable.ns_per_madd of calibrate()'s default
#   probes, in processes that first freed an 8 MiB array (so the multiply's
#   temporaries stay on the heap, as in a join after its parse): 0.024, the
#   median of 20 processes' medians of 31 calibrations, quartiles 0.019 and
#   0.028 (a fresh process reads 0.03-0.05); a calibration table's own
#   ns_per_madd replaces it.
# With them the modeled cost of 358 grid candidates on eight inputs (the
# benchmark community, star and sets files, 40% of the sets, a sparse and a
# Zipf graph, 800 nodes in 8 and in 200 communities) was 0.91 of the
# measured join time in the median, 0.65 to 1.35 from the 10th to the 90th
# percentile.
_NS_PER_PIECE = 5000.0
_NS_PER_CODE = 2.5
_NS_PER_SLOT = 0.35
_NS_PER_COUNTED = 4.2
_NS_PER_SORTED = 20.0
_NS_PER_MERGED = 95.0
_NS_PER_PLACED = 12.0
_NS_PER_BLOCK = 13.0
_NS_PER_TUPLE = 12.0
_NS_PER_PRODUCT = 40000.0
_NS_PER_ENTRY = 0.05
_NS_PER_MADD = 0.024


def _split_grid(top: int) -> np.ndarray:
    """Thresholds 1, 2, 4, ... up to the first power of two past `top`."""
    return 2 ** np.arange(int(top).bit_length() + 1, dtype=np.int64)


def _heavy_by_split(idx: IndexedRelation, delta2s: np.ndarray,
                    comp_left: np.ndarray, n_comp: int):
    """For each left split delta2s[g]: idx's tuples at each witness whose
    left value has degree past it, (G2, Y), and the number of such left
    values per component, (G2, C). One bincount each over (splits below the
    left degree, witness or component)."""
    g, dom_y = len(delta2s), idx.rel.dom_right
    below = np.searchsorted(delta2s, idx.left_deg)
    # the forward index's tuples, keyed by their left value's splits below
    # and their witness
    keys = np.repeat(below * dom_y, idx.left_deg) + idx.fwd_indices
    tuples = np.bincount(keys, minlength=(g + 1) * dom_y).reshape(g + 1, dom_y)
    # past split g are the left values with more than g splits below; a
    # value without tuples has none, and no component
    has = idx.left_deg > 0
    lefts = np.bincount(below[has] * n_comp + comp_left[has],
                        minlength=(g + 1) * n_comp).reshape(g + 1, n_comp)
    return (tuples[:0:-1].cumsum(axis=0)[::-1],
            lefts[:0:-1].cumsum(axis=0)[::-1])


@dataclass
class PlanGrid:
    """Every candidate (delta1s[i], delta2s[j]) with its exact sizes and
    modeled nanos. On the default grid the last delta1 is past every
    witness key and the last delta2 past every left degree: that corner is
    all light, the full join."""
    delta1s: np.ndarray
    delta2s: np.ndarray
    sizes: JoinSizes
    light_cost: np.ndarray
    heavy_cost: np.ndarray

    @property
    def cost(self) -> np.ndarray:
        return self.light_cost + self.heavy_cost

    def plan(self, partitioned: bool = False) -> ThresholdPlan:
        """The cheapest candidate, the all-light corner (labelled the full
        join) on a tie; with `partitioned`, the cheapest one with heavy
        witnesses and heavy left values, if the grid has one."""
        cost = self.cost
        if partitioned and min(cost.shape) > 1:
            # past every witness or every left degree, everything is light
            cost = cost[:-1, :-1]
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        strategy = PARTITIONED
        if (not partitioned and not self.sizes.inner[-1].any()
                and cost[-1, -1] <= cost[i, j]):
            strategy, i, j = FULL_JOIN, len(cost) - 1, cost.shape[1] - 1
        return ThresholdPlan(strategy, int(self.delta1s[i]),
                             int(self.delta2s[j]),
                             float(self.light_cost[i, j]),
                             float(self.heavy_cost[i, j]),
                             self.light_cost.size)


def price_plan(rels: Sequence[IndexedRelation], light_in: int,
               table: Optional[CalibrationTable] = None,
               delta1s: Optional[np.ndarray] = None,
               delta2s: Optional[np.ndarray] = None) -> PlanGrid:
    """Price every candidate (delta1, delta2) of the ascending `delta1s` by
    `delta2s` on the exact sizes joinproject._partitioned would allocate for
    `rels` under light_split with `light_in`; by default, powers of two up
    to the first past every witness key and left degree (the full join).

    The cost is per piece, per light code, the dedup (by counts_densely:
    slots and counted codes plus the products added in, or the codes sorted
    and the products merged in), the heavy build (each relation's tuples
    scanned, V's and W's entries and a fixed part per product) and the
    multiply, per multiply-add: at `table`'s ns_per_madd when given, else
    at _NS_PER_MADD.
    """
    if not all(rels[0].shares_right_dict(o) for o in rels[1:]):
        raise ValueError("relations do not share a right dictionary; "
                         "run semi_join_reduce first")
    key = witness_key(rels, light_in)
    if delta1s is None:
        delta1s = _split_grid(key.max(initial=0))
    if delta2s is None:
        delta2s = _split_grid(max(ri.left_deg.max(initial=0) for ri in rels))
    deg = np.array([ri.right_deg for ri in rels])
    comp = witness_components(rels)
    n_comp = int(comp.max(initial=-1)) + 1
    # per distinct relation: a relation given again (a self-join) counts once
    distinct = {id(ri): ri for ri in rels}
    split = {i: _heavy_by_split(ri, delta2s, left_components(ri, comp),
                                n_comp) for i, ri in distinct.items()}
    heavy, heavy_left = (np.array([split[id(ri)][i] for ri in rels])
                         .swapaxes(0, 1) for i in (0, 1))
    sizes = join_sizes(deg, key > delta1s[:, None], piece_sizes(deg, heavy),
                       heavy_left, comp)

    light, blocks = sizes.light, sizes.blocks
    block = sizes.product_entries
    space = math.prod(ri.rel.dom_left for ri in rels)
    dense = (_NS_PER_SLOT * space + _NS_PER_COUNTED * light
             + _NS_PER_BLOCK * block)
    # a single block that is the whole space and has no codes beside it is
    # the buffer already
    dense[(light == 0) & (block == space) & (blocks == 1)] = 0.0
    # with no codes to merge into, the products' codes are only put in order
    merge = np.where(light > 0, _NS_PER_MERGED, _NS_PER_PLACED)
    dedup = np.where(counts_densely(space, light, block), dense,
                     _NS_PER_SORTED * light + merge * block)
    light_cost = _NS_PER_PIECE * sizes.pieces + _NS_PER_CODE * light + dedup
    ns_per_madd = _NS_PER_MADD if table is None else table.ns_per_madd
    heavy_cost = (_NS_PER_TUPLE * sum(ri.n for ri in rels) * (blocks > 0)
                  + _NS_PER_PRODUCT * blocks
                  + _NS_PER_ENTRY * sizes.factor_entries
                  + ns_per_madd * sizes.madds)
    return PlanGrid(np.asarray(delta1s), np.asarray(delta2s), sizes,
                    light_cost, heavy_cost)


def default_plan(r: IndexedRelation, s: IndexedRelation) -> ThresholdPlan:
    """The cheapest two-path plan of price_plan, the multiply priced at
    _NS_PER_MADD per multiply-add."""
    return price_plan([r, s], 2).plan()


def optimize_thresholds(r: IndexedRelation, s: IndexedRelation,
                        table: CalibrationTable) -> ThresholdPlan:
    """The cheapest two-path plan of price_plan, the multiply priced at the
    calibration table's ns_per_madd."""
    if table is None or not table.entries:
        raise CalibrationError("optimizer needs a calibration table; run calibrate")
    return price_plan([r, s], 2, table).plan()
