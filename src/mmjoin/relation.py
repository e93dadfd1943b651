"""Binary relations: ingestion, dictionary encoding, indexes, degree stats.

A Relation stores dictionary-encoded tuples as a dense (n, 2) int64 array.
IndexedRelation adds CSR adjacency in both directions; DegreeStats adds the
sorted degree vectors and prefix sums that back all threshold queries.
Everything is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np


class ParseError(ValueError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class Relation:
    """A deduplicated binary relation over dense value ids."""

    def __init__(self, name: str, pairs: np.ndarray,
                 left_values: list, left_ids: dict,
                 right_values: list, right_ids: dict):
        self.name = name
        self.pairs = pairs
        self.left_values = left_values
        self.left_ids = left_ids
        self.right_values = right_values
        self.right_ids = right_ids

    @classmethod
    def from_raw_pairs(cls, name: str, raw_pairs: Iterable[tuple]) -> "Relation":
        """Encode raw (left, right) pairs. Duplicates are dropped."""
        raw = [tuple(p) for p in raw_pairs]
        return _from_columns(name, [a for a, _ in raw], [b for _, b in raw])

    @classmethod
    def from_encoded(cls, name: str, pairs: np.ndarray, like: "Relation") -> "Relation":
        """A sub-relation reusing the dictionaries of `like`."""
        return cls(name, pairs, like.left_values, like.left_ids,
                   like.right_values, like.right_ids)

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def dom_left(self) -> int:
        return len(self.left_values)

    @property
    def dom_right(self) -> int:
        return len(self.right_values)

    def raw_pairs(self) -> Iterator[tuple]:
        for a, b in self.pairs:
            yield (self.left_values[a], self.right_values[b])

    def raw_pair_set(self) -> set:
        return set(self.raw_pairs())

    def __repr__(self):
        return f"Relation({self.name!r}, n={self.n}, dom={self.dom_left}x{self.dom_right})"


def _encode_column(column: list) -> tuple[np.ndarray, list, dict]:
    """(ids, values, value -> id) with ids numbered by first appearance."""
    values = list(dict.fromkeys(column))
    ids = {v: i for i, v in enumerate(values)}
    codes = np.fromiter(map(ids.__getitem__, column), dtype=np.int64,
                        count=len(column))
    return codes, values, ids


def _first_seen_unique(codes: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct code, in order."""
    _, first = np.unique(codes, return_index=True)
    first.sort()
    return first


def _from_columns(name: str, left: list, right: list) -> Relation:
    """Encode two equal-length value columns; duplicate pairs are dropped,
    keeping first-seen order."""
    lcodes, left_values, left_ids = _encode_column(left)
    rcodes, right_values, right_ids = _encode_column(right)
    keep = _first_seen_unique(lcodes * len(right_values) + rcodes)
    pairs = np.column_stack((lcodes[keep], rcodes[keep]))
    return Relation(name, pairs, left_values, left_ids, right_values, right_ids)


# str.isspace() of every code point up to U+3000, the largest whitespace
# one, then a False entry that every larger code point is clipped to
_SPACE = np.array([chr(cp).isspace() for cp in range(0x3001)] + [False])


def _is_space(codes: np.ndarray) -> np.ndarray:
    """str.isspace() of each uint32 code point."""
    # clipped code points fit in uint16, half the size of the input
    clipped = np.minimum(codes, len(_SPACE) - 1,
                         out=np.empty(len(codes), dtype=np.uint16),
                         casting="unsafe")
    return _SPACE[clipped]


def _token_marks(text: str) -> np.ndarray:
    """The code points that start a `str.split()` token of `text`, and its
    "\\n" code points, in text order."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                          dtype=np.uint32)
    begins = ~_is_space(codes)
    begins[1:] &= ~begins[:-1]
    begins |= codes == 10
    return codes[begins]


def _edge_tokens(text: str) -> list:
    """The tokens of `text`'s two-token lines, in order; `#` comments and
    blank lines are skipped.

    `str.split()` yields every token in one call. One pass over the code
    points marks where tokens start and lines end, which gives the per-line
    token counts and comment flags without a loop over lines.
    """
    tokens = text.split()
    marks = _token_marks(text)
    breaks = marks == 10
    lead = marks[~breaks]
    # a token is the first on its line when a line break (or nothing) is
    # the mark before it
    heads = np.flatnonzero(np.concatenate(([True], breaks))[:-1][~breaks])
    per_line = np.diff(heads, append=len(lead))
    comment = lead[heads] == ord("#")
    bad = ~comment & (per_line != 2)
    if bad.any():
        i = int(np.argmax(bad))
        t = int(heads[i])
        # marks before token t that are line breaks
        line_no = int(np.flatnonzero(~breaks)[t]) - t + 1
        raise ParseError(line_no, f"expected 2 tokens, got {int(per_line[i])}")
    if comment.any():
        return list(compress(tokens, np.repeat(~comment, per_line).tolist()))
    return tokens


def parse_edge_list(source: TextIO, name: str = "R") -> Relation:
    """Parse `left right` lines; `#` comments and blank lines are skipped.

    The whole source is read at once. Lines are split on "\\n" only, as
    iterating a text file does (str.splitlines would also split on form
    feeds and other separators inside a line).
    """
    tokens = _edge_tokens(source.read())
    left, right = tokens[0::2], tokens[1::2]
    del tokens
    return _from_columns(name, left, right)


def parse_set_family_file(source: TextIO, name: str = "sets") -> Relation:
    """Set-family files share the edge-list format: `set_id item_id` lines."""
    return parse_edge_list(source, name=name)


def _shared_right_dict(relations: list) -> tuple[list, dict]:
    shared = set(relations[0].right_ids)
    for rel in relations[1:]:
        shared &= set(rel.right_ids)
    values = sorted(shared, key=repr)
    return values, {v: i for i, v in enumerate(values)}


def semi_join_reduce_many(relations: list) -> list:
    """Drop tuples whose right value is missing from any sibling relation.

    The returned relations share one right dictionary (identical objects), the
    precondition for joining at the id level: the values present in every
    input dictionary, sorted by repr. Left ids are renumbered by first
    appearance among the kept tuples. Idempotent on tuple sets. An input
    object given more than once is reduced once, and every repeat gets the
    same reduced object.
    """
    distinct = list({id(rel): rel for rel in relations}.values())
    right_values, right_ids = _shared_right_dict(distinct)
    reduced = {}
    for rel in distinct:
        remap = np.fromiter((right_ids.get(v, -1) for v in rel.right_values),
                            dtype=np.int64, count=rel.dom_right)
        right = remap[rel.pairs[:, 1]]
        keep = right >= 0
        left = rel.pairs[keep, 0]
        old_left = left[_first_seen_unique(left)]
        new_of_old = np.empty(rel.dom_left, dtype=np.int64)
        new_of_old[old_left] = np.arange(len(old_left))
        pairs = np.column_stack((new_of_old[left], right[keep]))
        left_values = [rel.left_values[a] for a in old_left.tolist()]
        left_ids = {v: i for i, v in enumerate(left_values)}
        reduced[id(rel)] = Relation(rel.name, pairs, left_values, left_ids,
                                    right_values, right_ids)
    return [reduced[id(rel)] for rel in relations]


def semi_join_reduce(r: Relation, s: Relation) -> tuple[Relation, Relation]:
    red = semi_join_reduce_many([r, s])
    return red[0], red[1]


def _csr(keys: np.ndarray, vals: np.ndarray, dom: int,
         dom_vals: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR over distinct (key, val) pairs, keys < dom and vals < dom_vals;
    each row's values ascend."""
    # the pairs are distinct, so the sort keys are too and any sort gives
    # the one (key, val) order
    order = np.argsort(keys * dom_vals + vals)
    indptr = np.zeros(dom + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=dom), out=indptr[1:])
    return indptr, vals[order]


class IndexedRelation:
    """CSR adjacency over a Relation in both directions, plus degrees."""

    def __init__(self, rel: Relation):
        self.rel = rel
        a, b = rel.pairs[:, 0], rel.pairs[:, 1]
        self.fwd_indptr, self.fwd_indices = _csr(a, b, rel.dom_left, rel.dom_right)
        self.rev_indptr, self.rev_indices = _csr(b, a, rel.dom_right, rel.dom_left)
        self.left_deg = np.diff(self.fwd_indptr)
        self.right_deg = np.diff(self.rev_indptr)

    def fwd(self, a: int) -> np.ndarray:
        return self.fwd_indices[self.fwd_indptr[a]:self.fwd_indptr[a + 1]]

    def rev(self, b: int) -> np.ndarray:
        return self.rev_indices[self.rev_indptr[b]:self.rev_indptr[b + 1]]

    @property
    def n(self) -> int:
        return self.rel.n

    def shares_right_dict(self, other: "IndexedRelation") -> bool:
        return self.rel.right_values is other.rel.right_values

    def out_join_with(self, other: "IndexedRelation") -> int:
        """|OUT_join| = sum over shared y of deg_R(y) * deg_S(y)."""
        if not self.shares_right_dict(other):
            raise ValueError("relations do not share a right dictionary; "
                             "run semi_join_reduce first")
        return int(np.dot(self.right_deg, other.right_deg))


def build_indexed(rel: Relation) -> IndexedRelation:
    return IndexedRelation(rel)


def gather_ranges(indptr: np.ndarray, indices: np.ndarray,
                  keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR ranges for `keys`; returns (values, lengths)."""
    keys = np.asarray(keys, dtype=np.int64)
    starts = indptr[keys]
    lens = indptr[keys + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), lens
    seg_off = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.repeat(starts - seg_off, lens) + np.arange(total, dtype=np.int64)
    return indices[idx], lens


@dataclass
class DegreeStats:
    """Sorted degree vectors with prefix sums; all queries binary-search.

    sum_x uses the partner relation's right degrees (|L[b]| is the partner's
    adjacency list length); lightness is always judged by this relation's own
    degrees.
    """
    n_tuples: int
    dom_left: int
    dom_right: int
    left_sorted: np.ndarray
    right_sorted: np.ndarray
    _cdfx_prefix: np.ndarray = field(repr=False, default=None)
    _sumy_prefix: np.ndarray = field(repr=False, default=None)
    _sumx_prefix: np.ndarray = field(repr=False, default=None)

    def _pos(self, sorted_vec: np.ndarray, delta) -> int:
        return int(np.searchsorted(sorted_vec, delta, side="right"))

    def count_left(self, delta) -> int:
        return self._pos(self.left_sorted, delta)

    def count_right(self, delta) -> int:
        return self._pos(self.right_sorted, delta)

    def cdfx(self, delta) -> int:
        p = self._pos(self.right_sorted, delta)
        return int(self._cdfx_prefix[p])

    def sum_y(self, delta) -> int:
        p = self._pos(self.right_sorted, delta)
        return int(self._sumy_prefix[p])

    def sum_x(self, delta) -> int:
        p = self._pos(self.left_sorted, delta)
        return int(self._sumx_prefix[p])

    @property
    def max_left_deg(self) -> int:
        return int(self.left_sorted[-1]) if len(self.left_sorted) else 0

    @property
    def max_right_deg(self) -> int:
        return int(self.right_sorted[-1]) if len(self.right_sorted) else 0


def degree_stats(idx: IndexedRelation,
                 partner: Optional[IndexedRelation] = None) -> DegreeStats:
    if partner is None:
        partner = idx
    if not idx.shares_right_dict(partner):
        raise ValueError("partner must share the right dictionary")
    pref0 = np.zeros(1, dtype=np.int64)

    order_l = np.argsort(idx.left_deg, kind="stable")
    left_sorted = idx.left_deg[order_l]
    # per-left dedup effort: sum of partner list lengths over the fwd range
    csum = np.concatenate((pref0, np.cumsum(partner.right_deg[idx.fwd_indices])))
    eff = csum[idx.fwd_indptr[1:]] - csum[idx.fwd_indptr[:-1]]
    sumx_prefix = np.concatenate((pref0, np.cumsum(eff[order_l])))

    order_r = np.argsort(idx.right_deg, kind="stable")
    right_sorted = idx.right_deg[order_r]
    cdfx_prefix = np.concatenate((pref0, np.cumsum(right_sorted)))
    part = partner.right_deg[order_r].astype(np.int64)
    sumy_prefix = np.concatenate((pref0, np.cumsum(part * part)))

    return DegreeStats(idx.n, idx.rel.dom_left, idx.rel.dom_right,
                       left_sorted, right_sorted,
                       cdfx_prefix, sumy_prefix, sumx_prefix)


def generate_community_graph(num_nodes: int, num_communities: int,
                             intra_edge_prob: float, seed: int) -> Relation:
    """Random graph with edges only inside evenly split communities."""
    if num_communities < 1:
        raise ValueError("num_communities must be >= 1")
    if not 0 < intra_edge_prob <= 1:
        raise ValueError("intra_edge_prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    bounds = np.linspace(0, num_nodes, num_communities + 1).astype(np.int64)
    pairs = []
    for c in range(num_communities):
        members = np.arange(bounds[c], bounds[c + 1], dtype=np.int64)
        m = len(members)
        if m == 0:
            continue
        if intra_edge_prob >= 1.0:
            mask = np.ones(m * m, dtype=bool)
        else:
            mask = rng.random(m * m) < intra_edge_prob
        grid = np.stack(np.meshgrid(members, members, indexing="ij"),
                        axis=-1).reshape(-1, 2)
        pairs.append(grid[mask])
    edges = np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
    return _from_columns("community", edges[:, 0].tolist(), edges[:, 1].tolist())
