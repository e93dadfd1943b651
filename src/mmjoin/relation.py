"""Binary relations: ingestion, dictionary encoding, indexes and degrees.

A Relation stores dictionary-encoded tuples as a dense (n, 2) int64 array.
IndexedRelation adds CSR adjacency in both directions and the degrees of
every value. Everything is immutable after construction.
"""

from __future__ import annotations

import functools
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import DataError
from .matmul.core import code_type


class ParseError(DataError, ValueError):
    """A bad input line: `{path}, line N: ...`, or `line N: ...` unnamed."""

    def __init__(self, line_no: int, msg: str, path: Optional[str] = None):
        where = f"line {line_no}: {msg}"
        super().__init__(where if path is None else f"{path}, {where}")
        self.line_no = line_no


def read_source(source: TextIO) -> tuple[str, Optional[str]]:
    """(text, path): all of `source`, and the path it was opened by, if any.
    Bytes the encoding cannot decode raise ParseError at their line."""
    path = getattr(source, "name", None)
    path = path if isinstance(path, str) else None
    try:
        return source.read(), path
    except UnicodeDecodeError as exc:
        # read() decodes all bytes at once; "\r\n", "\r" and "\n" end lines
        head = exc.object[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(line + 1, f"byte 0x{exc.object[exc.start]:02x} is "
                         f"not {exc.encoding} ({exc.reason})", path) from None


class Relation:
    """A deduplicated binary relation over dense value ids.

    Ids rank each column's values, and pairs are sorted by (left, right).
    `left_first[a]` ranks left value a by first appearance in the input;
    SSJ orients its pairs by it.
    """

    def __init__(self, name: str, pairs: np.ndarray,
                 left_values: list, left_ids: dict,
                 right_values: list, right_ids: dict,
                 left_first: np.ndarray):
        self.name = name
        self.pairs = pairs
        self.left_values = left_values
        self.left_ids = left_ids
        self.right_values = right_values
        self.right_ids = right_ids
        self.left_first = left_first

    @classmethod
    def from_raw_pairs(cls, name: str, raw_pairs: Iterable[tuple]) -> "Relation":
        """Encode raw (left, right) pairs as parse_edge_list encodes a file's
        tokens, the values ranked in _rank_values's order (the parser's
        when all are strings); duplicates are dropped."""
        raw = [tuple(p) for p in raw_pairs]
        return _relation(name, _rank_values([a for a, _ in raw]),
                         _rank_values([b for _, b in raw]))

    @classmethod
    def from_encoded(cls, name: str, pairs: np.ndarray, like: "Relation") -> "Relation":
        """A sub-relation reusing the dictionaries of `like`."""
        return cls(name, pairs, like.left_values, like.left_ids,
                   like.right_values, like.right_ids, like.left_first)

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

    def __repr__(self):
        return f"Relation({self.name!r}, n={self.n}, dom={self.dom_left}x{self.dom_right})"


def _key_groups(keys: np.ndarray, bits: int = 64
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, new, first): `order` sorts `keys`, `new` marks the sorted
    positions that start a run of equal keys, and `first[g]` is where the
    key of run g first appears in `keys`.

    Keys below 2^bits, where bits plus the bit length of the last position
    is at most 64, are ranked by one plain sort of key << pos_bits |
    position. It orders the keys and, within a run, their positions, so
    `order` is a stable argsort and each run's first entry is where its key
    first appears: on 108k keys it took 0.76 ms against argsort's 1.73 (a
    2-vCPU VM).
    Other keys, such as negative int64 fingerprints, take an argsort, which
    may order a run's positions any way.
    """
    pos_bits = (len(keys) - 1).bit_length()
    packed = bits + pos_bits <= 64
    if packed:
        ranked = keys.astype(np.uint64)
        ranked <<= np.uint64(pos_bits)
        ranked |= np.arange(len(keys), dtype=np.uint64)
        ranked.sort()
        # the positions are below 2^pos_bits <= 2^63, so int64 holds them
        order = np.bitwise_and(ranked, np.uint64((1 << pos_bits) - 1)
                               ).view(np.int64)
        ranked >>= np.uint64(pos_bits)
    else:
        order = np.argsort(keys)
        ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    del ranked
    return order, new, (order[new] if packed else
                        np.minimum.reduceat(order, np.flatnonzero(new)))


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


def _rank_values(column: list):
    """(ids, values, value -> id, first) of a column of Python values: the
    ids rank the distinct values, numbers numerically and then strings in
    code-point order (values equal under ==, as 1 and 1.0, are one, the
    first seen), and `first[i]` ranks value i by first appearance."""
    seen = list(dict.fromkeys(column))
    first = sorted(range(len(seen)),
                   key=lambda i: (isinstance(seen[i], str), seen[i]))
    values = [seen[i] for i in first]
    ids = {v: i for i, v in enumerate(values)}
    codes = np.fromiter(map(ids.__getitem__, column), dtype=np.int64,
                        count=len(column))
    return codes, values, ids, np.array(first, dtype=np.int64)


def _rank_ints(column: np.ndarray):
    """(ids, values, value -> id, first) of an int array: the ids rank the
    distinct values, which are Python ints, and `first[i]` is the position
    where value i first appears."""
    distinct = _dedup(column)
    codes = np.searchsorted(distinct, column)
    first = np.full(len(distinct), len(column))
    np.minimum.at(first, codes, np.arange(len(column)))
    values = distinct.tolist()
    return codes, values, {v: i for i, v in enumerate(values)}, first


def _pair_codes(keys: np.ndarray, vals: np.ndarray, dom: int,
                dom_vals: int) -> np.ndarray:
    """keys * dom_vals + vals, keys < dom and vals < dom_vals, in the
    code_type of that space: uint32 where it fits in 32 bits."""
    codes = keys.astype(code_type(dom * dom_vals))
    codes *= dom_vals
    codes += vals.astype(codes.dtype, copy=False)
    return codes


def _relation(name: str, left: tuple, right: tuple) -> Relation:
    """A Relation from two equal-length `(ids, values, value -> id, first)`
    columns, the left one's `first` ordering its ids by first appearance:
    one sort of the _pair_codes dedups the pairs and orders them, and one
    divmod writes them back as the int64 pairs."""
    lcodes, left_values, left_ids, first = left
    rcodes, right_values, right_ids, _ = right
    dom_right = len(right_values)
    codes = _dedup(_pair_codes(lcodes, rcodes, len(left_values), dom_right))
    pairs = np.empty((len(codes), 2), dtype=np.int64)
    np.divmod(codes, max(dom_right, 1), out=(pairs[:, 0], pairs[:, 1]))
    del codes
    left_first = np.empty_like(first)
    left_first[np.argsort(first)] = np.arange(len(first))
    return Relation(name, pairs, left_values, left_ids, right_values,
                    right_ids, left_first)


# str.isspace() of every code point up to U+3000, the largest whitespace
# one, then a False entry that every larger code point is clipped to
_SPACE = np.array([chr(cp).isspace() for cp in range(0x3001)] + [False])


def _is_space(codes: np.ndarray) -> np.ndarray:
    """str.isspace() of each code point, given as uint8 (ASCII) or uint32."""
    if codes.dtype == np.uint8:
        # ASCII whitespace is \t..\r (9-13) and \x1c..' ' (28-32); uint8
        # subtraction wraps, so each range is one comparison
        return ((codes - 9) < 5) | ((codes - 28) < 5)
    # clipped code points fit in uint16, half the size of the input
    clipped = np.minimum(codes, len(_SPACE) - 1,
                         out=np.empty(len(codes), dtype=np.uint16),
                         casting="unsafe")
    return _SPACE[clipped]


def _code_points(text: str) -> np.ndarray:
    """The code points of `text` in the narrowest type: uint8 when it is
    ASCII, else uint32 (lone surrogates kept as they are)."""
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype=np.uint32)


def _edge_tokens(codes: np.ndarray, path: Optional[str]
                 ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(starts, ends, keep): the code point spans of the `str.split()`
    tokens, in order, and the mask of those on two-token lines (None when
    no line is a `#` comment); blank lines have no tokens, and any other
    line without two tokens raises ParseError, naming `path`. This is the
    general path, for every text that _plain_columns does not take.

    Tokens start and end where the word mask changes. The code points that
    start a token or are a "\\n", kept in text order, give each line's
    token count and first token, hence the comment flags and the first bad
    line, without a loop over lines.
    """
    word = ~_is_space(codes)
    # the changes alternate: a token's start, then its end
    edges = np.flatnonzero(np.diff(word, prepend=False, append=False))
    del word
    starts, ends = edges.reshape(-1, 2).T.copy()
    del edges
    marked = codes == 10
    marked[starts] = True
    # and a line break that closes the last line
    marks = np.append(codes[np.flatnonzero(marked)],
                      np.array(10, dtype=codes.dtype))
    del marked
    # line i's marks follow its line break's predecessor; a blank line's
    # lead mark is its own line break
    breaks = np.flatnonzero(marks == 10)
    per_line = np.diff(breaks, prepend=-1) - 1
    comment = marks[breaks - per_line] == ord("#")
    bad = ~comment & (per_line != 2) & (per_line != 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(i + 1, f"expected 2 tokens, got {int(per_line[i])}",
                         path)
    keep = np.repeat(~comment, per_line) if comment.any() else None
    return starts, ends, keep


def _token_keys(text: str, codes: np.ndarray, starts: np.ndarray,
                ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(keys, long, bits): one uint64 per token of `text`, two keys being
    equal iff their tokens are, the mask of the tokens too long to pack,
    and the bits of one slot.

    A token of at most width = 64 // bits code points, bits being the bit
    length of the largest code point plus one, packs into one key
    big-endian: code point j plus one in slot j, counted from the top
    (bits * (width - 1 - j) upwards), and 0 in the empty slots. So "a"
    sorts before "a\\x00", and key order is code-point order. Longer tokens
    are numbered through a dict and keyed by that number below an empty
    top slot, which no packed key has; their keys sort below every packed
    key, in no text order. _general_columns shifts the keys of a column
    without long tokens down to its longest token.
    """
    bits = (int(codes.max(initial=0)) + 1).bit_length()
    width = 64 // bits
    lengths = ends - starts
    short = lengths <= width
    # every token has a slot 0
    keys = codes.take(starts).astype(np.uint64)
    keys += 1
    keys <<= np.uint64(bits * (width - 1))
    slot = np.empty_like(keys)
    # one O(tokens) pass per further slot; long tokens' keys are overwritten
    for j in range(1, int(lengths.max(initial=0, where=short))):
        chars = codes.take(starts + j, mode="clip")
        chars += 1  # no overflow: uint8 code points are ASCII
        chars *= lengths > j
        keys |= np.left_shift(chars, np.uint64(bits * (width - 1 - j)),
                              out=slot)
    del slot
    long = ~short
    if long.any():
        # one str.split() call makes every token's str faster than a
        # Python loop slices out just the long ones
        tokens = list(compress(text.split(), long.tolist()))
        numbers = {v: i for i, v in enumerate(dict.fromkeys(tokens))}
        keys[long] = np.fromiter(map(numbers.__getitem__, tokens),
                                 dtype=np.uint64, count=len(tokens))
    return keys, long, bits


def _general_columns(text: str, codes: np.ndarray,
                     path: Optional[str]) -> list:
    """The left and right token columns of any edge-list text, each
    (keys, bits, starts, ends) as _encode_tokens takes it: the spans of
    _edge_tokens, less comment lines, and the keys of _token_keys. A
    column's keys are shifted down to its longest token, `bits` then being
    that token's slots; in a column with a long token they keep all 64
    bits, out of text order, and `bits` is None."""
    starts, ends, keep = _edge_tokens(codes, path)
    keys, long, slot_bits = _token_keys(text, codes, starts, ends)
    if keep is not None:
        starts, ends = starts[keep], ends[keep]
        keys, long = keys[keep], long[keep]
    columns = []
    for side in (0, 1):
        side_starts, side_ends = starts[side::2], ends[side::2]
        side_keys, bits = keys[side::2], None
        if not long[side::2].any():
            bits = slot_bits * int((side_ends - side_starts).max(initial=1))
            side_keys = side_keys >> np.uint64(64 // slot_bits * slot_bits
                                               - bits)
        columns.append((side_keys, bits, side_starts, side_ends))
    return columns


# _TOP_BYTES[n] keeps the top n bytes of a uint64
_TOP_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - n)) for n in range(9)],
                      dtype=np.uint64)


def _plain_columns(codes: np.ndarray) -> Optional[list]:
    """The two token columns of a text in the plain layout, as
    _general_columns gives them, or None for any other text.

    The plain layout: ASCII without a NUL byte; every line `token SEP token
    LF`, SEP being one whitespace byte other than LF; no line starting with
    `#`; a final LF; no token longer than 8 bytes. One scan for whitespace
    then gives every span, as separators and line breaks alternate. Each
    key is one unaligned big-endian 8-byte read at its token's start, the
    bytes past the token's end masked off and the key shifted down to the
    column's longest token, 8 bits a byte. A token's bytes are not zero, so
    key order is byte order, which in ASCII is code-point order.
    """
    if codes.dtype != np.uint8 or not len(codes) or codes[-1] != 10:
        return None
    space = np.flatnonzero(_is_space(codes))
    if len(space) % 2:
        return None
    seps, breaks = space[0::2], space[1::2]
    line_starts = np.empty_like(breaks)
    line_starts[0] = 0
    np.add(breaks[:-1], 1, out=line_starts[1:])
    # every break is a LF, no separator is, no line starts with "#" and no
    # byte is NUL
    if not ((codes[breaks] == 10).all()
            and np.count_nonzero(codes == 10) == len(breaks)
            and (codes[line_starts] != ord("#")).all() and codes.all()):
        return None
    padded = np.zeros(len(codes) + 8, dtype=np.uint8)
    padded[:-8] = codes
    # the 8 bytes from each position on, one unaligned big-endian read each
    window = np.ndarray(len(codes), dtype=">u8", buffer=padded, strides=(1,))
    columns = []
    for starts, ends in ((line_starts, seps), (seps + 1, breaks)):
        lengths = ends - starts
        size = int(lengths.max())
        if lengths.min() < 1 or size > 8:
            return None
        keys = window[starts]
        # to native byte order, in place
        keys = keys.byteswap(inplace=True).view(keys.dtype.newbyteorder())
        keys &= _TOP_BYTES[lengths]
        del lengths
        keys >>= np.uint64(64 - 8 * size)
        columns.append((keys, 8 * size, starts, ends))
    return columns


def _encode_tokens(text: str, keys: np.ndarray, bits: Optional[int],
                   starts: np.ndarray, ends: np.ndarray):
    """(ids, values, value -> id, first) of a token column, its ids being the
    code-point ranks of the distinct values; each value is one `text` slice.
    `first[i]` is the position where the value of id i first appears.

    One _key_groups call groups the keys. Keys below 2^bits are in the
    values' order; with `bits` None some token is long, and one sort of the
    distinct values orders them. A column with runs of equal keys, as an
    adjacency list's left column has, groups only the first key of each
    run; a column whose runs are mostly single keys, as the right column's
    are, groups its keys as they are.
    """
    run = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run[1:])
    heads = (np.flatnonzero(run) if 2 * np.count_nonzero(run) <= len(keys)
             else None)
    del run
    order, new, first = _key_groups(keys if heads is None else keys[heads],
                                    64 if bits is None else bits)
    ids = np.empty_like(order)
    ids[order] = np.cumsum(new) - 1
    if heads is not None:
        ids = np.repeat(ids, np.diff(heads, append=len(keys)))
        # runs are in file order, so a value's first run starts where it
        # first appears
        first = heads[first]
    values = [text[s:e] for s, e in zip(starts[first].tolist(),
                                        ends[first].tolist())]
    if bits is None:
        by_text = np.array(sorted(range(len(values)),
                                  key=values.__getitem__), dtype=np.int64)
        rank = np.empty_like(by_text)
        rank[by_text] = np.arange(len(by_text))
        ids, first = rank[ids], first[by_text]
        values = [values[i] for i in by_text.tolist()]
    return ids, values, {v: i for i, v in enumerate(values)}, first


def parse_edge_list(source: TextIO, name: str = "R") -> Relation:
    """Parse `left right` lines; `#` comments and blank lines are skipped.

    Each column's ids are the code-point ranks of its distinct values, and
    the pairs come deduplicated and sorted by (left, right); `left_first`
    ranks the left values by first appearance in the file.

    The whole source is read at once (read_source), and a bad line's
    ParseError names the file it was opened from. Lines are split on "\\n"
    only, as iterating a text file does (str.splitlines would also split on
    form feeds and other separators inside a line), and tokens on
    `str.split()` whitespace. The text is read as one array of code points,
    one byte each when it is ASCII, and each token becomes an integer key
    sized to its column's longest token. A text in the plain layout
    (_plain_columns: short ASCII tokens, one separator, no comments) takes
    its spans from one scan for whitespace and each key from one read;
    every other text takes the general path (_general_columns), whose
    results and errors are the same. The only strings made are one slice
    per distinct value of each column, unless some token is too long for a
    packed key: then `str.split()` makes one per token, as it would without
    the keys.
    """
    text, path = read_source(source)
    codes = _code_points(text)
    columns = _plain_columns(codes)
    if columns is None:
        columns = _general_columns(text, codes, path)
    del codes
    # popped, so each column's keys and spans go once it is encoded
    left = _encode_tokens(text, *columns.pop(0))
    right = _encode_tokens(text, *columns.pop())
    del text
    return _relation(name, left, right)


def semi_join_reduce_many(relations: list) -> list:
    """Drop tuples whose right value is missing from any sibling relation.

    The returned relations share one right dictionary (identical objects), the
    precondition for joining at the id level: the first relation's values
    that every other dictionary holds, in value order, so every relation's
    tuples stay sorted by (left, right). Each relation keeps its left
    ids, left dictionary and `left_first`; a left value whose every tuple is
    dropped stays, with degree 0. Idempotent. An input object given more
    than once is reduced once, and every repeat gets the same reduced
    object; inputs that already share one right dictionary, a single
    distinct input (a self-join) among them, are returned as they are.
    """
    distinct = list({id(rel): rel for rel in relations}.values())
    first = distinct[0]
    if all(rel.right_values is first.right_values for rel in distinct):
        return list(relations)
    shared = [all(v in rel.right_ids for rel in distinct[1:])
              for v in first.right_values]
    right_values = list(compress(first.right_values, shared))
    right_ids = {v: i for i, v in enumerate(right_values)}
    reduced = {}
    for rel in distinct:
        remap = np.fromiter((right_ids.get(v, -1) for v in rel.right_values),
                            dtype=np.int64, count=rel.dom_right)
        right = remap[rel.pairs[:, 1]]
        keep = right >= 0
        pairs = np.column_stack((rel.pairs[keep, 0], right[keep]))
        reduced[id(rel)] = Relation(rel.name, pairs, rel.left_values,
                                    rel.left_ids, right_values, right_ids,
                                    rel.left_first)
    return [reduced[id(rel)] for rel in relations]


def semi_join_reduce(r: Relation, s: Relation) -> tuple[Relation, Relation]:
    red = semi_join_reduce_many([r, s])
    return red[0], red[1]


def _csr(keys: np.ndarray, vals: np.ndarray, dom: int,
         dom_vals: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR over distinct (key, val) pairs, keys < dom and vals < dom_vals;
    each row's values ascend, int64 as `vals` are. Pairs already sorted by
    (key, val), as every relation's are, are not sorted again; the
    _pair_codes check and sort the order."""
    codes = _pair_codes(keys, vals, dom, dom_vals)
    if (codes[1:] < codes[:-1]).any():
        # the pairs are distinct, so the codes are too and one sort of them
        # gives the one (key, val) order
        codes.sort()
        vals = np.empty(len(codes), dtype=np.int64)
        np.remainder(codes, dom_vals, out=vals)
    del codes
    indptr = np.zeros(dom + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=dom), out=indptr[1:])
    return indptr, vals


# has_tuples probes a bitmap over the whole (left x right) space while that
# space is at most this many times the tuples, and otherwise binary-searches
# the forward index's codes. Measured break-even: set-containment joins of
# 1000 sets (sizes 1..40) cross at a space ~150 times the tuples, of 10000
# sets at ~500; below, a bitmap probe is 1.3-3x faster. Past
# _BITMAP_SPACE_CAP entries (256 MiB of bools) it searches in any case.
_BITMAP_SPACE_PER_TUPLE = 128
_BITMAP_SPACE_CAP = 1 << 28


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

    @property
    def n(self) -> int:
        return self.rel.n

    @functools.cached_property
    def components(self) -> np.ndarray:
        """witness_components of this relation alone."""
        return _components([self])

    @functools.cached_property
    def _tuple_table(self) -> np.ndarray:
        """What has_tuples probes: a bool bitmap over the codes left *
        dom_right + right while that space is at most _BITMAP_SPACE_CAP and
        _BITMAP_SPACE_PER_TUPLE times the tuples, else the tuples' codes,
        ascending (the forward index holds them in that order)."""
        dom_right = self.rel.dom_right
        codes = (np.repeat(np.arange(self.rel.dom_left), self.left_deg)
                 * dom_right + self.fwd_indices)
        space = self.rel.dom_left * dom_right
        if space > min(_BITMAP_SPACE_PER_TUPLE * self.n, _BITMAP_SPACE_CAP):
            return codes
        bitmap = np.zeros(space, dtype=bool)
        bitmap[codes] = True
        return bitmap

    def has_tuples(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Whether each (left[i], right[i]) is a tuple; 1-d arrays."""
        table = self._tuple_table
        codes = left * self.rel.dom_right + right
        if table.dtype == bool:
            return table[codes]
        if not len(table):
            return np.zeros(codes.shape, dtype=bool)
        # needles in order walk the table in order: 40k random probes into
        # 20k codes took 2.5 ms so, the sort included, against 6.4 ms
        order = np.argsort(codes)
        needles = codes[order]
        found = np.empty(codes.shape, dtype=bool)
        found[order] = table.take(np.searchsorted(table, needles),
                                  mode="clip") == needles
        return found

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


def build_indexes(relations: list) -> list:
    """The indexes of `relations`, one per distinct relation and shared by
    its repeats, so a relation given twice is one object on both sides of a
    join (semi_join_reduce_many keeps repeats one object too)."""
    built = {}
    for rel in relations:
        if id(rel) not in built:
            built[id(rel)] = build_indexed(rel)
    return [built[id(rel)] for rel in relations]


def witness_components(idxs: Sequence[IndexedRelation]) -> np.ndarray:
    """Component of each witness (right id) of relations sharing their right
    dictionary, numbered 0, 1, ... in the order of each component's smallest
    witness. Two witnesses are in one component when a chain of left values,
    of any of the relations, links them, so each left value of each relation
    joins witnesses of one component only. A relation passed twice counts
    once; a single relation keeps its components, and the last set of
    several is kept too: a plan and the join it plans ask for the same."""
    distinct = tuple({id(i): i for i in idxs}.values())
    if len(distinct) == 1:
        return distinct[0].components
    return _last_components(distinct)


def _components(idxs: Sequence[IndexedRelation]) -> np.ndarray:
    """Min-label propagation: each round every left value takes the smallest
    label of its witnesses and every witness the smallest of its left
    values, then each label is replaced by its own label until it is a root
    (pointer jumping). Labels only fall and never leave a component, so at
    the fixed point every witness carries its component's smallest one."""
    dom_y = idxs[0].rel.dom_right
    label = np.arange(dom_y, dtype=np.int64)
    links = [(ri.fwd_indices, ri.left_deg > 0,
              ri.fwd_indptr[:-1][ri.left_deg > 0],
              ri.rev_indices, ri.right_deg > 0,
              ri.rev_indptr[:-1][ri.right_deg > 0],
              np.zeros(ri.rel.dom_left, dtype=np.int64))
             for ri in idxs if ri.n]
    while True:
        new = label.copy()
        for fwd, x_has, x_starts, rev, y_has, y_starts, by_left in links:
            by_left[x_has] = np.minimum.reduceat(new[fwd], x_starts)
            new[y_has] = np.minimum(new[y_has], np.minimum.reduceat(
                by_left[rev], y_starts))
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    comp = np.cumsum(label == np.arange(dom_y))[label] - 1
    # kept and handed to every caller
    comp.flags.writeable = False
    return comp


_last_components = functools.lru_cache(maxsize=1)(_components)


def left_components(idx: IndexedRelation, comp: np.ndarray) -> np.ndarray:
    """Component (of `comp`, one per witness) of each left value of idx; 0
    for a value without witnesses."""
    if not idx.n:
        return np.zeros(idx.rel.dom_left, dtype=np.int64)
    first = idx.fwd_indices[np.minimum(idx.fwd_indptr[:-1], idx.n - 1)]
    return np.where(idx.left_deg > 0, comp[first], 0)


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
    return _relation("community", _rank_ints(edges[:, 0]),
                     _rank_ints(edges[:, 1]))
