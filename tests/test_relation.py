import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    EXAMPLE_R,
    oracle_edge_pairs,
    oracle_encode,
    oracle_parse_edge_list,
    oracle_semi_join_reduce_many,
    random_pairs,
    reverse_row,
)
from mmjoin import relation
from mmjoin.matmul import core
from mmjoin.relation import (
    ParseError,
    Relation,
    _csr,
    _is_space,
    build_indexed,
    gather_ranges,
    generate_community_graph,
    left_components,
    parse_edge_list,
    semi_join_reduce,
    semi_join_reduce_many,
    witness_components,
)


def test_parse_edge_list_basic():
    src = io.StringIO("# header\n a b \n\nc d\na b\n")
    rel = parse_edge_list(src)
    assert rel.n == 2  # duplicate (a, b) dropped, comment/blank skipped
    assert set(rel.raw_pairs()) == {("a", "b"), ("c", "d")}


def test_parse_edge_list_errors():
    with pytest.raises(ParseError) as exc:
        parse_edge_list(io.StringIO("a b\nx\n"))
    assert exc.value.line_no == 2
    with pytest.raises(ParseError):
        parse_edge_list(io.StringIO("a b c\n"))


def test_parse_errors_name_the_file_they_were_read_from(tmp_path):
    """A file opened by path is named before the line; bytes that are not
    UTF-8 are a ParseError at their line, "\\r\\n", "\\r" and "\\n" each
    ending one."""
    path = tmp_path / "g.txt"
    for data, line, what in [(b"a b\nx\n", 2, "expected 2 tokens, got 1"),
                             (b"a b\r\nc d\re \xff\n", 3, "byte 0xff is not"),
                             (b"\xfe b\n", 1, "byte 0xfe is not")]:
        path.write_bytes(data)
        with open(path, encoding="utf-8") as f, \
                pytest.raises(ParseError) as exc:
            parse_edge_list(f)
        assert exc.value.line_no == line
        assert str(exc.value).startswith(f"{path}, line {line}: {what}")
    with pytest.raises(ParseError, match="^line 2: "):
        parse_edge_list(io.StringIO("a b\nx\n"))


def _typed(values):
    return [(type(v), v) for v in values]


def assert_same_relation(got, want):
    """Pairs and both dictionaries equal, in order and by value type."""
    assert got.name == want.name
    assert got.pairs.dtype == want.pairs.dtype
    assert got.pairs.shape == want.pairs.shape
    assert np.array_equal(got.pairs, want.pairs)
    assert _typed(got.left_values) == _typed(want.left_values)
    assert list(got.left_ids.items()) == list(want.left_ids.items())
    assert got.left_first.tolist() == want.left_first.tolist()
    assert _typed(got.right_values) == _typed(want.right_values)
    assert list(got.right_ids.items()) == list(want.right_ids.items())


# "a\x00" and "a" must stay distinct, and "a" < "a\x00" < "a\x01" < "a!"
# hold in code-point order, as "10" < "9" does; \x0c, \x1c, \x85 and \u2028
# are whitespace inside a line but line breaks to str.splitlines; \xa0,
# \u1680, \u205f and \u3000 are multi-byte whitespace, "é" a multi-byte
# token. The node_ pair is longer than one packed key and differs only at
# its end, as does the 200-character token; four 17-bit code points
# overflow a key too
_LONG = "x" * 199 + "y"
_TOKENS = st.sampled_from(["a", "a\x00", "a\x01", "a!", "b", "1", "10", "9",
                           "#a", "c#", "é", "#é",
                           "node_000000001", "node_000000002", _LONG,
                           "\U0001F600" * 4])
_SEPS = st.sampled_from([" ", "\t", "  ", "\x0c", "\x1c", "\x85", "\u2028",
                         "\xa0", "\u1680", "\u205f", "\u3000"])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _edge_line(draw):
    n = draw(st.sampled_from([2, 2, 2, 2, 0, 1, 3]))  # mostly valid lines
    toks = draw(st.lists(_TOKENS, min_size=n, max_size=n))
    seps = [draw(_SEPS) for _ in range(len(toks) + 1)]
    lead = seps[0] if draw(st.booleans()) else ""
    tail = seps[-1] if draw(st.booleans()) else ""
    body = lead + "".join(t + s for t, s in zip(toks, seps[1:]))
    return draw(st.sampled_from(["", "", "", "", "#", "# "])) + body.rstrip() + tail


@st.composite
def _edge_text(draw):
    lines = draw(st.lists(_edge_line(), max_size=12))
    text = "".join(line + draw(_ENDS) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text


def _sources(text):
    """The text as an in-memory string and as a file with universal newlines."""
    yield lambda: io.StringIO(text)
    yield lambda: io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                   encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(_edge_text())
@example("")
@example("#a b c\n\n a\tb \r\nx y z\n")
@example("a\x00 b\na b\nb\x0ca\n")
@example("a b\x85c\n")
@example("a x\nb y\na y\nb y\n")  # pairs sorted, not in first-seen order
@example("b a\x01\na! 9\na\x00 10\na a!\nb a\n")  # first seen is not first
# a long token among packed ones: its column is ordered by its strings
@example(f"9 {_LONG}\n{_LONG} a\n10 é\na\x01 x\n")
@example("é\u3000b\n\xa0#é c d\nb\u205fé\u1680\n")
@example("a b\n\u3000x\n")  # bad line after a multi-byte separator
@example("a b\nb c\n#x y\nc a\n")  # all ASCII: one byte per code point
@example("a b\nb c\n#x y\nc é\n")  # the same with one wide code point
@example(f"{_LONG} {_LONG}\na {_LONG}\n")  # a long token in both columns
# only long tokens
@example("node_000000001 node_000000002\nnode_000000002 node_000000001\n")
# 7-bit code points: nine fill a key exactly, ten do not fit
@example("node_0001 node_00001\nnode_0002 node_00003\n")
# a token led by NUL next to a long token, whose key's slot 0 is empty
@example(f"\x00 {_LONG}\n{_LONG} \x00\n")
# the plain layout (`tok SEP tok LF`, short ASCII tokens) and one step off it
@example("a b\nb c\nc a\n")
@example("a b\nb c\nc a")  # no final LF
@example("a b\nb\tc\nc a\n")  # a tab separator
@example("a b\nb  c\nc a\n")  # two spaces
@example("a b\n b c\nc a\n")  # a leading space
@example("a b\nb c \nc a\n")  # a trailing space
@example("a b\n#b c\nc a\n")  # a two-token comment
@example("#b c\na b\n")  # the first line a comment
@example("a b\n\nc a\n")  # a blank line
@example("a b\nb\x00x c\nc a\n")  # a NUL byte inside a token
@example("a b\nb c\x00\nc a\n")  # a NUL byte ending a token
@example("abcdefgh b\nabcdefgg abcdefgh\nb a\n")  # 8-byte tokens
@example("abcdefghi b\nabcdefgh abcdefghi\nb a\n")  # and 9-byte ones
@example("a b\nb\nc a\n")  # a line with one token
@example("a b\nb c d\nc a\n")  # and with three
@example("a b\nb c\n\n")  # a blank last line
@example("a\rb\n")  # "\r" separates tokens in a string source
def test_parse_edge_list_matches_line_oracle(text):
    """The parse matches the line oracle, and the lines' string pairs
    encoded by Relation.from_raw_pairs match the parse."""
    for source in _sources(text):
        try:
            want = oracle_parse_edge_list(source(), name="E")
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_edge_list(source(), name="E")
            assert got.value.line_no == exc.line_no
        else:
            got = parse_edge_list(source(), name="E")
            assert_same_relation(got, want)
            assert_same_relation(
                Relation.from_raw_pairs("E", oracle_edge_pairs(source())),
                got)


def test_plain_layout_skips_the_general_path(monkeypatch):
    """A text of `token SEP token LF` lines with short ASCII tokens takes
    its spans from the whitespace scan, never from _edge_tokens."""
    def refuse(*args):
        raise AssertionError("the general path ran")

    seps = [" ", "\t"]
    text = "".join(f"n{a}{seps[a % 2]}{'xyz'[a % 3]}{b}\n"
                   for a in range(40) for b in range(a % 7))
    want = oracle_parse_edge_list(io.StringIO(text), name="E")
    monkeypatch.setattr(relation, "_edge_tokens", refuse)
    with pytest.raises(AssertionError, match="general path"):
        parse_edge_list(io.StringIO("a b\n# c\n"))
    assert_same_relation(parse_edge_list(io.StringIO(text), name="E"), want)


def test_parse_edge_list_lone_surrogate():
    """A lone surrogate (possible in a str, not in a UTF-8 file) is an
    ordinary token character."""
    text = "\ud800 b\na \udfff\n# \ud800\n\ud800 b\n"
    assert_same_relation(parse_edge_list(io.StringIO(text), name="E"),
                         oracle_parse_edge_list(io.StringIO(text), name="E"))
    with pytest.raises(ParseError) as exc:
        parse_edge_list(io.StringIO("a b\n\ud800\n"))
    assert exc.value.line_no == 2


def test_whitespace_table_matches_str_split():
    codes = np.arange(0x110000, dtype=np.uint32)
    want = np.array([len(("a" + chr(cp) + "b").split()) == 2
                     for cp in range(0x110000)])
    assert np.array_equal(_is_space(codes), want)
    # the comparisons that serve ASCII text, one byte per code point
    ascii_codes = np.arange(128, dtype=np.uint8)
    assert np.array_equal(_is_space(ascii_codes), want[:128])


def test_parse_edge_list_long_token_memory():
    """A 1,000,000-character token is keyed without a (tokens x width)
    array: the parse matches the oracle and its traced peak stays small."""
    text = "x" * 1_000_000 + " a\n" + "".join(
        f"{i} {i % 97}\n" for i in range(10_000))
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = parse_edge_list(source, name="E")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert_same_relation(got, oracle_parse_edge_list(io.StringIO(text),
                                                     name="E"))
    assert peak < 16 * 2 ** 20


def test_parse_and_index_peak_memory():
    """Parse and index of a benchmark-shaped community graph (108k edges,
    824 KB) peak at most at 15.37 traced bytes a text byte: what they took
    with every text on the general path and every code int64."""
    rel = generate_community_graph(600, 3, 0.9, seed=5)
    text = "".join(f"{a} {b}\n" for a, b in rel.raw_pairs())
    source = io.StringIO(text)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idx = build_indexed(parse_edge_list(source))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert idx.n == rel.n
    assert peak <= 15.37 * len(text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([63, 64, 65]), st.integers(1, 6), st.data())
def test_key_groups_matches_a_stable_argsort(total, pos_bits, data):
    """Keys below 2^bits, repeated, where bits plus the bit length of the
    last position is 63 or 64 (one packed sort) or 65 (an argsort): the
    order sorts the keys, as a stable argsort where packed, and the run
    starts and first appearances are a stable argsort's."""
    bits = total - pos_bits
    n = data.draw(st.integers(2 ** (pos_bits - 1) + 1, 2 ** pos_bits))
    pool = data.draw(st.lists(st.integers(0, 2 ** bits - 1), min_size=1,
                              max_size=n))
    drawn = data.draw(st.lists(st.sampled_from(pool), min_size=n - 1,
                               max_size=n - 1))
    # the largest key fills all its bits
    keys = np.array(data.draw(st.permutations(drawn + [2 ** bits - 1])),
                    dtype=np.uint64)
    order, new, first = relation._key_groups(keys, bits)
    stable = np.argsort(keys, kind="stable")
    runs = np.append(True, keys[stable][1:] != keys[stable][:-1])
    assert keys[order].tolist() == keys[stable].tolist()
    if total <= 64:
        assert order.tolist() == stable.tolist()
    assert new.tolist() == runs.tolist()
    assert first.tolist() == stable[runs].tolist()


_INDEX_FIELDS = ("fwd_indptr", "fwd_indices", "rev_indptr", "rev_indices",
                 "left_deg", "right_deg")


def _assert_same_index(got, want):
    for name in _INDEX_FIELDS:
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tolist() == getattr(want, name).tolist()


@pytest.mark.parametrize("dom_left, dom_right", [(7, 17), (10, 12),
                                                 (11, 11)])
def test_code_width_at_the_uint32_limit(monkeypatch, dom_left, dom_right):
    """With the uint32 limit patched to 120, pair and index codes over
    spaces of 119 and 120 are uint32 and over 121 int64; every space gives
    the relation, and the index of its pairs sorted and shuffled, that
    int64 codes give."""
    rng = np.random.default_rng(dom_left)
    n = 200
    left, right = rng.integers(0, dom_left, n), rng.integers(0, dom_right, n)
    # every value occurs, so the domains are exact
    left[:dom_left] = np.arange(dom_left)
    right[-dom_right:] = np.arange(dom_right)

    def build():
        rel = relation._relation("R", relation._rank_ints(left),
                                 relation._rank_ints(right))
        shuffled = Relation.from_encoded(
            "R", np.random.default_rng(0).permutation(rel.pairs), rel)
        return rel, build_indexed(rel), build_indexed(shuffled)

    monkeypatch.setattr(core, "_UINT32_SPACE", 0)
    want = build()
    kinds = []

    def spy(space):
        kinds.append(core.code_type(space))
        return kinds[-1]

    monkeypatch.setattr(core, "_UINT32_SPACE", 120)
    monkeypatch.setattr(relation, "code_type", spy)
    got = build()
    assert set(kinds) == {np.uint32 if dom_left * dom_right <= 120
                          else np.int64}
    assert_same_relation(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        _assert_same_index(g, w)


@pytest.mark.parametrize("dom_left", [65535, 65536, 65537])
def test_codes_at_a_space_of_two_to_the_32(dom_left):
    """Left values times 65536 right values, a space just below, at and
    just past 2^32: the largest pair code fits uint32 up to 2^32, and the
    relation and its reverse index hold the pairs as given."""
    dom_right = 2 ** 16
    left = np.append(np.arange(dom_left), dom_left - 1)
    right = np.append(np.arange(dom_left) % dom_right, dom_right - 1)
    rel = relation._relation("R", relation._rank_ints(left),
                             relation._rank_ints(right))
    want = sorted(set(zip(left.tolist(), right.tolist())))
    assert (rel.dom_left, rel.dom_right) == (dom_left, dom_right)
    assert rel.pairs.dtype == np.int64
    assert rel.pairs.tolist() == [list(p) for p in want]
    idx = build_indexed(rel)
    by_right = sorted(want, key=lambda p: (p[1], p[0]))
    assert idx.rev_indices.tolist() == [a for a, _ in by_right]
    assert idx.rev_indices.dtype == np.int64


_VALUES = st.sampled_from([0, 1, 2, 1.0, "1", "a", "a\x00", "b"])
_PAIR_LISTS = st.lists(st.tuples(_VALUES, _VALUES), max_size=15)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PAIR_LISTS, min_size=2, max_size=4),
       st.lists(st.booleans(), max_size=15))
@example([[(1, "a")], [(2, "b")]], [])  # nothing survives
@example([[], [(2, "b")]], [])
def test_semi_join_reduce_many_matches_raw_pair_oracle(pair_lists, drop):
    rels = [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(pair_lists)]
    for i, (rel, p) in enumerate(zip(rels, pair_lists)):
        assert_same_relation(rel, oracle_encode(f"R{i}", p))
    # a sub-relation whose dictionaries hold values absent from its tuples
    mask = np.array([not d for d in drop] + [True] * rels[0].n,
                    dtype=bool)[:rels[0].n]
    rels[0] = Relation.from_encoded("R0", rels[0].pairs[mask], rels[0])
    got, want = semi_join_reduce_many(rels), oracle_semi_join_reduce_many(rels)
    for _ in range(2):  # and again on the reduced, shared-dictionary output
        for g, w in zip(got, want):
            assert_same_relation(g, w)
        assert all(g.right_values is got[0].right_values for g in got)
        got = semi_join_reduce_many(got)
        want = oracle_semi_join_reduce_many(want)


def test_semi_join_reduce_many_keeps_repeated_objects():
    r = Relation.from_raw_pairs("R", [(1, 10), (2, 20), (1, 20)])
    s = Relation.from_raw_pairs("S", [(7, 10), (8, 30)])
    a, b = semi_join_reduce_many([r, r])
    assert a is b
    assert_same_relation(a, semi_join_reduce_many([r, Relation.from_raw_pairs(
        "R", [(1, 10), (2, 20), (1, 20)])])[0])
    x, y, z = semi_join_reduce_many([r, s, r])
    assert x is z and x is not y
    assert set(x.raw_pairs()) == {(1, 10)}


def test_relation_encoding_ranks_values():
    """Ids rank each column's values, numbers numerically and then strings
    in code-point order, a value equal under == to one seen before being
    that one; the pairs come distinct and sorted, and `left_first` ranks the
    left values by first appearance."""
    rel = Relation.from_raw_pairs("R", [("y", 2), ("x", 1), ("y", 2),
                                        ("x", 2)])
    assert rel.left_values == ["x", "y"]
    assert rel.right_values == [1, 2]
    assert rel.left_ids == {"x": 0, "y": 1}
    assert rel.pairs.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert rel.left_first.tolist() == [1, 0]
    rel = Relation.from_raw_pairs("M", [
        ("b", 2.5), (10, "1"), (1.0, 0), (1, 2.5), ("10", 1), ("B", "1"),
        (-3, 1.0)])
    assert _typed(rel.left_values) == _typed([-3, 1.0, 10, "10", "B", "b"])
    assert _typed(rel.right_values) == _typed([0, 1, 2.5, "1"])
    assert rel.pairs.tolist() == [[0, 1], [1, 0], [1, 2], [2, 3], [3, 1],
                                  [4, 3], [5, 2]]
    assert rel.left_first.tolist() == [5, 2, 1, 3, 4, 0]


def test_semi_join_reduce_filters_and_shares_dict():
    r = Relation.from_raw_pairs("R", [(1, 10), (2, 20), (3, 30)])
    s = Relation.from_raw_pairs("S", [(7, 10), (8, 30), (9, 99)])
    rr, ss = semi_join_reduce(r, s)
    assert set(rr.raw_pairs()) == {(1, 10), (3, 30)}
    assert set(ss.raw_pairs()) == {(7, 10), (8, 30)}
    assert rr.right_values is ss.right_values
    # idempotent on tuple sets
    r2, s2 = semi_join_reduce(rr, ss)
    assert set(r2.raw_pairs()) == set(rr.raw_pairs())


def test_semi_join_reduce_many_three_way():
    rels = [Relation.from_raw_pairs(f"R{i}", p) for i, p in enumerate(
        [[(1, 5), (2, 6)], [(3, 5), (3, 7)], [(4, 5), (4, 6)]])]
    red = semi_join_reduce_many(rels)
    assert all(set(dict(r.raw_pairs()).values()) <= {5} for r in red)
    assert red[0].right_values is red[1].right_values is red[2].right_values


def test_indexed_adjacency_matches_brute_force():
    rng = np.random.default_rng(0)
    pairs = random_pairs(rng, 300, 40, 30)
    idx = build_indexed(Relation.from_raw_pairs("R", pairs))
    rel = idx.rel
    fwd = {}
    rev = {}
    for a, b in rel.pairs.tolist():
        fwd.setdefault(a, set()).add(b)
        rev.setdefault(b, set()).add(a)
    for a in range(rel.dom_left):
        assert set(idx.fwd(a).tolist()) == fwd.get(a, set())
        assert idx.left_deg[a] == len(fwd.get(a, set()))
    for b in range(rel.dom_right):
        assert set(reverse_row(idx, b).tolist()) == rev.get(b, set())
        assert idx.right_deg[b] == len(rev.get(b, set()))


@pytest.mark.parametrize("sparse", [False, True])
def test_has_tuples_matches_python_in(sparse):
    """The membership probe answers what `in` answers over the pairs, by
    the bitmap over a small (left x right) space and by binary search over
    a space thousands of times the tuples: 2000 left values, each with its
    own two right values."""
    rng = np.random.default_rng(4)
    pairs = (random_pairs(rng, 300, 40, 30) if not sparse else
             [(a, 2 * a + k) for a in range(2000) for k in (0, 1)])
    idx = build_indexed(Relation.from_raw_pairs("R", pairs))
    assert (idx._tuple_table.dtype == bool) != sparse
    rel = idx.rel
    tuples = set(map(tuple, rel.pairs.tolist()))
    left = rng.integers(0, rel.dom_left, 3000)
    right = rng.integers(0, rel.dom_right, 3000)
    # every tuple, and random pairs (mostly not tuples)
    left = np.concatenate([rel.pairs[:, 0], left])
    right = np.concatenate([rel.pairs[:, 1], right])
    want = [(a, b) in tuples for a, b in zip(left.tolist(), right.tolist())]
    assert idx.has_tuples(left, right).tolist() == want


def test_has_tuples_searches_past_the_bitmap_cap(monkeypatch):
    """A (left x right) space small next to the tuples is a bitmap up to
    the cap, space included, and searched past it; both answer alike on
    every pair of the space."""
    rel = Relation.from_raw_pairs(
        "R", random_pairs(np.random.default_rng(5), 300, 40, 30))
    space = rel.dom_left * rel.dom_right
    left, right = (g.ravel() for g in np.indices((rel.dom_left,
                                                   rel.dom_right)))
    dtypes, answers = [], []
    for cap in (space, space - 1):
        monkeypatch.setattr(relation, "_BITMAP_SPACE_CAP", cap)
        idx = build_indexed(rel)
        dtypes.append(idx._tuple_table.dtype)
        answers.append(idx.has_tuples(left, right))
    assert dtypes == [bool, np.int64]
    assert (answers[0] == answers[1]).all() and answers[0].sum() == rel.n


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9)),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 12)),
                max_size=60))
def test_has_tuples_of_unsorted_repeated_probes_matches_set_membership(
        pairs, probes):
    """Probes in any order, repeats included, answer what membership in the
    set of tuples answers, on the bitmap and on the sorted codes (the cap
    patched below the space, as above)."""
    rel = Relation.from_raw_pairs("R", pairs)
    tuples = set(map(tuple, rel.pairs.tolist()))
    # probes over the domains, each drawn pair folded in, both orders
    probes = [(a % rel.dom_left, b % rel.dom_right) for a, b in probes]
    probes += probes[::-1]
    left = np.array([a for a, _ in probes], dtype=np.int64)
    right = np.array([b for _, b in probes], dtype=np.int64)
    want = [probe in tuples for probe in probes]
    space = rel.dom_left * rel.dom_right
    for cap, table in ((space, bool), (space - 1, np.int64)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relation, "_BITMAP_SPACE_CAP", cap)
            idx = build_indexed(rel)
            assert idx._tuple_table.dtype == table
            assert idx.has_tuples(left, right).tolist() == want


@pytest.mark.parametrize("dom_left", [0, 3])
def test_has_tuples_of_a_relation_without_tuples(dom_left):
    rel = Relation("R", np.empty((0, 2), dtype=np.int64),
                   list(range(dom_left)), {}, list(range(4)), {},
                   np.arange(dom_left))
    idx = build_indexed(rel)
    ids = np.arange(dom_left, dtype=np.int64)
    assert not idx.has_tuples(ids, ids).any()


def test_csr_rows_ascend_for_unsorted_pairs():
    rng = np.random.default_rng(1)
    codes = rng.choice(40 * 30, 300, replace=False)  # distinct, unsorted
    keys, vals = codes // 30, codes % 30
    indptr, indices = _csr(keys, vals, 40, 30)
    assert np.array_equal(indices, vals[np.lexsort((vals, keys))])
    assert np.array_equal(np.diff(indptr), np.bincount(keys, minlength=40))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9)), max_size=60),
       st.randoms(use_true_random=False))
def test_indexed_relation_of_shuffled_pairs_equals_sorted(pairs, random):
    """The index of a relation whose pairs are already sorted, as a parsed
    relation's are, equals the index of the same pairs in any order."""
    text = "".join(f"{a} {b}\n" for a, b in pairs)
    rel = parse_edge_list(io.StringIO(text))
    shuffled = rel.pairs.tolist()
    random.shuffle(shuffled)
    other = Relation.from_encoded(
        "R", np.array(shuffled, dtype=np.int64).reshape(-1, 2), rel)
    got, want = build_indexed(other), build_indexed(rel)
    _assert_same_index(got, want)
    # rows ascend both ways
    for a in range(rel.dom_left):
        assert sorted(want.fwd(a).tolist()) == want.fwd(a).tolist()
    for b in range(rel.dom_right):
        row = reverse_row(want, b).tolist()
        assert sorted(row) == row


def test_example_reverse_index_and_count():
    rel = Relation.from_raw_pairs("R", EXAMPLE_R)
    idx = build_indexed(rel)
    y4 = rel.right_ids[4]
    partners = sorted(rel.left_values[a] for a in reverse_row(idx, y4))
    assert partners == [4, 5, 6]
    # x values with degree <= 2: x=1 (1), x=2 (2), x=3 (2)
    assert int((idx.left_deg <= 2).sum()) == 3


def test_out_join_with():
    rng = np.random.default_rng(1)
    r_pairs = random_pairs(rng, 200, 25, 20)
    s_pairs = random_pairs(rng, 200, 25, 20)
    r, s = semi_join_reduce(Relation.from_raw_pairs("R", r_pairs),
                            Relation.from_raw_pairs("S", s_pairs))
    ri, si = build_indexed(r), build_indexed(s)
    expected = 0
    for _, y in r.raw_pairs():
        expected += sum(1 for _, y2 in s.raw_pairs() if y2 == y)
    assert ri.out_join_with(si) == expected


def test_out_join_requires_shared_dict():
    r = build_indexed(Relation.from_raw_pairs("R", [(1, 2)]))
    s = build_indexed(Relation.from_raw_pairs("S", [(1, 2)]))
    with pytest.raises(ValueError):
        r.out_join_with(s)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=1, max_size=60),
       st.lists(st.integers(0, 15), min_size=1, max_size=10))
def test_gather_ranges_property(pairs, keys):
    idx = build_indexed(Relation.from_raw_pairs("R", pairs))
    keys = [k for k in keys if k < idx.rel.dom_left]
    if not keys:
        return
    vals, lens = gather_ranges(idx.fwd_indptr, idx.fwd_indices,
                               np.array(keys, dtype=np.int64))
    expected = np.concatenate([idx.fwd(k) for k in keys])
    assert np.array_equal(vals, expected)
    assert lens.tolist() == [len(idx.fwd(k)) for k in keys]


def test_generate_community_graph():
    rel = generate_community_graph(60, 3, 0.8, seed=11)
    again = generate_community_graph(60, 3, 0.8, seed=11)
    assert set(rel.raw_pairs()) == set(again.raw_pairs())
    for a, b in rel.raw_pairs():
        assert a // 20 == b // 20  # edges stay inside a community
    dense = generate_community_graph(30, 3, 1.0, seed=0)
    assert dense.n == 3 * 10 * 10
    with pytest.raises(ValueError):
        generate_community_graph(10, 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_community_graph(10, 2, 1.5, seed=0)


def _oracle_components(rels):
    """Witness -> smallest witness of its component, by union-find over
    each left value's witness lists."""
    parent = {y: y for rel in rels for _, y in rel.pairs.tolist()}

    def find(y):
        while parent[y] != y:
            y = parent[y]
        return y

    for rel in rels:
        by_left = {}
        for x, y in rel.pairs.tolist():
            by_left.setdefault(x, []).append(y)
        for ys in by_left.values():
            for y in ys[1:]:
                a, b = find(ys[0]), find(y)
                parent[max(a, b)] = min(a, b)
    return {y: find(y) for y in parent}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 15)),
                        min_size=1, max_size=25), min_size=1, max_size=3))
@example([{(0, 0), (0, 1), (1, 1), (2, 3), (3, 2), (3, 4), (4, 4)}])
def test_witness_components(rel_pairs):
    rels = semi_join_reduce_many([Relation.from_raw_pairs(f"R{i}", sorted(p))
                                  for i, p in enumerate(rel_pairs)])
    idxs = [build_indexed(r) for r in rels]
    comp = witness_components(idxs + idxs[:1])
    root = _oracle_components(rels)
    ys = sorted(root)
    # one id per component, numbered by their smallest witnesses
    assert comp[ys].tolist() == [sorted(set(root.values())).index(root[y])
                                 for y in ys]
    assert not comp.flags.writeable
    for idx in idxs:
        lc = left_components(idx, comp)
        assert (lc[idx.rel.pairs[:, 0]] == comp[idx.rel.pairs[:, 1]]).all()
    assert witness_components(idxs[:1]) is idxs[0].components
