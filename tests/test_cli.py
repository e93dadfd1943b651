import shutil
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import (
    canon_pair,
    fail_off_the_main_thread,
    oracle_ssj,
    oracle_ssj_ordered,
    oracle_two_path,
    random_family,
    random_pairs,
)
from mmjoin import apps, cli, joinproject, matmul
from mmjoin.cli import _result_lines, main
from mmjoin.relation import (
    generate_community_graph,
    parse_edge_list,
    semi_join_reduce_many,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write_pairs(path, pairs):
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs))


def _write_family(path, fam):
    path.write_text("".join(f"{sid} {e}\n"
                            for sid, elems in fam.items() for e in elems))


def test_gen_prints_seed_and_is_deterministic(tmp_path, runner):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        res = runner.invoke(main, ["gen", "--kind", "community", "--nodes",
                                   "30", "--seed", "5", "--out", str(out)])
        assert res.exit_code == 0
        assert "seed=5" in res.output
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("argv", [
    ["--kind", "sets", "--universe", "0"],
    ["--kind", "sets", "--sets", "0"],
    ["--kind", "community", "--nodes", "0"],
])
def test_gen_of_nothing_writes_an_empty_file(tmp_path, runner, argv):
    out = tmp_path / "out.txt"
    res = runner.invoke(main, ["gen", *argv, "--out", str(out)])
    assert res.exit_code == 0
    assert "wrote 0 tuples" in res.output
    assert out.read_text() == ""


def test_twopath_matches_oracle(tmp_path, runner):
    rng = np.random.default_rng(0)
    r_pairs = random_pairs(rng, 150, 20, 15)
    s_pairs = random_pairs(rng, 150, 20, 15)
    _write_pairs(tmp_path / "r.txt", r_pairs)
    _write_pairs(tmp_path / "s.txt", s_pairs)
    res = runner.invoke(main, ["twopath", "--left", str(tmp_path / "r.txt"),
                               "--right", str(tmp_path / "s.txt"),
                               "--delta1", "2", "--delta2", "2", "--counts"])
    assert res.exit_code == 0
    got = {}
    for line in res.output.splitlines():
        a, c, cnt = line.split()
        got[(int(a), int(c))] = int(cnt)
    assert got == dict(oracle_two_path(r_pairs, s_pairs))


def test_twopath_auto_plan(tmp_path, runner):
    rng = np.random.default_rng(1)
    pairs = random_pairs(rng, 100, 15, 10)
    _write_pairs(tmp_path / "g.txt", pairs)
    res = runner.invoke(main, ["twopath", "--left", str(tmp_path / "g.txt"),
                               "--right", str(tmp_path / "g.txt"),
                               "--auto-plan"])
    assert res.exit_code == 0
    expected = set(oracle_two_path(pairs, pairs))
    assert len(res.output.splitlines()) == len(expected)


def test_star_cli(tmp_path, runner):
    rng = np.random.default_rng(2)
    pairs = random_pairs(rng, 80, 10, 8)
    _write_pairs(tmp_path / "g.txt", pairs)
    res = runner.invoke(main, ["star", "--input", str(tmp_path / "g.txt"),
                               "--input", str(tmp_path / "g.txt"),
                               "--delta1", "2", "--delta2", "2"])
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == len(oracle_two_path(pairs, pairs))


@pytest.mark.parametrize("counts", [[], ["--counts"]])
def test_planned_star_prints_what_any_thresholds_print(tmp_path, runner,
                                                       counts):
    """star without thresholds runs the planner's plan; every split prints
    the same lines, and a star of two inputs prints what twopath prints."""
    g = str(tmp_path / "g.txt")
    _write_pairs(tmp_path / "g.txt",
                 random_pairs(np.random.default_rng(4), 150, 12, 10))
    for k in (2, 3):
        star = ["star"] + ["--input", g] * k + counts
        planned = runner.invoke(main, star)
        assert planned.exit_code == 0 and planned.output
        for t in ("1", "3", "100000"):
            fixed = runner.invoke(main, star + ["--delta1", t, "--delta2", t])
            assert fixed.output == planned.output
        if k == 2:
            assert runner.invoke(main, ["twopath", "--left", g, "--right", g]
                                 + counts).output == planned.output


@pytest.mark.parametrize("deltas", [[], ["--delta1", "1", "--delta2", "1"],
                                    ["--delta1", "99", "--delta2", "99"]])
def test_join_over_budget_is_a_data_error(tmp_path, runner, monkeypatch,
                                          deltas):
    # the default twopath plan, all heavy and all light
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", 10)
    _write_pairs(tmp_path / "g.txt",
                 random_pairs(np.random.default_rng(2), 80, 10, 8))
    g = str(tmp_path / "g.txt")
    for cmd in (["twopath", "--left", g, "--right", g],
                ["star", "--input", g, "--input", g, "--input", g]):
        res = runner.invoke(main, cmd + deltas)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error:") and "budget of 10" in res.output


@pytest.mark.parametrize("command", ["ssj", "scj"])
def test_set_join_over_budget_is_a_one_line_data_error(tmp_path, runner,
                                                       command):
    """One element in 20,000 sets: 4e8 pairs share it, past the entry
    budget. The message names the budget and no thresholds, which these
    commands do not take."""
    sets = tmp_path / "f.txt"
    sets.write_text("".join(f"s{i} e0\n" for i in range(20000)))
    res = runner.invoke(main, [command, "--sets", str(sets)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.output.splitlines()
    assert line.startswith("Error:")
    assert f"budget of {joinproject._ENTRY_BUDGET}" in line
    assert "delta" not in line


def test_bsi_over_budget_is_a_data_error(tmp_path, runner, monkeypatch):
    """The batch's membership probes are counted against the budget; past
    it, the batch size line is followed by one error line."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", 10)
    g = tmp_path / "g.txt"
    _write_pairs(g, generate_community_graph(60, 3, 0.9, 7).raw_pairs())
    wl = tmp_path / "wl.txt"
    wl.write_text("".join(f"{a} {a + 1} {a * 500}\n" for a in range(20)))
    res = runner.invoke(main, ["bsi", "--left", str(g), "--right", str(g),
                               "--workload", str(wl), "--rate", "1000",
                               "--batch-size", "10"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    batch, line = res.output.splitlines()
    assert batch == "batch_size=10"
    assert line.startswith("Error:") and "budget of 10" in line


def test_sizeaware_over_budget_is_a_one_line_data_error(tmp_path, runner,
                                                        monkeypatch):
    """At c = 2 the 30-element set is heavy, and its full join with every
    set, 50 light codes (its own 30 elements and the small sets' 20), is
    counted against the budget first."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", 10)
    sets = tmp_path / "f.txt"
    _write_family(sets, {"big": list(range(30)),
                         **{f"s{i}": [i, i + 1] for i in range(10)}})
    res = runner.invoke(main, ["ssj", "--sets", str(sets), "--c", "2",
                               "--method", "sizeaware"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.output.splitlines()
    assert line.startswith("Error:") and "budget of 10" in line


@pytest.mark.parametrize("argv, draws", [
    (["gen", "--kind", "community", "--nodes", "30", "--out", "{out}"], 303),
])
def test_graph_past_the_budget_is_refused_before_it_is_drawn(
        tmp_path, runner, monkeypatch, argv, draws):
    """Three communities of m nodes take 3 * (1 + m^2) bounds and draws,
    counted against the budget before the generator allocates any."""
    out = str(tmp_path / "out")
    argv = [arg.format(out=out) for arg in argv]
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", draws - 1)
    # a generator call past the check would raise TypeError, no SystemExit
    monkeypatch.setattr(cli, "generate_community_graph", None)
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = [line for line in res.output.splitlines()
              if line.startswith("Error:")]
    assert line == (f"Error: {draws} community bounds and edge draws are "
                    f"over the budget of {draws - 1}")
    assert not (tmp_path / "out").exists()
    # at the bound the graph is drawn
    monkeypatch.undo()
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", draws)
    assert "edge draws" not in runner.invoke(main, argv).output


def test_ids_with_escape_sequences_print_unchanged(tmp_path, runner):
    """An id holding an ANSI escape sequence is printed as it is, although
    the output is not a terminal."""
    g = tmp_path / "g.txt"
    g.write_text("x\x1b[1m y\nz y\n")
    x = "x\x1b[1m"
    want = [f"{x} {x}", f"{x} z", f"z {x}", "z z"]
    res = runner.invoke(main, ["twopath", "--left", str(g), "--right", str(g)])
    assert res.exit_code == 0
    assert res.output.splitlines() == want
    res = runner.invoke(main, ["star", "--input", str(g), "--input", str(g),
                               "--counts"])
    assert res.output.splitlines() == [f"{line} 1" for line in want]
    sets = tmp_path / "sets.txt"
    sets.write_text(f"{x} 1\n{x} 2\nz 1\n")
    for method in ("mmjoin", "ordered"):
        res = runner.invoke(main, ["ssj", "--sets", str(sets), "--method",
                                   method])
        assert res.output == f"{x} z 1\n"
    res = runner.invoke(main, ["scj", "--sets", str(sets)])
    assert res.output == f"z {x}\n"


def test_repeated_input_matches_separate_copy(tmp_path, runner, monkeypatch):
    """A file named twice, directly or through a symlink, is parsed once; the
    output is byte-identical to naming a copy of it."""
    rng = np.random.default_rng(5)
    pairs = random_pairs(rng, 120, 12, 9)
    g = tmp_path / "g.txt"
    _write_pairs(g, pairs)
    copy = tmp_path / "copy.txt"
    shutil.copy(g, copy)
    link = tmp_path / "link.txt"
    link.symlink_to(g)
    parsed = []

    def counting_parse(source, name):
        parsed.append(name)
        return parse_edge_list(source, name=name)

    monkeypatch.setattr(cli, "parse_edge_list", counting_parse)

    def run(argv, files):
        parsed.clear()
        res = runner.invoke(main, argv + [arg for f in files for arg in f])
        assert res.exit_code == 0
        return res.output, len(parsed)

    for counts in ([], ["--counts"]):
        twopath = ["twopath", "--delta1", "2", "--delta2", "2"] + counts
        left = ["--left", str(g)]
        same = run(twopath, [left, ["--right", str(g)]])
        linked = run(twopath, [left, ["--right", str(link)]])
        apart = run(twopath, [left, ["--right", str(copy)]])
        assert same == linked == (apart[0], 1) and apart[1] == 2
        assert len(same[0].splitlines()) == len(oracle_two_path(pairs, pairs))
        star = ["star", "--delta1", "2", "--delta2", "2"] + counts
        same = run(star, [["--input", str(g)]] * 3)
        apart = run(star, [["--input", str(g)], ["--input", str(copy)],
                           ["--input", str(g)]])
        assert same == (apart[0], 1) and apart[1] == 2


# prefixes of each other, characters below the space, and digit names whose
# text order differs from their numeric order
_NAMES = ["a", "a\x00", "a\x1b", "ab", "9", "10", "b", "é"]


@st.composite
def _table(draw):
    k = draw(st.integers(2, 4))
    values = [draw(st.lists(st.sampled_from(_NAMES), min_size=1, unique=True))
              for _ in range(k)]
    rows = draw(st.lists(st.tuples(*[st.integers(0, len(v) - 1)
                                     for v in values]), max_size=30))
    counts = draw(st.one_of(st.none(), st.lists(
        st.sampled_from([1, 2, 9, 10, 100]), min_size=len(rows),
        max_size=len(rows))))
    return values, rows, counts


def _distinct_result(values, rows, counts):
    """The distinct `rows` (id tuples into `values`, the first count of
    each kept) as an OutputSet over the lengths of `values`, and the rows'
    text lines in code order: fields joined by spaces, the count last."""
    by_row = {}
    for i, row in enumerate(rows):
        by_row.setdefault(tuple(row), None if counts is None else counts[i])
    kept = sorted(by_row)
    dims = [len(v) for v in values]
    codes = np.zeros(len(kept), dtype=np.int64)
    for j, dim in enumerate(dims):
        codes = codes * dim + np.array([row[j] for row in kept],
                                       dtype=np.int64)
    cnt = None if counts is None else np.array([by_row[row] for row in kept],
                                               dtype=np.int64)
    lines = [" ".join(v[i] for v, i in zip(values, row)) for row in kept]
    if cnt is not None:
        lines = [f"{line} {c}" for line, c in zip(lines, cnt.tolist())]
    return joinproject.OutputSet(codes, dims, cnt), lines


def _text(lines) -> str:
    """`lines` as the writer prints them, each ending in a newline."""
    return "".join(f"{line}\n" for line in lines)


def _check_result_lines(values, rows, counts):
    """_result_lines of the distinct `rows` prints what sorting their
    formatted lines prints, also with a key limit so small that the combined
    suffix key is re-ranked at every field, and in a given row order."""
    res, lines = _distinct_result(values, rows, counts)
    want = _text(sorted(lines))
    assert _result_lines(res, values, counts is not None) == want
    with mock.patch.object(cli, "_KEY_LIMIT", 4):
        assert _result_lines(res, values, counts is not None) == want
    # count ascending, then code descending
    cnt = np.zeros(len(res), dtype=np.int64) if counts is None else res.counts
    order = np.lexsort((-res.codes, cnt))
    by_key = sorted(range(len(res)),
                    key=lambda i: (int(cnt[i]), -int(res.codes[i])))
    assert _result_lines(res, values, counts is not None, order) == \
        _text(lines[i] for i in by_key)


@settings(max_examples=300, deadline=None)
@given(_table())
def test_result_lines_matches_sorting_formatted_rows(table):
    values, rows, counts = table
    # the names come drawn in any order: mostly out of text order (recoded)
    _check_result_lines(values, rows, counts)
    _check_rows_in_text_order(values, rows, counts)


def _check_rows_in_text_order(values, rows, counts):
    """The rows again with each field's ids in the text order of its names
    (a name plus the space after it, the last field's without one unless a
    count follows), as a join over parsed relations gives them:
    _result_lines takes their codes as they come, and must print what
    sorting the formatted rows prints; with the first field's names
    reversed, the rows are recoded and sorted."""
    seps = [" "] * len(values)
    if counts is None:
        seps[-1] = ""
    ordered = [sorted(v, key=lambda name, sep=sep: name + sep)
               for v, sep in zip(values, seps)]
    new_id = [[o.index(name) for name in v] for v, o in zip(values, ordered)]
    rows = [tuple(m[r] for m, r in zip(new_id, row)) for row in rows]
    _check_result_lines(ordered, rows, counts)
    res = _distinct_result(ordered, rows, counts)[0]
    with mock.patch.object(cli.np, "argsort", wraps=np.argsort) as argsort:
        _result_lines(res, ordered, counts is not None)
    # no row is sorted: the one sort is of a fingerprint per run of rows
    # that share their first field
    runs = len({row[0] for row in rows})
    assert all(len(call.args[0]) == runs for call in argsort.call_args_list)
    flipped = [ordered[0][::-1]] + ordered[1:]
    _check_result_lines(flipped, [(len(flipped[0]) - 1 - row[0], *row[1:])
                                  for row in rows], counts)


# names no row uses, more than any drawn table has rows
_PAD = [f"pad{i}" for i in range(joinproject._BITMAP_SPACE_PER_KEY * 2000 + 1)]


@st.composite
def _repetitive_table(draw):
    k = draw(st.integers(2, 4))
    values = [draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                            unique=True)) for _ in range(k)]
    n = draw(st.integers(200, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ids = np.stack([rng.integers(0, len(v), n) for v in values], axis=1)
    counts = rng.choice([1, 2, 9, 10, 100, 10 ** 12], n)
    return values, ids, counts


@settings(max_examples=60, deadline=None)
@given(_repetitive_table())
def test_result_lines_with_repeated_suffixes(table):
    # few names per field: every suffix text stands for several rows
    values, ids, counts = table
    rows = [tuple(row) for row in ids.tolist()]
    for cnt in (None, counts.tolist()):
        _check_result_lines(values, rows, cnt)
        lines = _distinct_result(values, rows, cnt)[1]
        want = _text(sorted(lines))
        # the same rows over fields with names no row uses: as many names
        # as rows, all formatted, which for three fields or more are too
        # many for a bitmap over the suffix keys; and more names than rows,
        # of which only the used ones are formatted
        m = len(lines)
        for wide in ([v + _PAD[:max(0, m - len(v))] for v in values],
                     [v + _PAD for v in values]):
            res = _distinct_result(wide, rows, cnt)[0]
            with mock.patch.object(cli.np, "unique",
                                   wraps=np.unique) as unique:
                assert _result_lines(res, wide, cnt is not None) == want
            if len(wide[1]) == m > 4 and len(values) > 2:
                assert unique.called


@st.composite
def _shared_table(draw):
    """Many leads over a few runs: each lead's rows are one of up to three
    sets of suffixes, with that set's counts, and one lead's counts may
    differ from its set's in a single row. Lead names may hold a control
    character, and suffix names may too, which recodes the rows."""
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    leads = draw(st.integers(2, 60))
    marked = draw(st.sampled_from(["", "\x01"]))
    values = [[f"l{i:02d}" + (marked if i % 3 == 0 else "")
               for i in range(leads)]]
    values += [draw(st.lists(st.sampled_from(_NAMES + ["a\x01"]),
                             min_size=1, max_size=5, unique=True))
               for _ in range(k - 1)]
    dims = [len(v) for v in values[1:]]
    space = int(np.prod(dims))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        keys = np.sort(rng.choice(space, rng.integers(1, space + 1),
                                  replace=False))
        suffixes = np.stack(np.unravel_index(keys, dims), axis=1)
        runs.append((suffixes.tolist(),
                     rng.choice([1, 2, 9, 10, 100, 10 ** 12], len(keys))))
    odd = draw(st.booleans())
    rows, counts = [], []
    for lead in range(leads):
        suffixes, cnt = runs[rng.integers(len(runs))]
        cnt = cnt.copy()
        if odd and lead == leads // 2:
            cnt[rng.integers(len(cnt))] += 1
        rows += [(lead, *suffix) for suffix in suffixes]
        counts += cnt.tolist()
    return values, rows, counts


def _colliding(codes, counts, lo, lens, base):
    """A fingerprint that every run shares."""
    return np.zeros(len(lo), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(_shared_table())
def test_result_lines_with_shared_runs(table):
    # with and without counts, in text order, recoded and in a given
    # order, at a key limit that re-ranks at every field, and with a
    # fingerprint under which every run collides
    values, rows, counts = table
    for cnt in (None, counts):
        _check_result_lines(values, rows, cnt)
        _check_rows_in_text_order(values, rows, cnt)
        with mock.patch.object(cli, "_run_fingerprints", _colliding):
            _check_result_lines(values, rows, cnt)


def test_result_lines_format_a_repeated_run_once(monkeypatch):
    """Runs with the same suffixes share one representative; under a
    fingerprint every run shares, runs that differ from their group's
    first one stand for themselves and print the same lines."""
    values = [[f"l{i}" for i in range(6)], ["x", "y", "z"]]
    rows = [(lead, s) for lead in range(6) for s in ((0, 2) if lead % 2
                                                      else (1, 2))]
    res, lines = _distinct_result(values, rows, None)
    reps, real = [], cli._shared_runs

    def shared_runs(*args):
        rep = real(*args)
        reps.append(rep.tolist())
        return rep

    monkeypatch.setattr(cli, "_shared_runs", shared_runs)
    assert _result_lines(res, values, False) == _text(sorted(lines))
    monkeypatch.setattr(cli, "_run_fingerprints", _colliding)
    assert _result_lines(res, values, False) == _text(sorted(lines))
    assert reps == [[0, 1, 0, 1, 0, 1], [0, 1, 0, 3, 0, 5]]


def test_result_lines_formats_only_the_names_rows_use(monkeypatch):
    """A field with more names than the result has rows formats only the
    names its rows use; one with as many or fewer formats them all."""
    values = [[f"v{i}" for i in range(1000)], ["x", "y"]]
    res, lines = _distinct_result(values, [(7, 0), (3, 1), (900, 1)], None)
    formatted, real = [], cli._names

    def names(texts):
        formatted.append(len(texts))
        return real(texts)

    monkeypatch.setattr(cli, "_names", names)
    assert _result_lines(res, values, False) == _text(sorted(lines))
    assert formatted == [2, 3]


def test_an_empty_result_prints_nothing(tmp_path, runner):
    """No row, no line: not even an empty one."""
    (tmp_path / "a.txt").write_text("a x\n")
    (tmp_path / "b.txt").write_text("b y\n")
    (tmp_path / "sets.txt").write_text("s 1\ns 2\nt 2\nt 3\n")
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for argv in (["twopath", "--left", a, "--right", b],
                 ["twopath", "--left", a, "--right", b, "--counts"],
                 ["star", "--input", a, "--input", b, "--input", a],
                 ["star", "--input", a, "--input", b, "--counts"],
                 ["scj", "--sets", str(tmp_path / "sets.txt")],
                 ["ssj", "--sets", str(tmp_path / "sets.txt"), "--c", "2"]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, res.output
        assert res.output == ""


def test_ssj_methods_cli(tmp_path, runner):
    rng = np.random.default_rng(3)
    fam = random_family(rng, 25, 20, 8)
    _write_family(tmp_path / "f.txt", fam)
    oracle = oracle_ssj(fam, 2)
    base = ["ssj", "--sets", str(tmp_path / "f.txt"), "--c", "2"]
    res = runner.invoke(main, base + ["--method", "mmjoin"])
    assert res.exit_code == 0
    got = {}
    for line in res.output.splitlines():
        a, b, cnt = line.split()
        got[canon_pair(a, b)] = int(cnt)
    assert got == oracle
    res = runner.invoke(main, base + ["--method", "sizeaware"])
    pairs = {canon_pair(*line.split()) for line in res.output.splitlines()}
    assert pairs == set(oracle)
    res = runner.invoke(main, base + ["--method", "sizeaware-pp"])
    assert res.exit_code == 0
    assert res.output.splitlines()[0].startswith("# merge_ops=")
    res = runner.invoke(main, base + ["--method", "ordered"])
    counts = [int(line.split()[2]) for line in res.output.splitlines()]
    assert counts == sorted(counts, reverse=True)


def test_ssj_ordered_cli_prints_oracle_order(tmp_path, runner):
    # many overlap ties, broken by input order, which is not the text order
    # of the names s0..s39
    rng = np.random.default_rng(8)
    path = tmp_path / "f.txt"
    fam = random_family(rng, 40, 25, 10)
    _write_family(path, fam)
    for c in (1, 2, 3, 30):
        res = runner.invoke(main, ["ssj", "--sets", str(path), "--c", str(c),
                                   "--method", "ordered"])
        assert res.exit_code == 0
        assert res.output == _text(oracle_ssj_ordered(fam, c))


def test_ssj_and_scj_run_the_public_apps_functions(tmp_path, runner,
                                                   monkeypatch):
    """`ssj` (mmjoin and ordered) and `scj` look up apps.ssj_mmjoin and
    apps.scj_join_project on the module, so a wrapper put there sees every
    call."""
    _write_family(tmp_path / "f.txt", {"a": [1, 2], "b": [1, 2, 3], "c": [2]})
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("ssj_mmjoin", "scj_join_project"):
        monkeypatch.setattr(apps, name, counting(getattr(apps, name)))
    sets = ["--sets", str(tmp_path / "f.txt")]
    for argv, called in ((["ssj", "--method", "mmjoin"], "ssj_mmjoin"),
                         (["ssj", "--method", "ordered"], "ssj_mmjoin"),
                         (["scj"], "scj_join_project")):
        calls.clear()
        res = runner.invoke(main, argv + sets)
        assert res.exit_code == 0, res.output
        assert res.output
        assert calls == [called]


def test_ssj_mmjoin_cli_pairs_in_file_order(tmp_path, runner):
    fam = {"zeta": [1, 2, 3], "alpha": [2, 3, 4], "mid": [3, 4, 1]}
    _write_family(tmp_path / "f.txt", fam)
    res = runner.invoke(main, ["ssj", "--sets", str(tmp_path / "f.txt"),
                               "--c", "2", "--method", "mmjoin"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["alpha mid 2", "zeta alpha 2",
                                       "zeta mid 2"]


def test_ssj_methods_orient_pairs_in_file_order(tmp_path, runner):
    """Every method prints a pair's set that comes first in the file first,
    where file order and code-point order disagree; `ordered` breaks overlap
    ties in file order too."""
    rng = np.random.default_rng(9)
    names = [f"s{i}" for i in range(30)] + ["zeta", "alpha", "Z", "a\x01"]
    order = rng.permutation(len(names))
    fam = {names[i]: sorted({int(e) for e in rng.integers(0, 12, 5)})
           for i in order}
    path = tmp_path / "f.txt"
    _write_family(path, fam)
    pos = {name: i for i, name in enumerate(fam)}
    assert list(fam) != sorted(fam)
    for c in (1, 2, 3):
        found = {(a, b) if pos[a] < pos[b] else (b, a): cnt
                 for (a, b), cnt in oracle_ssj(fam, c).items()}
        base = ["ssj", "--sets", str(path), "--c", str(c), "--method"]
        res = runner.invoke(main, base + ["mmjoin"])
        assert res.output.splitlines() == sorted(
            f"{a} {b} {cnt}" for (a, b), cnt in found.items())
        pairs = sorted(f"{a} {b}" for a, b in found)
        res = runner.invoke(main, base + ["sizeaware"])
        assert res.output.splitlines() == pairs
        res = runner.invoke(main, base + ["sizeaware-pp"])
        assert res.output.splitlines()[1:] == pairs
        res = runner.invoke(main, base + ["ordered"])
        ranked = sorted(found.items(),
                        key=lambda kv: (-kv[1], pos[kv[0][0]], pos[kv[0][1]]))
        assert res.output.splitlines() == [f"{a} {b} {cnt}"
                                           for (a, b), cnt in ranked]


def test_ssj_sizeaware_answers_past_the_old_subset_cap(tmp_path, runner):
    # two light 40-element sets give 2 * C(40, 5) = 1,317,616 c-subsets,
    # past the 10^6 that once stopped sizeaware, well within the budget
    _write_family(tmp_path / "f.txt", {f"s{a}": range(40) for a in range(2)})
    res = runner.invoke(main, ["ssj", "--sets", str(tmp_path / "f.txt"),
                               "--c", "5", "--method", "sizeaware"])
    assert res.exit_code == 0
    assert res.output == "s0 s1\n"


def test_ssj_sizeaware_light_side_over_budget_is_one_error_line(
        tmp_path, runner, monkeypatch):
    """Six light 14-element sets at c = 3 have 2184 c-subsets, counted
    against the budget before any is made."""
    monkeypatch.setattr(joinproject, "_ENTRY_BUDGET", 2000)
    _write_family(tmp_path / "f.txt", {f"s{a}": range(14) for a in range(6)})
    res = runner.invoke(main, ["ssj", "--sets", str(tmp_path / "f.txt"),
                               "--c", "3", "--method", "sizeaware"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = res.output.splitlines()
    assert line == "Error: 2184 c-subsets are over the budget of 2000"


def test_scj_cli(tmp_path, runner):
    fam = {"a": [1, 2], "b": [1, 2, 3], "c": [9]}
    _write_family(tmp_path / "f.txt", fam)
    res = runner.invoke(main, ["scj", "--sets", str(tmp_path / "f.txt")])
    assert res.exit_code == 0
    assert res.output.strip() == "a b"


def test_bsi_cli(tmp_path, runner):
    rng = np.random.default_rng(4)
    pairs = random_pairs(rng, 100, 15, 10)
    _write_pairs(tmp_path / "g.txt", pairs)
    wl = tmp_path / "wl.txt"
    wl.write_text("".join(f"{int(a)} {int(b)} {i * 500}\n"
                          for i, (a, b) in
                          enumerate(rng.integers(0, 15, (30, 2)))))
    res = runner.invoke(main, ["bsi", "--left", str(tmp_path / "g.txt"),
                               "--right", str(tmp_path / "g.txt"),
                               "--workload", str(wl), "--rate", "1000",
                               "--batch-size", "10"])
    assert res.exit_code == 0
    assert "batch_size=10" in res.output
    assert "average_delay_s=" in res.output
    assert "implied_units=" in res.output


def test_bsi_cli_reads_and_aligns_once(tmp_path, runner, monkeypatch):
    """A file named twice is parsed once, relations are aligned once before
    the batches, and the default batch size follows the relations as read."""
    rng = np.random.default_rng(4)
    g, h = tmp_path / "g.txt", tmp_path / "h.txt"
    g_pairs = random_pairs(rng, 100, 15, 10)
    h_pairs = random_pairs(rng, 60, 15, 10) + [(f"x{i}", f"gone{i}")
                                               for i in range(50)]
    _write_pairs(g, g_pairs)
    _write_pairs(h, h_pairs)
    wl = tmp_path / "wl.txt"
    wl.write_text("".join(f"{int(a)} {int(b)} {i * 500}\n"
                          for i, (a, b) in
                          enumerate(rng.integers(0, 15, (30, 2)))))
    parsed, aligned = [], []

    def counting_parse(source, name):
        parsed.append(name)
        return parse_edge_list(source, name=name)

    def counting_align(rels):
        aligned.append(len(rels))
        return semi_join_reduce_many(rels)

    def no_realign(*rels):
        raise AssertionError("a batch realigned its relations")

    monkeypatch.setattr(cli, "parse_edge_list", counting_parse)
    monkeypatch.setattr(cli, "semi_join_reduce_many", counting_align)
    monkeypatch.setattr(apps, "semi_join_reduce", no_realign)
    for right, pairs, n_parsed in ((g, g_pairs, 1), (h, h_pairs, 2)):
        parsed.clear()
        aligned.clear()
        res = runner.invoke(main, ["bsi", "--left", str(g), "--right",
                                   str(right), "--workload", str(wl),
                                   "--rate", "1000"])
        assert res.exit_code == 0, res.output
        assert (len(parsed), aligned) == (n_parsed, [2])
        size = apps.bsi_batch_size(1000, max(len(g_pairs), len(pairs)))
        assert res.output.startswith(f"batch_size={size}\n")


@pytest.mark.parametrize("option", [
    ["--rate", "0"], ["--rate", "-1"], ["--rate", "inf"], ["--rate", "nan"],
    ["--rate", "1000", "--batch-size", "0"],
    ["--rate", "1000", "--batch-size", "-1"]])
def test_bsi_out_of_range_options_are_usage_errors(tmp_path, runner, option):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    wl = tmp_path / "wl.txt"
    wl.write_text("1 3 0\n")
    argv = ["bsi", "--left", str(graph), "--right", str(graph),
            "--workload", str(wl)]
    res = runner.invoke(main, argv + option)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    # a rate below one query per time unit still has a default batch size
    res = runner.invoke(main, argv + ["--rate", "0.5"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("batch_size=1\n")


def test_bsi_rate_past_the_float_range_sizes_one_batch(tmp_path, runner):
    """rate * N overflows a float; the default batch size does not."""
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    wl = tmp_path / "wl.txt"
    wl.write_text("1 3 0\n")
    res = runner.invoke(main, ["bsi", "--left", str(graph), "--right",
                               str(graph), "--workload", str(wl),
                               "--rate", "1e308"])
    assert res.exit_code == 0, res.output
    assert "batches=1" in res.output.splitlines()


@pytest.mark.parametrize("option", [
    ["--delta1", "5"], ["--delta2", "5"], ["--calibration", "nope.tsv"],
    ["--delta1", "5", "--delta2", "5", "--calibration", "nope.tsv"]])
def test_twopath_options_that_would_be_ignored_are_usage_errors(
        tmp_path, runner, option):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    res = runner.invoke(main, ["twopath", "--left", str(graph), "--right",
                               str(graph)] + option)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output


@pytest.mark.parametrize("command, option", [
    ("star", ["--delta1", "0", "--delta2", "3"]),
    ("star", ["--delta1", "3", "--delta2", "0"]),
    ("twopath", ["--delta1", "0", "--delta2", "3"]),
    ("twopath", ["--delta1", "3", "--delta2", "0"]),
    ("twopath", ["--delta1", "-1", "--delta2", "-1"]),
    *[("ssj", ["--c", "0", "--method", method])
      for method in ("mmjoin", "ordered", "sizeaware", "sizeaware-pp")],
    ("check", ["ssj", "--c", "0"])])
def test_out_of_range_thresholds_are_usage_errors(tmp_path, runner, command,
                                                  option):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    files = {"star": ["--input", str(graph), "--input", str(graph)],
             "twopath": ["--left", str(graph), "--right", str(graph)],
             "ssj": ["--sets", str(graph)], "check": []}[command]
    res = runner.invoke(main, [command] + files + option)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output and "x>=1" in res.output
    # the smallest threshold in range runs
    in_range = ["1" if arg in ("0", "-1") else arg for arg in option]
    assert runner.invoke(main, [command] + files + in_range).exit_code == 0


def test_calibrate_env_var(tmp_path, runner, monkeypatch):
    target = tmp_path / "cal.tsv"
    monkeypatch.setenv("MMJOIN_CALIBRATION", str(target))
    res = runner.invoke(main, ["calibrate", "--dims", "16,32"])
    assert res.exit_code == 0
    assert "seed=0" in res.output
    assert target.read_text().startswith("# mmjoin-calibration v1")


@pytest.mark.parametrize("dims", ["16,x", "", "-4", "0", "16,,32"])
def test_calibrate_dims_usage_error(tmp_path, runner, dims):
    out = tmp_path / "cal.tsv"
    res = runner.invoke(main, ["calibrate", "--dims", dims, "--out", str(out)])
    assert res.exit_code == 2
    assert "--dims" in res.output
    assert not out.exists()


def test_calibrate_unwritable_out_is_a_data_error(tmp_path, runner):
    out = tmp_path / "missing" / "cal.tsv"
    res = runner.invoke(main, ["calibrate", "--dims", "16", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines()[-1].startswith("Error:")
    assert str(out) in res.output


def test_calibrate_failure_is_a_data_error(tmp_path, runner, monkeypatch):
    def fail(dims, seed):
        raise matmul.CalibrationError("cannot allocate 16x16 probes")

    monkeypatch.setattr(matmul, "calibrate", fail)
    out = tmp_path / "cal.tsv"
    res = runner.invoke(main, ["calibrate", "--dims", "16", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: cannot allocate 16x16 probes" in res.output
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "community", "--nodes", "30"],
    ["gen", "--kind", "sets"],
    ["calibrate", "--dims", "16"],
])
def test_unwritable_out_fails_before_any_work(tmp_path, runner, monkeypatch,
                                              argv):
    """An --out in a missing directory is one error line naming it, before
    a graph or family is drawn or a probe is timed."""
    def fail(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(cli, "generate_community_graph", fail)
    monkeypatch.setattr(np.random, "default_rng", fail)
    monkeypatch.setattr(matmul, "calibrate", fail)
    out = tmp_path / "missing" / "out.txt"
    res = runner.invoke(main, argv + ["--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    seed, line = res.output.splitlines()
    assert seed.startswith("seed=")
    assert line.startswith("Error:") and str(out) in line
    assert not out.parent.exists()


def test_calibrate_dims_default_is_the_probe_dims(runner):
    res = runner.invoke(main, ["calibrate", "--help"])
    assert res.exit_code == 0
    default = ",".join(map(str, matmul.DEFAULT_PROBE_DIMS))
    assert f"[default: {default}]" in res.output
    assert 1024 not in matmul.DEFAULT_PROBE_DIMS


_HEADER = "# mmjoin-calibration v1\n"


@pytest.mark.parametrize("text, message", [
    ("not a calibration file\n", "unrecognized calibration file"),
    (_HEADER, "calibration table"),
    (_HEADER + "16\t1\tabc\n", "line 2: expected 3 tab-separated integers"),
    (_HEADER + "16\t1000\n", "line 2: expected 3 tab-separated integers"),
    (_HEADER + "16\t1\t1000\n0\t1\t5\n", "line 3: probe dim 0"),
    (_HEADER + "16\t1\t-5\n", "line 2: negative nanos"),
], ids=["bad-header", "header-only", "non-integer", "two-fields", "dim-0",
        "negative-nanos"])
@pytest.mark.parametrize("command", ["twopath"])
def test_calibration_error_exit_code(tmp_path, runner, text, message, command):
    cal = tmp_path / "cal.tsv"
    cal.write_text(text)
    graph = tmp_path / "g.txt"
    _write_pairs(graph, generate_community_graph(120, 3, 0.9, 7).raw_pairs())
    res = runner.invoke(main, [command, "--left", str(graph), "--right",
                               str(graph), "--auto-plan",
                               "--calibration", str(cal)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def _auto_plan_argv(tmp_path, sparse=False):
    """twopath --auto-plan argv on a sparse random graph or a dense
    community graph."""
    graph = tmp_path / "g.txt"
    if sparse:
        _write_pairs(graph, random_pairs(np.random.default_rng(6), 100, 50, 50))
    else:
        _write_pairs(graph, generate_community_graph(120, 3, 0.9, 7).raw_pairs())
    return ["twopath", "--left", str(graph), "--right", str(graph),
            "--auto-plan"]


@pytest.mark.parametrize("sparse", [False, True])
def test_missing_calibration_is_a_data_error(tmp_path, runner, monkeypatch,
                                             sparse):
    missing = tmp_path / "nope.tsv"
    argv = _auto_plan_argv(tmp_path, sparse)
    res = runner.invoke(main, argv + ["--calibration", str(missing)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert str(missing) in res.output
    assert res.output.startswith("Error:")
    monkeypatch.setenv("MMJOIN_CALIBRATION", str(missing))
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert str(missing) in res.output


@pytest.mark.parametrize("sparse", [False, True])
def test_header_only_calibration_names_the_file(tmp_path, runner, sparse):
    # the plan that follows (full join when sparse) does not matter
    cal = tmp_path / "cal.tsv"
    cal.write_text(_HEADER)
    res = runner.invoke(main, _auto_plan_argv(tmp_path, sparse)
                        + ["--calibration", str(cal)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"{cal}: no rows" in res.output


def test_unreadable_calibration_exit_code(tmp_path, runner):
    graph = tmp_path / "g.txt"
    _write_pairs(graph, generate_community_graph(120, 3, 0.9, 7).raw_pairs())
    binary = tmp_path / "binary.tsv"
    binary.write_bytes(b"# mmjoin-calibration v1\n\xde\xad\tbe\xef\n")
    for cal, message in ((tmp_path, "Is a directory"),
                         (binary, "line 2: expected 3 tab-separated integers")):
        res = runner.invoke(main, ["twopath", "--left", str(graph), "--right",
                                   str(graph), "--auto-plan",
                                   "--calibration", str(cal)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert message in res.output


def test_usage_error_exit_code(runner):
    assert runner.invoke(main, ["twopath"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2


def test_data_error_exit_code(tmp_path, runner):
    bad = tmp_path / "bad.txt"
    bad.write_text("only_one_token\n")
    ok = tmp_path / "ok.txt"
    ok.write_text("1 2\n")
    res = runner.invoke(main, ["twopath", "--left", str(bad),
                               "--right", str(ok)])
    assert res.exit_code == 1


@pytest.mark.parametrize("bad_line", ["1 3 x", "1 3", "1 3 5 7"])
def test_bsi_workload_data_error_exit_code(tmp_path, runner, bad_line):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    wl = tmp_path / "wl.txt"
    wl.write_text(f"# a b micros\n1 3 0\n{bad_line}\n")
    res = runner.invoke(main, ["bsi", "--left", str(graph), "--right",
                               str(graph), "--workload", str(wl),
                               "--rate", "1000", "--batch-size", "2"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "line 3" in res.output


def _data_error_case(tmp_path, case):
    """(argv, message) of one data error of a command."""
    ok, missing = tmp_path / "ok.txt", tmp_path / "missing"
    ok.write_text("1 2\n3 2\n")
    bad, bad8 = tmp_path / "bad.txt", tmp_path / "bad8.txt"
    bad.write_text("1 2\n1 2 3\n")
    bad8.write_bytes(b"1 2\n3 \xff\n")
    wl = tmp_path / "wl.txt"
    wl.write_text("1 3 5\n# arrivals in micros\n1 3 2\n")
    return {
        "gen": (["gen", "--kind", "sets", "--out", f"{missing}/x.txt"],
                "No such file or directory"),
        "gen-community": (["gen", "--kind", "community", "--nodes", "30",
                           "--out", f"{missing}/x.txt"],
                          "No such file or directory"),
        "calibrate": (["calibrate", "--dims", "16",
                       "--out", f"{missing}/cal.tsv"], f"{missing}/cal.tsv"),
        "twopath": (["twopath", "--left", str(ok), "--right", str(bad)],
                    f"{bad}, line 2: expected 2 tokens, got 3"),
        "twopath-utf8": (["twopath", "--left", str(ok), "--right", str(bad8)],
                         f"{bad8}, line 2: byte 0xff is not utf-8"),
        "star": (["star", "--input", str(ok), "--input", str(bad8)],
                 f"{bad8}, line 2: byte 0xff"),
        "ssj": (["ssj", "--sets", str(bad)], f"{bad}, line 2: expected 2"),
        "scj": (["scj", "--sets", str(bad8)], f"{bad8}, line 2: byte"),
        "bsi": (["bsi", "--left", str(ok), "--right", str(ok), "--workload",
                 str(wl), "--rate", "10"],
                f"{wl}, line 3: arrival time 2 is before"),
        "bsi-left": (["bsi", "--left", str(bad), "--right", str(ok),
                      "--workload", str(wl), "--rate", "10"],
                     f"{bad}, line 2: expected 2 tokens"),
    }[case]


@pytest.mark.parametrize("case", [
    "gen", "gen-community", "calibrate", "twopath", "twopath-utf8", "star",
    "ssj", "scj", "bsi", "bsi-left"])
def test_data_errors_print_one_error_line(tmp_path, runner, case):
    """Each command's data errors, the unwritable outputs and the input that
    is not UTF-8 included, exit 1 with one `Error:` line naming the file."""
    argv, message = _data_error_case(tmp_path, case)
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    [line] = [line for line in res.output.splitlines()
              if line.startswith("Error:")]
    assert message in line
    assert "Traceback" not in res.output


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("command", [
    lambda f: ["twopath", "--left", f, "--right", f, "--counts"],
    lambda f: ["scj", "--sets", f],
], ids=["twopath", "scj"])
def test_a_byte_order_mark_is_not_part_of_the_first_id(tmp_path, runner,
                                                        command):
    """An edge list or set family that starts with a UTF-8 byte-order mark
    prints what the same file without it prints, and a byte that is not
    UTF-8 after the mark is still named at its line."""
    plain, marked, bad = (tmp_path / f for f in ("p.txt", "m.txt", "b.txt"))
    plain.write_bytes(b"a x\nb x\nb y\n")
    marked.write_bytes(_BOM + plain.read_bytes())
    bad.write_bytes(_BOM + b"a x\nb \xff\n")
    want, got = (runner.invoke(main, command(str(f))) for f in (plain, marked))
    assert want.exit_code == got.exit_code == 0
    assert want.output and got.output == want.output
    res = runner.invoke(main, command(str(bad)))
    assert res.exit_code == 1
    assert f"Error: {bad}, line 2: byte 0xff is not utf-8" in res.output


def test_a_bsi_workload_may_start_with_a_byte_order_mark(tmp_path, runner):
    """A workload's mark is not part of its first line, so a comment there
    stays a comment, and a bad byte after it is named at its line."""
    graph, wl = tmp_path / "g.txt", tmp_path / "wl.txt"
    graph.write_text("1 2\n3 2\n")
    argv = ["bsi", "--left", str(graph), "--right", str(graph),
            "--workload", str(wl), "--rate", "1000"]
    wl.write_bytes(_BOM + b"# a b micros\n1 3 0\n1 3 5\n")
    assert runner.invoke(main, argv).exit_code == 0
    wl.write_bytes(_BOM + b"1 3 0\n1 3 \xff\n")
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert f"Error: {wl}, line 2: byte 0xff is not utf-8" in res.output


@pytest.mark.parametrize("argv", [
    ["twopath", "--left", "{g}", "--right", "{g}", "--delta1", "2"],
    ["twopath", "--left", "{g}", "--right", "{g}", "--calibration", "{g}"],
    ["bsi", "--left", "{g}", "--right", "{g}", "--workload", "{g}",
     "--rate", "nan"],
    ["gen", "--kind", "community", "--prob", "nan", "--out", "{g}.out"],
    ["star", "--input", "{g}", "--input", "{g}", "--delta1", "2"],
    ["star", "--input", "{g}", "--input", "{g}", "--delta2", "2"],
])
def test_usage_errors_raised_in_a_command_exit_2(tmp_path, runner, argv):
    g = tmp_path / "g.txt"
    g.write_text("1 2\n")
    res = runner.invoke(main, [arg.format(g=g) for arg in argv])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output


@pytest.mark.parametrize("module, name, argv", [
    (joinproject, "two_path_join", ["twopath", "--left", "{g}", "--right",
                                    "{g}"]),
    (joinproject, "star_join", ["star", "--input", "{g}", "--input", "{g}"]),
    (apps, "ssj_mmjoin", ["ssj", "--sets", "{g}"]),
    (cli, "parse_edge_list", ["scj", "--sets", "{g}"]),
])
@pytest.mark.parametrize("message, line", [
    ("", "Error: out of memory"),
    ("Unable to allocate 1.62 GiB for an array with\nshape (217000000,)",
     "Error: out of memory: Unable to allocate 1.62 GiB for an array with "
     "shape (217000000,)"),
])
def test_out_of_memory_is_one_error_line(tmp_path, runner, monkeypatch,
                                         module, name, argv, message, line):
    """A MemoryError (here raised where a join or the parse would run out,
    allocating nothing) is one `Error:` line, exit status 1, no
    traceback."""
    g = tmp_path / "g.txt"
    g.write_text("1 2\n3 2\n")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(module, name, out_of_memory)
    res = runner.invoke(main, [arg.format(g=g) for arg in argv])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [line]


def test_the_error_boundary_passes_other_exits(tmp_path, runner,
                                               monkeypatch):
    """`check`'s mismatch exit is its own."""
    monkeypatch.setattr(cli, "_oracle_twopath", lambda r, s: set())
    res = runner.invoke(main, ["check", "twopath", "--n", "150"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "MISMATCH" in res.output and "Error:" not in res.output


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "community", "--communities", "0"],
    ["gen", "--kind", "community", "--prob", "0"],
    ["gen", "--kind", "community", "--prob", "1.5"],
    ["gen", "--kind", "community", "--prob", "nan"],
    ["gen", "--kind", "sets", "--max-size", "0"],
    ["gen", "--kind", "sets", "--universe", "-3"],
    ["gen", "--kind", "sets", "--sets", "-3"],
    ["gen", "--kind", "community", "--nodes", "-3"],
    ["star", "--input", "{g}"],
    ["star"] + ["--input", "{g}"] * 5,
    ["gen", "--kind", "sets", "--seed", "-1"],
    ["gen", "--kind", "community", "--seed", "-1"],
    ["check", "twopath", "--seed", "-1"],
    ["check", "ssj", "--seed", "-1"],
    ["calibrate", "--seed", "-40", "--dims", "16"],
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, runner, argv):
    graph = tmp_path / "g.txt"
    graph.write_text("1 2\n3 2\n")
    out = {"gen": ["--out", str(tmp_path / "out.txt")],
           "calibrate": ["--out", str(tmp_path / "out.txt")]}.get(argv[0], [])
    res = runner.invoke(main, [arg.format(g=graph) for arg in argv] + out)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Usage:" in res.output
    assert not (tmp_path / "out.txt").exists()


def test_check_twopath_with_few_pairs_per_domain(runner):
    """n = 150 draws its 150 distinct pairs from a domain with room for
    them, instead of looping for ever."""
    res = runner.invoke(main, ["check", "twopath", "--n", "150"])
    assert res.exit_code == 0
    assert res.output.startswith("seed=7\nOK: ")


def test_check_commands(tmp_path, runner):
    res = runner.invoke(main, ["check", "twopath", "--seed", "3",
                               "--n", "500"])
    assert res.exit_code == 0
    assert "seed=3" in res.output and "OK" in res.output
    res = runner.invoke(main, ["check", "ssj", "--seed", "5", "--c", "2"])
    assert res.exit_code == 0 and "OK" in res.output


def test_an_unexpected_exception_is_one_line_with_its_own_status(
        tmp_path, runner, monkeypatch):
    """A ValueError a command does not expect is a bug, not a data error:
    one `Internal error:` line naming it, exit status 70, no traceback."""
    sets = tmp_path / "sets.txt"
    sets.write_text("a x\nb x\n")

    def broken(family, c):
        raise ValueError("operands could not be broadcast\ntogether")

    monkeypatch.setattr(apps, "ssj_mmjoin", broken)
    res = runner.invoke(main, ["ssj", "--sets", str(sets)])
    assert res.exit_code == cli._BUG_EXIT == 70
    assert res.output.splitlines() == [
        "Internal error: ValueError: operands could not be broadcast together"]
    assert isinstance(res.exception, SystemExit)


def test_an_error_in_a_join_worker_ends_the_command_as_itself(
        tmp_path, runner, monkeypatch):
    # the benchmark-shaped family plans its Gram corner at c = 3 on two
    # workers; a task that fails on the second thread ends the command
    # with that exception's own name
    sets = tmp_path / "sets.txt"
    res = runner.invoke(main, ["gen", "--kind", "sets", "--sets", "1000",
                               "--universe", "500", "--max-size", "40",
                               "--out", str(sets)])
    assert res.exit_code == 0
    fail_off_the_main_thread(monkeypatch)
    res = runner.invoke(main, ["ssj", "--sets", str(sets), "--c", "3"])
    assert res.exit_code == 70
    assert res.output.splitlines() == [
        "Internal error: WorkerBoom: raised in a worker"]
