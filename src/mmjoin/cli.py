"""Command-line front end: dataset generation, query execution, calibration
and oracle cross-checks."""

from __future__ import annotations

import math
import os
import sys
import time
from typing import Optional

import click
import numpy as np

from . import apps, joinproject, matmul, optimizer
from .errors import DataError
from .joinproject import _KEY_LIMIT, _dense_rank
from .relation import (
    Relation,
    _key_groups,
    build_indexed,
    build_indexes,
    generate_community_graph,
    parse_edge_list,
    semi_join_reduce_many,
)

CALIBRATION_ENV = "MMJOIN_CALIBRATION"


def _load_calibration(path: Optional[str]) -> Optional[matmul.CalibrationTable]:
    """The table named by `path` or $MMJOIN_CALIBRATION, None if neither is
    set. A named table that is missing raises OSError."""
    path = path or os.environ.get(CALIBRATION_ENV)
    return matmul.CalibrationTable.load(path) if path else None


def _read_relation(path: str, name: str) -> Relation:
    # utf-8-sig drops a leading byte-order mark, and its decode errors still
    # name utf-8 and count lines after the mark
    with open(path, encoding="utf-8-sig") as f:
        return parse_edge_list(f, name=name)


def _read_relations(paths: list, names: list) -> list:
    """One Relation per path. A file named more than once (by the same real
    path) is parsed once, and every repeat gets the same object."""
    keys = [os.path.realpath(path) for path in paths]
    read = {}
    for key, path, name in zip(keys, paths, names):
        if key not in read:
            read[key] = _read_relation(path, name)
    return [read[key] for key in keys]


def _aligned_indexes(paths: list, names: list) -> tuple[list, list]:
    """(read, indexed): the relations read from `paths` (_read_relations)
    and their indexes after one semi-join (semi_join_reduce_many), one
    index per distinct relation (build_indexes). Aligned relations keep the
    left ids and dictionaries they were read with."""
    read = _read_relations(paths, names)
    return read, build_indexes(semi_join_reduce_many(read))


def _names(texts: list):
    """The distinct `texts` in code-point order (an object array), and each
    text's position among them; None for the positions when the texts are
    that order already (distinct and ascending), each its own position."""
    names = sorted(set(texts))
    if names == texts:
        return np.array(names, dtype=object), None
    pos = {name: i for i, name in enumerate(names)}
    return (np.array(names, dtype=object),
            np.fromiter(map(pos.__getitem__, texts), dtype=np.int64,
                        count=len(texts)))


def _suffixes(fields: list, key: np.ndarray, space: int, pending: list):
    """Each row's suffix id and the suffix texts, one per distinct suffix in
    code-point order. A row's suffix is its fields' names concatenated; a
    field is `(names, rank)`, its names in code-point order and each row's
    position among them. `key` is each row's key over the fields that come
    before `fields`, their ranks as digits, most significant first:
    `pending` holds their names and `space` is the product of their lengths.

    The fields' ranks combine into one key per row, most significant first,
    and the distinct keys are ranked once; each distinct suffix's text is
    built once, by one object-array concatenation per field.
    """
    texts = None  # the text of each distinct key, before `pending` fields
    for names, rank in fields:
        if pending and space * len(names) > _KEY_LIMIT:
            key, texts = _suffix_texts(key, space, texts, pending)
            space, pending = len(texts), []
        key = key * len(names) + rank
        space *= len(names)
        pending.append(names)
    return _suffix_texts(key, space, texts, pending)


def _suffix_texts(key, space, texts, pending):
    """Densely re-ranked `key` and the text of each distinct key: the text
    of its prefix (`texts`, None for none) plus the `pending` fields' names,
    whose ranks make up the key's low digits."""
    distinct, key = _dense_rank(key, space)
    parts = []
    for names in reversed(pending):
        distinct, rank = np.divmod(distinct, len(names))
        parts.append(names[rank])
    parts.reverse()
    out = parts[0] if texts is None else texts[distinct] + parts[0]
    for part in parts[1:]:
        out = out + part
    return key, out


def _field_names(values: list, codes: np.ndarray, dims: tuple,
                 counts: Optional[np.ndarray]) -> list:
    """`_names` of each field's values, one list of values per field: every
    field but the last is followed by a space, and the last one too when a
    count field follows. A field with more values than there are rows
    (`codes`, over `dims`) has only the values the rows use formatted, and
    its rank maps each used id to its position among them; a list given
    for two fields with the same separator is formatted once."""
    seps = [" "] * len(values)
    if counts is None:
        seps[-1] = ""
    fields, made, stride = [], {}, 1
    for field, sep, dim in zip(values[::-1], seps[::-1], dims[::-1]):
        if len(field) > len(codes):
            used = np.flatnonzero(np.bincount(codes // stride % dim,
                                              minlength=dim))
            names, rank = _names([str(field[i]) + sep for i in used.tolist()])
            at = np.zeros(dim, dtype=np.int64)
            at[used] = np.arange(len(used)) if rank is None else rank
            fields.append((names, at))
        else:
            if (id(field), sep) not in made:
                made[id(field), sep] = _names([str(value) + sep
                                               for value in field])
            fields.append(made[id(field), sep])
        stride *= dim
    return fields[::-1]


def _count_field(counts: np.ndarray):
    """The field `(names, rank)` of `counts` (nonnegative)."""
    distinct, inverse = _dense_rank(counts, int(counts.max(initial=0)) + 1)
    names, rank = _names(list(map(str, distinct.tolist())))
    return names, inverse if rank is None else rank[inverse]


def _runs(codes: np.ndarray, space: int, leads: int, ascending: bool):
    """The first row of each run of rows that share their first field, and
    that field's id: a code's leading digit over `space`, one of `leads`.
    Ascending codes are cut by one search per lead, not one division per
    row."""
    if ascending:
        lo = np.searchsorted(codes, np.arange(leads) * space)
        lead = np.flatnonzero(np.diff(lo, append=len(codes)))
        return lo[lead], lead
    lead = codes // space
    lo = np.flatnonzero(np.concatenate(([True], lead[1:] != lead[:-1])))
    return lo, lead[lo]


# Runs share their text only when the repeated ones hold at least this
# share of the rows: masking the rows apart costs a few passes over all of
# them, and each repeated row saves its rank, gather and list entry.
_SHARED_ROWS_MIN = 1 / 8

# an odd multiplier that spreads a run's fingerprint over all 64 bits
_MIX = np.int64(-0x61C8864680B583EB)

# rows of repeated runs compared at a time
_COMPARE_ROWS = 1 << 20


def _run_fingerprints(codes, counts, lo, lens, base) -> np.ndarray:
    """One number per run on which two runs printing the same rest of line
    agree. A run is the `lens` rows from `lo` on, and `base` its lead times
    the suffix space, so a code less its run's base is the row's suffix
    key. It mixes the run's length, its first and last key and the sum of
    its keys (and of its counts), all wrapping: equal fingerprints are only
    a reason to compare the rows."""
    fp = lens
    for part in (codes[lo] - base, codes[lo + lens - 1] - base,
                 np.add.reduceat(codes, lo) - lens * base,
                 None if counts is None else np.add.reduceat(counts, lo)):
        if part is not None:
            fp = fp * _MIX + part
    return fp


def _shared_runs(codes, counts, lo, lens, base) -> np.ndarray:
    """Each run's representative (runs as in `_run_fingerprints`): the
    earliest run with the same suffix keys in the same order, and the same
    counts when `counts` are printed; each run itself when few rows repeat
    (_SHARED_ROWS_MIN). Runs are grouped by fingerprint, then compared row
    by row with their group's earliest run, one pass per run length; a run
    that differs stands for itself, so a fingerprint collision costs time,
    never a wrong line."""
    run = np.arange(len(lo))
    perm, starts, first = _key_groups(
        _run_fingerprints(codes, counts, lo, lens, base))
    # each group's earliest run, for every run of the group
    rep = np.empty_like(run)
    rep[perm] = first[np.cumsum(starts) - 1]
    dup = np.flatnonzero((rep != run) & (lens == lens[rep]))
    if lens[dup].sum() < _SHARED_ROWS_MIN * len(codes):
        return run
    out = run.copy()
    windows = np.lib.stride_tricks.sliding_window_view
    for size in np.unique(lens[dup]).tolist():
        # runs of one length are rows of a window view, compared in chunks
        # of about _COMPARE_ROWS rows
        of_size = dup[lens[dup] == size]
        step = max(1, _COMPARE_ROWS // size)
        for i in range(0, len(of_size), step):
            mine = of_size[i:i + step]
            theirs = rep[mine]
            diff = windows(codes, size)[lo[mine]]
            diff -= windows(codes, size)[lo[theirs]]
            same = (diff == (base[mine] - base[theirs])[:, None]).all(axis=1)
            if counts is not None:
                view = windows(counts, size)
                same &= (view[lo[mine]] == view[lo[theirs]]).all(axis=1)
            out[mine[same]] = theirs[same]
    return out


def _result_lines(res: joinproject.OutputSet, values: list, counts: bool,
                  order: Optional[np.ndarray] = None) -> str:
    """The rows of a result as lines of text, each ending in a newline (""
    for no rows), each row its fields joined by spaces: field i holds
    `values[i]` at the row's i-th id, and a last field the row's count when
    `counts`. Rows come sorted by code point, or in `order` (row indices)
    when given.

    Tokens hold no whitespace, so the text order of two rows is the order of
    their fields, each field compared as its name plus the space after it
    (the last one without). When every field's ids are in that order, as a
    parsed relation's are, the codes, which ascend, are the rows in text
    order; otherwise each row is recoded over its fields' ranks in that
    order (one divmod and one gather per field) and the codes are sorted.
    A code's leading digit is then its row's lead rank and the rest its
    suffix key. Rows that share their lead make a run, and runs that print
    the same rest of line share its text (`_shared_runs`): names, suffixes
    and runs are formatted once per distinct value, and rows are only
    joined.
    """
    if not len(res):
        return ""
    codes, cnt = res.codes, res.counts if counts else None
    named = _field_names(values, codes, res.dims, cnt)
    ascending = order is None
    if any(rank is not None for _, rank in named):
        rem, codes, stride = codes, 0, 1
        for dim, (names, rank) in zip(res.dims[::-1], named[::-1]):
            rem, ids = np.divmod(rem, dim)
            codes = codes + stride * (ids if rank is None else rank[ids])
            stride *= len(names)
        if ascending and np.any(codes[1:] < codes[:-1]):
            order = np.argsort(codes, kind="stable")
    if order is not None:
        codes = codes[order]
        cnt = None if cnt is None else cnt[order]
    space = math.prod(len(names) for names, _ in named[1:])
    lo, lead = _runs(codes, space, len(named[0][0]), ascending)
    lens = np.diff(lo, append=len(codes))
    base = lead * space
    rep = _shared_runs(codes, cnt, lo, lens, base)
    shown = rep == np.arange(len(lo))
    shared = not shown.all()
    rows = slice(None)
    if shared:
        rows = np.repeat(shown, lens)
        lens, base = lens[shown], base[shown]
    key = codes[rows] - np.repeat(base, lens)
    # the last field of a line ends it
    pending = [names for names, _ in named[1:]]
    rest = []
    if cnt is None:
        pending[-1] = pending[-1] + "\n"
    else:
        names, rank = _count_field(cnt[rows])
        rest = [(names + "\n", rank)]
    suffix, suffixes = _suffixes(rest, key, space, pending)
    texts = suffixes[suffix].tolist()
    cut = [0, *np.cumsum(lens).tolist()]
    runs = (texts[a:b] for a, b in zip(cut, cut[1:]))
    if shared:
        # each run prints its representative's rows, sliced once
        runs = list(runs)
        runs = [runs[i] for i in (np.cumsum(shown) - 1)[rep].tolist()]
    heads = named[0][0][lead].tolist()
    # a run prints as its lead, then its rows' texts (each ending its line)
    # joined by its lead
    return "".join([piece for head, run in zip(heads, runs)
                    for piece in (head, head.join(run))])


def _echo(text: str) -> None:
    """Write query output as it is: click.echo strips ANSI escape sequences
    when stdout is not a terminal, and ids may hold them. The text ends
    its own last line, and an empty one writes nothing."""
    click.echo(text, color=True, nl=False)


def _probe_dims(ctx, param, value):
    """--dims as a list of integers >= 1."""
    try:
        dims = [int(d) for d in value.split(",")]
        if min(dims) >= 1:
            return dims
    except ValueError:
        pass
    raise click.BadParameter(
        f"expected comma-separated integers >= 1, got {value!r}")


# what a command raises on bad input or input past the join budget: the
# project's own data errors (ParseError, the budget error, CalibrationError,
# MatrixOverflowError) and the file and codec errors of reading its input
_DATA_ERRORS = (DataError, OSError, UnicodeDecodeError)

# sysexits.h's EX_SOFTWARE: an internal software error
_BUG_EXIT = 70


class _Bug(click.ClickException):
    """An exception no command expects, which is a bug: one line naming it
    on stderr, no traceback, exit status _BUG_EXIT."""

    exit_code = _BUG_EXIT

    def show(self, file=None):
        click.echo(f"Internal error: {self.message}", file=file, err=True)


class _Commands(click.Group):
    """The one place where a command's exceptions end: a data error
    (_DATA_ERRORS) or a MemoryError (an input past the memory the process
    has, which the join budget does not count) becomes one `Error:` line
    and exit status 1, and any other exception one `Internal error:` line
    and exit status _BUG_EXIT. click's own exceptions (usage errors exit
    2), SystemExit and KeyboardInterrupt pass."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's main exits quietly when stdout is closed
        except _DATA_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:
            text = " ".join(str(exc).split())
            raise click.ClickException(f"out of memory: {text}" if text
                                       else "out of memory") from exc
        except (click.ClickException, click.exceptions.Exit,
                click.exceptions.Abort):
            raise
        except Exception as exc:
            text = " ".join(str(exc).split())
            raise _Bug(f"{type(exc).__name__}: {text}" if text
                       else type(exc).__name__) from exc


@click.group(cls=_Commands)
def main():
    """Join-project query engine with count-matrix multiplication."""


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would, changing no file: it is
    opened for appending, and removed if that made it."""
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


@main.command("gen")
@click.option("--kind", type=click.Choice(["community", "sets"]), required=True)
@click.option("--nodes", type=click.IntRange(min=0), default=600,
              show_default=True)
@click.option("--communities", type=click.IntRange(min=1), default=3,
              show_default=True)
@click.option("--prob", type=click.FloatRange(0, 1, min_open=True),
              default=0.9, show_default=True)
@click.option("--sets", "n_sets", type=click.IntRange(min=0), default=100,
              show_default=True)
@click.option("--universe", type=click.IntRange(min=0), default=50,
              show_default=True)
@click.option("--max-size", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=7,
              show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(kind, nodes, communities, prob, n_sets, universe, max_size, seed, out):
    """Generate a synthetic edge list or set family."""
    if math.isnan(prob):  # passes every range check
        raise click.BadParameter("nan is not a probability",
                                 param_hint="'--prob'")
    click.echo(f"seed={seed}")
    if kind == "community":
        # what the generator allocates: a bound and up to
        # ceil(nodes / communities)^2 edge draws per community
        m = -(-nodes // communities)
        joinproject._within_budget(communities * (1 + m * m),
                                   "community bounds and edge draws")
    _check_writable(out)
    lines = []
    if kind == "community":
        rel = generate_community_graph(nodes, communities, prob, seed)
        lines = [f"{a} {b}" for a, b in rel.raw_pairs()]
    else:
        rng = np.random.default_rng(seed)
        for a in range(n_sets):
            size = int(rng.integers(1, max_size + 1))
            elems = rng.choice(universe, size=min(size, universe), replace=False)
            lines.extend(f"s{a} e{e}" for e in elems)
    with open(out, "w", encoding="utf-8") as f:
        f.write("".join(f"{line}\n" for line in lines))
    click.echo(f"wrote {len(lines)} tuples to {out}")


@main.command("twopath")
@click.option("--left", required=True, type=click.Path(exists=True))
@click.option("--right", required=True, type=click.Path(exists=True))
@click.option("--delta1", type=click.IntRange(min=1))
@click.option("--delta2", type=click.IntRange(min=1))
@click.option("--auto-plan", is_flag=True)
@click.option("--counts", is_flag=True)
@click.option("--calibration", type=click.Path())
def cmd_twopath(left, right, delta1, delta2, auto_plan, counts, calibration):
    """Projected two-path join; emits sorted `a c [count]` lines."""
    if (delta1 is None) != (delta2 is None):
        raise click.UsageError("--delta1 and --delta2 go together")
    if calibration is not None and not auto_plan:
        raise click.UsageError("--calibration needs --auto-plan")
    (r, s), (ridx, sidx) = _aligned_indexes([left, right], ["R", "S"])
    plan = None  # the default plan, also --auto-plan's without a table
    if delta1 is not None:
        plan = optimizer.ThresholdPlan(optimizer.PARTITIONED, delta1, delta2)
    elif auto_plan and (table := _load_calibration(calibration)) is not None:
        plan = optimizer.optimize_thresholds(ridx, sidx, table)
    res = joinproject.two_path_join(ridx, sidx, plan=plan, want_counts=counts)
    _echo(_result_lines(res, [r.left_values, s.left_values], counts))


@main.command("star")
@click.option("--input", "inputs", multiple=True, required=True,
              type=click.Path(exists=True))
@click.option("--delta1", type=click.IntRange(min=1))
@click.option("--delta2", type=click.IntRange(min=1))
@click.option("--counts", is_flag=True)
def cmd_star(inputs, delta1, delta2, counts):
    """Projected star join over 2..4 relations sharing the right column."""
    if not 2 <= len(inputs) <= 4:
        raise click.UsageError("star takes 2 to 4 --input files")
    if (delta1 is None) != (delta2 is None):
        raise click.UsageError("--delta1 and --delta2 go together")
    rels, idxs = _aligned_indexes(inputs,
                                  [f"R{i}" for i in range(len(inputs))])
    res = joinproject.star_join(idxs, delta1, delta2, want_counts=counts)
    _echo(_result_lines(res, [rel.left_values for rel in rels], counts))


@main.command("ssj")
@click.option("--sets", "sets_path", required=True, type=click.Path(exists=True))
@click.option("--c", "threshold", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--method",
              type=click.Choice(["mmjoin", "sizeaware", "sizeaware-pp", "ordered"]),
              default="mmjoin", show_default=True)
def cmd_ssj(sets_path, threshold, method):
    """Set-similarity join; emits sorted `a b [count]` lines."""
    fam = apps.SetFamily(_read_relation(sets_path, "sets"))
    order = None
    if method == "sizeaware":
        res = apps.ssj_size_aware(fam, threshold)
    elif method == "sizeaware-pp":
        res, ops = apps.ssj_size_aware_pp(fam, threshold)
        click.echo(f"# merge_ops={ops}")
    else:
        res = apps.ssj_mmjoin(fam, threshold)
    if method == "ordered":
        # overlap descending, then the sets in input order
        left, right = res.tuples().T
        first = fam.relation.left_first
        order = np.lexsort((first[right], first[left], -res.counts))
    values = fam.relation.left_values
    _echo(_result_lines(res, [values, values], res.counts is not None, order))


@main.command("scj")
@click.option("--sets", "sets_path", required=True, type=click.Path(exists=True))
def cmd_scj(sets_path):
    """Set-containment join; emits sorted `small big` lines."""
    fam = apps.SetFamily(_read_relation(sets_path, "sets"))
    res = apps.scj_join_project(fam)
    values = fam.relation.left_values
    _echo(_result_lines(res, [values, values], False))


@main.command("bsi")
@click.option("--left", required=True, type=click.Path(exists=True))
@click.option("--right", required=True, type=click.Path(exists=True))
@click.option("--workload", required=True, type=click.Path(exists=True))
@click.option("--rate", type=click.FloatRange(0, math.inf, min_open=True,
                                              max_open=True), required=True)
@click.option("--batch-size", type=click.IntRange(min=1), default=None,
              help="defaults to ceil((rate*N)^(3/5))")
def cmd_bsi(left, right, workload, rate, batch_size):
    """Batched boolean set intersection: answers plus simulated latency."""
    if math.isnan(rate):  # passes every range check
        raise click.BadParameter("nan is not a rate", param_hint="'--rate'")
    (rr, sr), (r, s) = _aligned_indexes([left, right], ["R", "S"])
    with open(workload, encoding="utf-8-sig") as f:
        wl = apps.BsiWorkload.from_file(f, rate)
    # N is the size of the relations as read, before the semi-join
    c = batch_size or apps.bsi_batch_size(rate, max(rr.n, sr.n, 1))
    click.echo(f"batch_size={c}")

    def cost(batch):
        t0 = time.perf_counter_ns()
        apps.bsi_answer_batch(r, s, batch)
        return (time.perf_counter_ns() - t0) / 1e9

    sim = apps.bsi_simulate(wl, c, cost)
    click.echo(f"average_delay_s={sim.average_delay:.6f}")
    click.echo(f"implied_units={sim.implied_units:.3f}")
    click.echo(f"batches={sim.batches}")


@main.command("calibrate")
@click.option("--dims", default=",".join(map(str, matmul.DEFAULT_PROBE_DIMS)),
              show_default=True, callback=_probe_dims)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help=f"defaults to ${CALIBRATION_ENV} or ./calibration.tsv")
def cmd_calibrate(dims, seed, out):
    """Measure the multiply cost table and write calibration.tsv."""
    click.echo(f"seed={seed}")
    out = out or os.environ.get(CALIBRATION_ENV) or "calibration.tsv"
    _check_writable(out)
    table = matmul.calibrate(dims, seed=seed)
    table.save(out)
    click.echo(f"wrote {len(table)} entries to {out}")


def _random_instance(rng, n, dom_x, dom_y, name="R"):
    pairs = set()
    while len(pairs) < n:
        pairs.add((int(rng.integers(dom_x)), int(rng.integers(dom_y))))
    return Relation.from_raw_pairs(name, pairs)


def _oracle_twopath(r: Relation, s: Relation) -> set:
    by_y: dict = {}
    for c, y in s.raw_pairs():
        by_y.setdefault(y, []).append(c)
    out = set()
    for a, y in r.raw_pairs():
        for c in by_y.get(y, ()):
            out.add((a, c))
    return out


@main.group("check")
def cmd_check():
    """Cross-check methods against brute-force oracles; nonzero on mismatch."""


@cmd_check.command("twopath")
@click.option("--seed", type=click.IntRange(min=0), default=7,
              show_default=True)
@click.option("--n", type=click.IntRange(min=0), default=2000,
              show_default=True)
def check_twopath(seed, n):
    click.echo(f"seed={seed}")
    rng = np.random.default_rng(seed)
    # at least 2n possible pairs, so drawing n distinct ones ends soon
    dom = max(10, n // 20, math.ceil(math.sqrt(2 * n)))
    r = _random_instance(rng, n, dom, dom, "R")
    s = _random_instance(rng, n, dom, dom, "S")
    expected = _oracle_twopath(r, s)
    rr, ss = semi_join_reduce_many([r, s])
    res = joinproject.two_path_join(build_indexed(rr), build_indexed(ss))
    got = {(rr.left_values[a], ss.left_values[c])
           for a, c in res.tuples().tolist()}
    if got != expected:
        click.echo(f"MISMATCH: {len(got)} vs oracle {len(expected)}")
        sys.exit(1)
    click.echo(f"OK: {len(got)} pairs match the oracle")


@cmd_check.command("ssj")
@click.option("--seed", type=click.IntRange(min=0), default=7,
              show_default=True)
@click.option("--c", "threshold", type=click.IntRange(min=1), default=2,
              show_default=True)
def check_ssj(seed, threshold):
    click.echo(f"seed={seed}")
    rng = np.random.default_rng(seed)
    sets = {f"s{i}": sorted({int(e) for e in rng.integers(0, 40, rng.integers(1, 15))})
            for i in range(60)}
    fam = apps.SetFamily.from_dict(sets)
    mm = apps.ssj_mmjoin(fam, threshold)
    sa = apps.ssj_size_aware(fam, threshold)
    pp, _ = apps.ssj_size_aware_pp(fam, threshold)
    # a pair (a, b) has a the set that appears first in the input
    n = len(fam)
    oracle = [a * n + b for a in range(n) for b in range(n)
              if fam.first_seen(a, b)
              and len(np.intersect1d(fam.sets[a], fam.sets[b])) >= threshold]
    if not all(np.array_equal(res.codes, oracle) for res in (mm, sa, pp)):
        click.echo("MISMATCH between ssj methods and oracle")
        sys.exit(1)
    click.echo(f"OK: {len(mm)} pairs, all methods agree")


if __name__ == "__main__":
    main()
