"""Command-line front end: dataset generation, query execution, calibration,
benchmarks, and oracle cross-checks."""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import sys
import time
from typing import Optional

import click
import numpy as np

from . import apps, joinproject, matmul, optimizer
from .joinproject import _KEY_LIMIT, _dense_rank
from .relation import (
    Relation,
    build_indexed,
    build_indexes,
    generate_community_graph,
    parse_edge_list,
    read_source,
    semi_join_reduce_many,
)

CSV_HEADER = ["dataset", "query", "method", "wall_nanos", "output_size",
              "delta1", "delta2", "strategy"]

CALIBRATION_ENV = "MMJOIN_CALIBRATION"


def _timed(fn, runs: int = 5):
    """Average of the middle runs after dropping min and max; nanos."""
    samples = []
    result = None
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        result = fn()
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    kept = samples[1:-1] if len(samples) > 2 else samples
    return result, sum(kept) // len(kept)


def _load_calibration(path: Optional[str]) -> Optional[matmul.CalibrationTable]:
    """The table named by `path` or $MMJOIN_CALIBRATION, None if neither is
    set. A named table that is missing raises OSError."""
    path = path or os.environ.get(CALIBRATION_ENV)
    return matmul.CalibrationTable.load(path) if path else None


def _read_relation(path: str, name: str) -> Relation:
    with open(path, encoding="utf-8") as f:
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


def _field_names(values: list, counts: Optional[np.ndarray]) -> list:
    """`_names` of each field's values, one list of values per field: every
    field but the last is followed by a space, and the last one too when a
    count field follows."""
    seps = [" "] * len(values)
    if counts is None:
        seps[-1] = ""
    return [_names([str(value) + sep for value in field])
            for field, sep in zip(values, seps)]


def _count_field(counts: np.ndarray):
    """The field `(names, rank)` of `counts` (nonnegative)."""
    distinct, inverse = _dense_rank(counts, int(counts.max(initial=0)) + 1)
    names, rank = _names(list(map(str, distinct.tolist())))
    return names, inverse if rank is None else rank[inverse]


def _join_lines(leads, lead, suffixes, suffix) -> str:
    """Rows `leads[lead[i]] + suffixes[suffix[i]]` in the given order, joined
    by newlines."""
    if not len(lead):
        return ""
    rest = suffixes[suffix].tolist()
    # one join per run of rows that share the first field
    cuts = [0, *(np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist(),
            len(lead)]
    heads = leads[lead[cuts[:-1]]].tolist()
    return "\n".join(head + ("\n" + head).join(rest[lo:hi])
                     for head, lo, hi in zip(heads, cuts, cuts[1:]))


def _result_lines(res: joinproject.OutputSet, values: list, counts: bool,
                  order: Optional[np.ndarray] = None) -> str:
    """The rows of a result as text joined by newlines, each row its fields
    joined by spaces: field i holds `values[i]` at the row's i-th id, and a
    last field the row's count when `counts`. Rows come sorted by code
    point, or in `order` (row indices) when given.

    Tokens hold no whitespace, so the text order of two rows is the order of
    their fields, each field compared as its name plus the space after it
    (the last one without). When every field's ids are in that order, as a
    parsed relation's are, the codes, which ascend, are the rows in text
    order; otherwise each row is recoded over its fields' ranks in that
    order (one divmod and one gather per field) and the codes are sorted.
    A code's leading digit is then its row's lead rank and the rest its
    suffix key: names and suffixes are formatted once per distinct value,
    and rows are only gathered and joined.
    """
    codes, cnt = res.codes, res.counts if counts else None
    named = _field_names(values, cnt)
    if any(rank is not None for _, rank in named):
        rem, codes, stride = codes, 0, 1
        for dim, (names, rank) in zip(res.dims[::-1], named[::-1]):
            rem, ids = np.divmod(rem, dim)
            codes = codes + stride * (ids if rank is None else rank[ids])
            stride *= len(names)
        if order is None:
            order = np.argsort(codes, kind="stable")
    if order is not None:
        codes = codes[order]
        cnt = None if cnt is None else cnt[order]
    if not len(codes):
        return ""
    space = math.prod(len(names) for names, _ in named[1:])
    lead, key = np.divmod(codes, space)
    rest = [] if cnt is None else [_count_field(cnt)]
    suffix, suffixes = _suffixes(rest, key, space,
                                 [names for names, _ in named[1:]])
    return _join_lines(named[0][0], lead, suffixes, suffix)


def _echo(text: str) -> None:
    """Write query output as it is: click.echo strips ANSI escape sequences
    when stdout is not a terminal, and ids may hold them."""
    click.echo(text, color=True)


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


# what a command raises on bad input or input past the join budget;
# ValueError covers ParseError, UnicodeDecodeError and thresholds below 1
_DATA_ERRORS = (OSError, ValueError, csv.Error,
                joinproject.StarResourceError, matmul.CalibrationError,
                matmul.MatrixOverflowError)


class _Commands(click.Group):
    """The one place where a command's data error (_DATA_ERRORS) becomes a
    ClickException: one `Error:` line and exit status 1. MemoryError,
    SystemExit and click's own exceptions (usage errors exit 2) pass."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's main exits quietly when stdout is closed
        except _DATA_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main():
    """Join-project query engine with count-matrix multiplication."""


def _community_graph(nodes, communities, prob, seed) -> Relation:
    """generate_community_graph after counting against the join budget a
    bound and up to ceil(nodes / communities)^2 edge draws per community."""
    m = -(-nodes // communities)
    joinproject._within_budget(communities * (1 + m * m),
                               "community bounds and edge draws")
    return generate_community_graph(nodes, communities, prob, seed)


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
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def cmd_gen(kind, nodes, communities, prob, n_sets, universe, max_size, seed, out):
    """Generate a synthetic edge list or set family."""
    if math.isnan(prob):  # passes every range check
        raise click.BadParameter("nan is not a probability",
                                 param_hint="'--prob'")
    click.echo(f"seed={seed}")
    lines = []
    if kind == "community":
        rel = _community_graph(nodes, communities, prob, seed)
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
    with open(workload, encoding="utf-8") as f:
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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help=f"defaults to ${CALIBRATION_ENV} or ./calibration.tsv")
def cmd_calibrate(dims, seed, out):
    """Measure the multiply cost table and write calibration.tsv."""
    click.echo(f"seed={seed}")
    out = out or os.environ.get(CALIBRATION_ENV) or "calibration.tsv"
    table = matmul.calibrate(dims, seed=seed)
    table.save(out)
    click.echo(f"wrote {len(table)} entries to {out}")


@main.command("bench")
@click.argument("query", type=click.Choice(["twopath"]))
@click.option("--dataset", type=click.Choice(["community"]), default="community",
              show_default=True)
@click.option("--n", "n_edges",
              type=click.FloatRange(0, math.inf, max_open=True), default=1e5,
              show_default=True)
@click.option("--methods", default="mmjoin,fulljoin", show_default=True)
@click.option("--csv", "csv_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--calibration", type=click.Path())
def cmd_bench(query, dataset, n_edges, methods, csv_path, seed, calibration):
    """Benchmark methods on a synthetic dataset; emits CSV rows."""
    if math.isnan(n_edges):  # passes every range check
        raise click.BadParameter("nan is not a size", param_hint="'--n'")
    # an unwritable path fails here, before any work; a run that fails
    # later leaves the path as it was (a file it created is removed)
    existed = os.path.lexists(csv_path)
    open(csv_path, "a", encoding="utf-8").close()
    try:
        click.echo(f"seed={seed}")
        records = _bench_records(query, dataset, n_edges, methods, seed,
                                 _load_calibration(calibration))
    except BaseException:
        if not existed:
            os.remove(csv_path)
        raise
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        w.writerows(records)
    click.echo(f"wrote {len(records)} records to {csv_path}")


def _bench_records(query, dataset, n_edges, methods, seed, table) -> list:
    """One CSV_HEADER row per method of `methods` (comma-separated), each
    timed on the community graph of about `n_edges` edges."""
    # three communities of edge probability 0.9 with about n edges
    nodes = max(3, 3 * math.ceil(math.sqrt(int(n_edges) / 3 / 0.9)))
    idx = build_indexed(_community_graph(nodes, 3, 0.9, seed))
    # the mmjoin row runs the cheapest plan with a heavy part
    use = optimizer.price_plan([idx, idx], 2, table).plan(partitioned=True)
    records = []
    for method in methods.split(","):
        if method == "mmjoin":
            join = functools.partial(joinproject.two_path_join, idx, idx,
                                     plan=use)
            d1, d2, strat = use.delta1, use.delta2, use.strategy
        elif method == "fulljoin":
            join = functools.partial(joinproject.full_join_dedup, idx, idx)
            d1 = d2 = idx.n
            strat = optimizer.FULL_JOIN
        else:
            raise click.ClickException(f"unknown method {method!r}")
        res, nanos = _timed(join)
        records.append([dataset, query, method, nanos, len(res), d1, d2, strat])
    sizes = {r[4] for r in records}
    if len(sizes) > 1:
        raise click.ClickException(f"output sizes disagree across methods: {sizes}")
    return records


@main.command("report")
@click.option("--csv", "csv_path", required=True, type=click.Path(exists=True))
def cmd_report(csv_path):
    """Summarize a bench CSV as fulljoin/mmjoin speedup ratios."""
    with open(csv_path, newline="", encoding="utf-8") as f:
        text, _ = read_source(f)  # names the file and line of a bad byte
    reader = csv.DictReader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, row) for row in reader]
    if not rows:
        click.echo("no records")
        return
    if set(rows[0][1]) != set(CSV_HEADER):
        raise click.ClickException("malformed CSV: unexpected columns")
    by_query: dict = {}
    for line, row in rows:
        try:
            nanos = int(row["wall_nanos"])
        except (TypeError, ValueError):
            raise click.ClickException(
                f"{csv_path}, line {line}: wall_nanos "
                f"{row['wall_nanos']!r} is not an integer")
        key = (row["dataset"], row["query"])
        by_query.setdefault(key, {})[row["method"]] = (nanos, line)
    for (dataset, query), times in sorted(by_query.items()):
        base = times.get("fulljoin", times.get("mmjoin"))
        mm = times.get("mmjoin", base)
        if mm[0] == 0:
            raise click.ClickException(
                f"{csv_path}, line {mm[1]}: wall_nanos 0 leaves no speedup")
        click.echo(f"{dataset}/{query}: speedup={base[0] / mm[0]:.2f} "
                   f"(fulljoin={base[0]}ns mmjoin={mm[0]}ns)")


def _random_instance(rng, n, dom_x, dom_y, name="R"):
    pairs = set()
    while len(pairs) < n:
        pairs.add((int(rng.integers(dom_x)), int(rng.integers(dom_y))))
    return Relation.from_raw_pairs(name, sorted(pairs))


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
@click.option("--seed", type=int, default=7, show_default=True)
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
@click.option("--seed", type=int, default=7, show_default=True)
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
    # the ids number the sets in input order, so a pair (a, b) has a < b
    n = len(fam)
    oracle = [a * n + b for a in range(n) for b in range(a + 1, n)
              if len(np.intersect1d(fam.sets[a], fam.sets[b])) >= threshold]
    if not all(np.array_equal(res.codes, oracle) for res in (mm, sa, pp)):
        click.echo("MISMATCH between ssj methods and oracle")
        sys.exit(1)
    click.echo(f"OK: {len(mm)} pairs, all methods agree")


if __name__ == "__main__":
    main()
