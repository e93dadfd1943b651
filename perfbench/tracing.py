"""Spans around the calls the benchmark makes into each mmjoin layer.

The tracer swaps module-level names (and a few class attributes) for thin
wrappers while a traced round runs and puts the originals back afterwards,
so the untraced runs execute the program untouched. A name that no longer
exists is listed as missing instead of failing the run.

Names are wrapped where the caller looks them up: `cli` and `apps` import
functions into their own namespaces, so `cli.parse_edge_list` and
`apps.two_path_join` are wrapped rather than the defining module's copy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager

BSI_SPAN = "apps.bsi_answer_batch"
OPTIMIZED = "optimizer.optimize_thresholds"


def _n(args, kwargs, result):
    return {"n": result.n}


def _join(args, kwargs, result):
    st = result.stats
    return {"rows": len(result),
            "light": st.get("light_intermediate", st.get("intermediate", 0)),
            "heavy": st.get("heavy_pairs", 0)}


def _plan(args, kwargs, result):
    return {"strategy": result.strategy, "delta1": result.delta1,
            "delta2": result.delta2, "cost_ns": result.total_cost}


def _multiply(args, kwargs, result):
    a, b = args[0], args[1]
    return {"u": a.rows, "v": a.cols, "w": b.cols}


def _pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _batch(args, kwargs, result):
    return {"answers": len(result)}


# (owner path, attribute, span name, info extractor)
TARGETS = [
    ("cli", "parse_edge_list", "relation.parse_edge_list", _n),
    ("relation.Relation", "from_raw_pairs", "relation.from_raw_pairs", None),
    ("cli", "semi_join_reduce", "relation.semi_join", None),
    ("cli", "semi_join_reduce_many", "relation.semi_join", None),
    ("apps", "semi_join_reduce", "relation.semi_join", None),
    ("joinproject", "semi_join_reduce_many", "relation.semi_join", None),
    ("cli", "build_indexed", "relation.build_indexed", None),
    ("apps", "build_indexed", "relation.build_indexed", None),
    ("joinproject", "build_indexed", "relation.build_indexed", None),
    ("relation", "degree_stats", "relation.degree_stats", None),
    ("optimizer", "optimize_thresholds", OPTIMIZED, _plan),
    ("optimizer", "default_plan", "optimizer.default_plan", _plan),
    ("joinproject", "default_plan", "optimizer.default_plan", _plan),
    ("joinproject", "two_path_join", "joinproject.two_path_join", _join),
    ("apps", "two_path_join", "joinproject.two_path_join", _join),
    ("joinproject", "heavy_matrices", "joinproject.heavy_matrices", None),
    ("joinproject", "star_join", "joinproject.star_join", None),
    ("joinproject.OutputSet", "tuples", "joinproject.decode", None),
    ("joinproject", "multiply_counts", "matmul.multiply_counts", _multiply),
    ("matmul", "calibrate", "matmul.calibrate", None),
    ("apps.SetFamily", "__init__", "apps.SetFamily", None),
    ("apps", "ssj_mmjoin", "apps.ssj_mmjoin", _pairs),
    ("apps", "scj_join_project", "apps.scj_join_project", _pairs),
    ("apps", "bsi_answer_batch", BSI_SPAN, _batch),
    ("cli", "cmd_twopath.callback", "cli.twopath", None),
    ("cli", "cmd_star.callback", "cli.star", None),
    ("cli", "cmd_ssj.callback", "cli.ssj", None),
    ("cli", "cmd_scj.callback", "cli.scj", None),
]


class Tracer:
    """Spans kept in memory: id, name, start/end ns, parent id, info."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.missing: list = []

    def call(self, name, fn, args=(), kwargs=None, info=None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter_ns(), "end": None, "info": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()
        if info is not None:
            rec["info"] = info(args, kwargs or {}, result)
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every reachable target for the duration of the block."""
        restore = []
        try:
            for path, attr, name, info in TARGETS:
                owner, leaf = _resolve(path, attr)
                if owner is None:
                    if f"{path}.{attr}" not in self.missing:
                        self.missing.append(f"{path}.{attr}")
                    continue
                raw = inspect.getattr_static(owner, leaf)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, info))
                else:
                    new = self._wrap(name, raw, info)
                setattr(owner, leaf, new)
                restore.append((owner, leaf, raw))
            yield self
        finally:
            for owner, leaf, raw in reversed(restore):
                setattr(owner, leaf, raw)


def _resolve(path: str, attr: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    mod_name, _, cls_name = path.partition(".")
    try:
        owner = importlib.import_module(f"mmjoin.{mod_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        *parents, leaf = attr.split(".")
        for p in parents:
            owner = getattr(owner, p)
        inspect.getattr_static(owner, leaf)
    except (ImportError, AttributeError):
        return None, None
    return owner, leaf


def _durations(spans):
    dur = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None and s["parent"] in child:
            child[s["parent"]] += dur[s["id"]]
    return dur, {i: dur[i] - child[i] for i in dur}


def _under(spans_by_id, span, name) -> bool:
    p = span["parent"]
    while p is not None:
        if spans_by_id[p]["name"] == name:
            return True
        p = spans_by_id[p]["parent"]
    return False


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one round's spans. Times are seconds busy per
    round; counts are per round."""
    by_id = {s["id"]: s for s in spans}
    dur, self_t = _durations(spans)

    def total(name, only=None):
        return sum(dur[s["id"]] for s in spans if s["name"] == name
                   and (only is None or only(s)))

    def own(name):
        return sum(self_t[s["id"]] for s in spans if s["name"] == name)

    def info_sum(name, key, only=None):
        return sum(s["info"].get(key, 0) for s in spans if s["name"] == name
                   and (only is None or only(s)))

    in_bsi = lambda s: _under(by_id, s, BSI_SPAN)
    m = {}
    m["relation.parse_s"] = total("relation.parse_edge_list")
    m["relation.semi_join_s"] = total("relation.semi_join")
    m["relation.index_s"] = (total("relation.build_indexed")
                             + total("relation.degree_stats"))
    m["relation.tuples_in"] = info_sum("relation.parse_edge_list", "n")
    m["relation.encode_s"] = total("relation.from_raw_pairs", in_bsi)

    m["optimizer.plan_s"] = sum(dur[s["id"]] for s in spans
                                if s["name"].startswith("optimizer."))
    head = head_plan(spans)
    m["optimizer.delta1"] = head[1] if head else 0
    m["optimizer.delta2"] = head[2] if head else 0
    m["optimizer.modeled_to_measured"] = _modeled_to_measured(spans, dur)

    joins = "joinproject.two_path_join"
    m["joinproject.two_path_self_s"] = own(joins)
    m["joinproject.heavy_build_s"] = total("joinproject.heavy_matrices")
    m["joinproject.star_self_s"] = own("joinproject.star_join")
    m["joinproject.decode_s"] = total("joinproject.decode")
    light = info_sum(joins, "light")
    heavy = info_sum(joins, "heavy")
    rows = info_sum(joins, "rows")
    m["joinproject.light_intermediate"] = light
    m["joinproject.heavy_pairs"] = heavy
    m["joinproject.output_rows"] = rows
    m["joinproject.useful_ratio"] = rows / (light + heavy) if light + heavy else 0.0

    mults = [s["info"] for s in spans if s["name"] == "matmul.multiply_counts"]
    m["matmul.multiply_s"] = total("matmul.multiply_counts")
    m["matmul.multiply_calls"] = len(mults)
    m["matmul.multiply_ops"] = sum(i["u"] * i["v"] * i["w"] for i in mults)
    # int64 operands and result, each touched once: a lower bound on traffic
    m["matmul.multiply_bytes"] = sum(
        8 * (i["u"] * i["v"] + i["v"] * i["w"] + i["u"] * i["w"]) for i in mults)
    m["matmul.calibrate_s"] = total("matmul.calibrate")

    m["apps.ssj_self_s"] = own("apps.ssj_mmjoin")
    m["apps.scj_self_s"] = own("apps.scj_join_project")
    apps_q = ("apps.ssj_mmjoin", "apps.scj_join_project")
    kept = sum(info_sum(n, "pairs") for n in apps_q)
    under_apps = lambda s: any(_under(by_id, s, n) for n in apps_q)
    join_rows = info_sum(joins, "rows", under_apps)
    m["apps.kept_ratio"] = kept / join_rows if join_rows else 0.0
    m["apps.bsi_batch_s"] = total(BSI_SPAN)
    m["apps.bsi_self_s"] = own(BSI_SPAN)
    answers = info_sum(BSI_SPAN, "answers")
    bsi_rows = info_sum(joins, "rows", in_bsi)
    m["apps.bsi_join_rows_per_answer"] = bsi_rows / answers if answers else 0.0

    m["cli.self_s"] = sum(self_t[s["id"]] for s in spans
                          if s["name"].startswith("cli."))
    return m


def head_plan(spans: list):
    """(strategy, delta1, delta2) of the first plan made outside BSI, i.e.
    for the workload's main join, or None."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"].startswith("optimizer.") and not _under(by_id, s, BSI_SPAN):
            i = s["info"]
            return (i["strategy"], i["delta1"], i["delta2"])
    return None


def _modeled_to_measured(spans, dur) -> float:
    """The first cost-based plan's modeled total (ns) over the measured time
    of the two-path join that ran it; 0 when no cost-based plan ran."""
    for i, s in enumerate(spans):
        if s["name"] == OPTIMIZED and s["info"]["strategy"] == "partitioned":
            join = next((t for t in spans[i + 1:]
                         if t["name"] == "joinproject.two_path_join"), None)
            if join is not None:
                return s["info"]["cost_ns"] / 1e9 / dur[join["id"]]
    return 0.0


def op_breakdown(spans: list, root_id: int) -> dict:
    """Self seconds per layer below one op's root span; the root's own self
    time (argument parsing and dispatch outside any layer) is the residue."""
    by_id = {s["id"]: s for s in spans}
    dur, self_t = _durations(spans)
    out = {"wall_s": dur[root_id], "residue_s": self_t[root_id]}
    for s in spans:
        if s["id"] == root_id:
            continue
        p = s["parent"]
        while p is not None and p != root_id:
            p = by_id[p]["parent"]
        if p == root_id:
            layer = s["name"].split(".")[0] + "_s"
            out[layer] = out.get(layer, 0.0) + self_t[s["id"]]
    return out


def median_metrics(rounds: list) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
