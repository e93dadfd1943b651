"""End-to-end benchmark for mmjoin: edge-list files to sorted CLI output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload community --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Workloads (one process, one client each):

* community -- dense, high-sharing graph; the regime the heavy/light split
  targets. join = `mmjoin twopath --auto-plan` on a 600-node, 3-community,
  p=0.9 graph; join2 = a k=3 `mmjoin star` with fixed deltas on a 120-node
  graph; the BSI stream asks "do nodes a and b share a neighbour" there.
* sets -- a family of 1000 sets over a universe of 500, sizes 1..40; the
  low-sharing regime (full join under 2x the output, most of it from the
  light passes). join = `mmjoin ssj --method mmjoin --c 3`; join2 =
  `mmjoin scj`; the BSI stream queries the family.

A skewed Zipf self-join workload was tried and left out: its commands are
dominated by allocation-heavy Python (formatting and sorting ~700k output
lines), and their ten-seed spread stayed above the largest allowed bound
on a shared 2-vCPU VM.

The CLI commands run in a closed loop, in process, through click; each takes
the files on disk to sorted lines captured in memory. A round runs every
command once and then one BSI stream; rounds repeat until `--seconds` is
spent. The BSI stream is an open loop on a virtual clock: query i arrives at
i / rate, a batch is complete when its last query has arrived, it starts at
max(that time, the previous batch's completion) and takes the measured wall
time of `apps.bsi_answer_batch`. The batch size and rate are pinned (the
rate at a fifth to two fifths of the capacity measured when the benchmark
was written, so a slow stretch of the machine does not start a backlog)
instead of `apps.bsi_batch_size`, which asks for batches of 10k+ queries at
these sizes, and the clock is kept here instead of `apps.bsi_simulate`,
which ignores the backlog when a batch takes longer than the next one takes
to fill.

Every workload reports every end-to-end metric, so the command metrics are
named by role: join_s and join2_s are the median wall seconds of the
workload's two commands above. setup_s is the median over repeats of the
work done once before the first timed op (calibration for --auto-plan plus
loading the BSI relation; loading the family on sets). bsi_p50_s and
bsi_p99_s are per-query latencies and peak_rss_mib is the process's
high-water resident memory after the first round (one pass of every op). BSI capacity (batch size
over the median batch seconds) is printed and written to the detail file
but not declared: it is the raw speed of ~50 ms batches of allocation-heavy
Python, and on a shared VM its run-to-run spread exceeded every allowed
bound, whereas p50 and p99 also carry the deterministic batch fill time. The error rate is failed / attempted in the
result line. Sizes are chosen so that each command takes about a second at
the commit that added the benchmark: on a shared 2-vCPU VM the CPU speed
drifts by up to 2x over seconds, and many short samples spread over a run
steady the medians better than a few long ones. In a traced run, layer
times are busy seconds per round (median over rounds) and counts are per
round.

Every output is checked outside the timed window against an independent
reference (reference.py). An op that raises or mismatches counts in
`failed` and its time is not used. The last stdout line is the JSON result;
the lines before it and the files in `.perfbench_out/` hold the environment,
the measured workload properties, per-command sample counts, and in a traced
run (`--trace 1`) the per-layer breakdown and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# One BLAS thread, set before numpy loads OpenBLAS: its worker threads
# busy-wait after every call and compete with the single-threaded Python
# code that dominates every op. On a 2-vCPU VM that made whole runs up to
# 2x slower or faster depending on where the host placed the vCPUs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9

SIZES = {
    "full": {
        "community": dict(nodes=600, star_nodes=120, communities=3, prob=0.9,
                          star_delta=20, bsi_batch=500, bsi_rate=3000.0,
                          bsi_batches=8),
        "sets": dict(sets=1000, universe=500, max_size=40, c=3,
                     bsi_batch=500, bsi_rate=600.0, bsi_batches=6),
    },
    "tiny": {
        "community": dict(nodes=60, star_nodes=30, communities=3, prob=0.9,
                          star_delta=5, bsi_batch=20, bsi_rate=200.0,
                          bsi_batches=2),
        "sets": dict(sets=100, universe=50, max_size=10, c=2,
                     bsi_batch=20, bsi_rate=200.0, bsi_batches=2),
    },
}

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")

# Layer times that are zero by construction on some workload (star runs only
# on community, SSJ/SCJ only on sets, calibration is set-up work, and the BSI
# rate is pinned below capacity so the queue is normally empty). They are
# printed and written to the detail file but not declared in BENCHMARK.json.
DETAIL_ONLY = ("joinproject.star_self_s", "matmul.calibrate_s",
               "apps.ssj_self_s", "apps.scj_self_s", "bench.bsi_queue_wait_s")


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    with open(BENCHMARK, encoding="utf-8") as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_program():
    """Import mmjoin from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "mmjoin", "__init__.py")):
        print("perfbench: src/mmjoin not found; run from the root of a "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import mmjoin
    if not os.path.abspath(mmjoin.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported mmjoin from {mmjoin.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


@dataclass
class CliOp:
    metric: str
    argv: list
    expected: Callable[[], str]


@dataclass
class BsiStream:
    pairs: object
    batch: int
    rate: float
    batches: int


@dataclass
class Workload:
    ops: list
    bsi: BsiStream
    setup: Callable[[], object]
    properties: Callable[[Optional[tuple]], dict]
    character: Callable[[dict], list]


def _community(rng, work, z):
    from mmjoin import matmul
    from mmjoin.relation import build_indexed, parse_edge_list
    big = gen.community(rng, z["nodes"], z["communities"], z["prob"])
    small = gen.community(rng, z["star_nodes"], z["communities"], z["prob"])
    big_path = os.path.join(work, "community.txt")
    small_path = os.path.join(work, "star.txt")
    cal = os.path.join(work, "calibration.tsv")
    big.write(big_path)
    small.write(small_path)

    def setup():
        matmul.calibrate().save(cal)
        with open(small_path, encoding="utf-8") as f:
            return build_indexed(parse_edge_list(f))

    d = str(z["star_delta"])
    star_expected = functools.cache(lambda: ref.star_text(small, 3))
    ops = [CliOp("join_s", ["twopath", "--left", big_path, "--right", big_path,
                            "--auto-plan", "--calibration", cal],
                 lambda: ref.twopath_text(big, big)),
           CliOp("join2_s", ["star"] + ["--input", small_path] * 3
                 + ["--delta1", d, "--delta2", d],
                 star_expected)]

    def properties(plan):
        star_rows = star_expected().count("\n")
        return {"twopath": ref.twopath_properties(big, big, plan),
                "star": ref.star_properties(small, 3, star_rows)}

    def character(props):
        tp = props["twopath"]
        bad = []
        if tp["sharing"] < 50:
            bad.append(f"community twopath sharing {tp['sharing']:.1f} < 50")
        if tp["heavy_share"] is not None and tp["heavy_share"] < 0.99:
            bad.append(f"community heavy share {tp['heavy_share']:.3f} < 0.99")
        return bad

    bsi = BsiStream(small, z["bsi_batch"], z["bsi_rate"], z["bsi_batches"])
    return Workload(ops, bsi, setup, properties, character)


def _sets(rng, work, z):
    from mmjoin.relation import build_indexed, parse_edge_list
    fam = gen.set_family(rng, z["sets"], z["universe"], z["max_size"])
    path = os.path.join(work, "sets.txt")
    fam.write(path)

    def setup():
        with open(path, encoding="utf-8") as f:
            return build_indexed(parse_edge_list(f))

    ops = [CliOp("join_s", ["ssj", "--sets", path, "--c", str(z["c"]),
                            "--method", "mmjoin"],
                 lambda: ref.ssj_text(fam, z["c"])),
           CliOp("join2_s", ["scj", "--sets", path], lambda: ref.scj_text(fam))]
    bsi = BsiStream(fam, z["bsi_batch"], z["bsi_rate"], z["bsi_batches"])
    return Workload(ops, bsi, setup,
                    lambda plan: {"ssj_join": ref.twopath_properties(fam, fam, plan)},
                    lambda props: [])


BUILDERS = {"community": _community, "sets": _sets}


def _invoke(argv):
    from mmjoin import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main.main(args=argv, prog_name="mmjoin", standalone_mode=False)
    return buf.getvalue()


def run_cli(op, texts, tracer=None) -> dict:
    """Time one CLI command. Outputs are kept once per distinct digest in
    `texts`, so repeated identical outputs cost no memory."""
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            text = _invoke(op.argv)
        else:
            text = tracer.call("bench.op", _invoke, (op.argv,))
        error = None
    except Exception as exc:  # a failed op is counted, the run goes on
        text, error = "", f"{type(exc).__name__}: {exc}"
    seconds = (time.perf_counter_ns() - t0) / 1e9
    digest = hashlib.sha1(text.encode()).hexdigest()
    texts.setdefault((op.metric, digest), text)
    return {"metric": op.metric, "s": seconds, "digest": digest,
            "rows": text.count("\n"), "error": error,
            "traced": tracer is not None}


def run_bsi(stream, idx, qa, qb, tracer=None) -> list:
    """One open-loop stream on the virtual clock; one record per batch."""
    from mmjoin import apps
    names = stream.pairs.left_names
    arrivals = np.arange(len(qa)) / stream.rate
    done = 0.0
    out = []
    for lo in range(0, len(qa), stream.batch):
        hi = min(lo + stream.batch, len(qa))
        batch = [(names[a], names[b])
                 for a, b in zip(qa[lo:hi].tolist(), qb[lo:hi].tolist())]
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                answers = apps.bsi_answer_batch(idx, idx, batch)
            else:
                answers = tracer.call("bench.bsi_batch", apps.bsi_answer_batch,
                                      (idx, idx, batch))
            error = None
        except Exception as exc:  # a failed batch is counted, the run goes on
            answers, error = None, f"{type(exc).__name__}: {exc}"
        proc = (time.perf_counter_ns() - t0) / 1e9
        fill = arrivals[hi - 1]
        start = max(fill, done)
        done = start + proc
        out.append({"lo": lo, "hi": hi, "s": proc, "done": done,
                    "answers": answers,
                    "error": error, "latency": done - arrivals[lo:hi],
                    "queue_wait_s": start - fill, "traced": tracer is not None})
    return out


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def run_workload(name, seed, seconds, trace, size="full", corrupt=None):
    """Generate, set up, measure and verify one workload.

    `corrupt`, used only by the self-check, edits the first captured output
    of each command and the first BSI answer list before verification.
    Returns (result line dict, detail dict).
    """
    rng = np.random.default_rng(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        w = BUILDERS[name](rng, work, SIZES[size][name])
        tracer = tracing.Tracer() if trace else None

        setup_s, setup_spans = [], []

        def timed_setup(t=None):
            t0 = time.perf_counter_ns()
            if t is None:
                built = w.setup()
            else:
                with t.installed():
                    start = len(t.spans)
                    built = w.setup()
                    setup_spans.append(t.spans[start:])
            setup_s.append((time.perf_counter_ns() - t0) / 1e9)
            return built

        for _ in range(SETUP_REPEATS):
            idx = timed_setup(tracer)

        qrng = np.random.default_rng([seed, 1])
        ids = np.unique(w.bsi.pairs.left)
        cli_samples, batches, rounds, texts = [], [], [], {}

        def one_pass(rec, t):
            """Every command once, then one BSI stream; traced if `t`."""
            first, roots = len(t.spans) if t else 0, []
            for op in w.ops:
                if t:
                    roots.append(len(t.spans))
                cli_samples.append(run_cli(op, texts, t))
            stream = run_bsi(w.bsi, idx, rec["qa"], rec["qb"], t)
            for b in stream:
                b["round"] = len(rounds)
            batches.extend(stream)
            if t:
                rec.update(spans=t.spans[first:], roots=roots,
                           rows_out=sum(s["rows"] for s in cli_samples[-len(w.ops):]))
            else:
                rec["untraced_bsi"] = stream

        t_start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            if rounds:
                # set-up is idempotent; repeating it once per round spreads
                # its samples over the run, so that one slow stretch of the
                # machine does not decide the median
                timed_setup()
            n_q = w.bsi.batch * w.bsi.batches
            rec = {"qa": qrng.choice(ids, n_q), "qb": qrng.choice(ids, n_q)}
            if tracer is None:
                one_pass(rec, None)
            elif len(rounds) % 2 == 0:  # alternate which pass goes first
                one_pass(rec, None)
                with tracer.installed():
                    one_pass(rec, tracer)
            else:
                with tracer.installed():
                    one_pass(rec, tracer)
                one_pass(rec, None)
            rounds.append(rec)
            if len(rounds) == 1:
                # after one pass of every op: later rounds only add heap
                # fragmentation, so a later reading would track run length
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # start another round only if at least half of it fits
            remaining = seconds - (time.perf_counter() - t_start)
            if remaining < (time.perf_counter() - r0) / 2:
                break

        if corrupt is not None:
            for op in w.ops:
                first = next(s for s in cli_samples if s["metric"] == op.metric)
                bad = corrupt(op.metric, texts[(op.metric, first["digest"])])
                first["digest"] = hashlib.sha1(bad.encode()).hexdigest()
                texts[(op.metric, first["digest"])] = bad
            batches[0]["answers"] = corrupt("bsi", batches[0]["answers"])

        # verification, outside the timed window
        verdicts, problems = {}, []
        for op in w.ops:
            expected = None
            for s in cli_samples:
                if s["metric"] != op.metric or s["error"]:
                    continue
                key = (op.metric, s["digest"])
                if key not in verdicts:
                    expected = expected if expected is not None else op.expected()
                    verdicts[key] = texts[key] == expected
                    if not verdicts[key]:
                        problems.append(f"{op.metric}: {ref.diagnose(texts[key], expected)}")
                s["ok"] = verdicts[key]
        for s in cli_samples:
            if s["error"]:
                s["ok"] = False
                problems.append(f"{s['metric']}: {s['error']}")
        inc = ref.incidence(w.bsi.pairs)
        for b in batches:
            if b["error"] is None:
                rr = rounds[b["round"]]
                want = ref.bsi_answers(inc, rr["qa"][b["lo"]:b["hi"]],
                                       rr["qb"][b["lo"]:b["hi"]])
                b["ok"] = b["answers"] == want
                if not b["ok"]:
                    problems.append("bsi: answers differ from the reference")
            else:
                b["ok"] = False
                problems.append(f"bsi: {b['error']}")

        attempted = len(cli_samples) + len(batches)
        failed = (sum(not s["ok"] for s in cli_samples)
                  + sum(not b["ok"] for b in batches))

        plan = tracing.head_plan(rounds[0]["spans"]) if tracer else None
        props = w.properties(plan)
        character = w.character(props)

        detail = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "size": size, "env": environment(seed),
                  "properties": props, "character": character or "as designed",
                  "rounds": len(rounds), "attempted": attempted,
                  "failed": failed, "error_rate": failed / attempted,
                  "problems": problems[:20]}
        ops_detail = {}
        for op in w.ops:
            ok_u = [s["s"] for s in cli_samples
                    if s["metric"] == op.metric and s["ok"] and not s["traced"]]
            ops_detail[op.metric] = {"argv": op.argv[0], "samples": len(ok_u),
                                     "median_s": _median(ok_u),
                                     "min_s": min(ok_u, default=0.0),
                                     "max_s": max(ok_u, default=0.0),
                                     "samples_s": ok_u}
        detail["ops"] = ops_detail

        good = [b for b in batches if b["ok"] and not b["traced"]]
        lat = np.concatenate([b["latency"] for b in good]) if good else []
        proc = [b["s"] for b in good]
        detail["bsi"] = {"batch": w.bsi.batch, "rate_qps": w.bsi.rate,
                         "batches": len(good), "queries": len(lat),
                         "median_batch_s": _median(proc),
                         "batch_s": proc,
                         "capacity_qps": w.bsi.batch / _median(proc) if proc else 0.0,
                         "max_queue_wait_s": max((b["queue_wait_s"] for b in good),
                                                 default=0.0)}
        if tracer is not None:
            traced = _median([b["s"] for b in batches if b["ok"] and b["traced"]])
            detail["bsi"]["traced_median_batch_s"] = traced
            detail["bsi"]["overhead_s"] = traced - _median(proc)

        if tracer is None:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "join_s": ops_detail["join_s"]["median_s"],
                "join2_s": ops_detail["join2_s"]["median_s"],
                "bsi_p50_s": _quantile(lat, 0.5),
                "bsi_p99_s": _quantile(lat, 0.99),
                "peak_rss_mib": peak_rss_mib,
            }
        else:
            metrics, traced_detail = _traced_metrics(
                rounds, setup_spans, cli_samples, w)
            detail["trace_ops"] = traced_detail
            detail["missing"] = tracer.missing
            _write_json(_out_path(name, seed, trace, "spans"), tracer.spans)
        detail["metrics"] = metrics
        _write_json(_out_path(name, seed, trace, "detail"), detail)
        declared = declared_metrics()["per_layer" if trace else "end_to_end"]
        result = {"correct": failed == 0 and attempted > 0,
                  "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": metrics[k], "unit": u}
                              for k, u in declared.items()}}
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _traced_metrics(rounds, setup_spans, cli_samples, w):
    per_round, ops = [], {op.metric: [] for op in w.ops}
    calibrate = [tracing.layer_metrics(sp)["matmul.calibrate_s"] for sp in setup_spans]
    for r in rounds:
        m = tracing.layer_metrics(r["spans"])
        m["matmul.calibrate_s"] = _median(calibrate)
        m["cli.rows_out"] = r["rows_out"]
        untraced = r["untraced_bsi"]
        n_q = sum(b["hi"] - b["lo"] for b in untraced)
        m["bench.bsi_queue_wait_s"] = sum(
            b["queue_wait_s"] * (b["hi"] - b["lo"]) for b in untraced) / n_q
        m["bench.bsi_busy_share"] = (sum(b["s"] for b in untraced)
                                     / untraced[-1]["done"])
        per_round.append(m)
        for op, root in zip(w.ops, r["roots"]):
            ops[op.metric].append(tracing.op_breakdown(r["spans"], root))
    detail = {}
    for op in w.ops:
        untraced = [s["s"] for s in cli_samples
                    if s["metric"] == op.metric and s["ok"] and not s["traced"]]
        layers = tracing.median_metrics(
            [{k: b.get(k, 0.0) for k in set().union(*ops[op.metric])}
             for b in ops[op.metric]])
        detail[op.metric] = {"untraced_s": _median(untraced),
                             "traced_s": layers["wall_s"],
                             "overhead_s": layers["wall_s"] - _median(untraced),
                             "layers_self_s": layers}
    return tracing.median_metrics(per_round), detail


def _out_path(name, seed, trace, kind):
    return os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}-{kind}.json")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, default=_jsonable)


def _jsonable(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    return repr(o)


def environment(seed) -> dict:
    from mmjoin.matmul import INT_BACKEND, core
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             timeout=10, capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mmjoin", "**", "*.py*"),
                                 recursive=True)):
        with open(path, "rb") as f:
            src.update(f.read())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "int_backend": INT_BACKEND,
            "compiled_kernel": core._kernel_cy is not None,
            "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed}


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or the env setting."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        with contextlib.suppress(OSError, AttributeError):
            return int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def self_check() -> int:
    """Tiny-size run of every op, traced and untraced, then proof that the
    verifier counts a dropped row, an off-by-one count and a flipped BSI
    answer as failures, and that a vanished wrapped name is only reported."""
    ok = True

    def expect(cond, msg):
        nonlocal ok
        print(("PASS " if cond else "FAIL ") + msg)
        ok = ok and cond

    for name in BUILDERS:
        for trace in (0, 1):
            res, detail = run_workload(name, 3, 0, trace, size="tiny")
            expect(res["correct"] and res["failed"] == 0,
                   f"{name} trace={trace}: {res['attempted']} ops verified")
            want = set(declared_metrics()["per_layer" if trace else "end_to_end"])
            expect(set(res["metrics"]) == want,
                   f"{name} trace={trace}: reports every declared metric")
            if trace:
                expect(all(k in detail["metrics"] for k in DETAIL_ONLY),
                       f"{name}: detail-only layer metrics are reported")

    def corrupt(metric, out):
        if metric == "bsi":
            return [not out[0]] + out[1:]
        lines = out.splitlines()
        if metric == "join2_s" or len(lines[0].split()) == 2:
            return "\n".join(lines[1:]) + "\n"  # one row dropped
        a, b, cnt = lines[0].split()
        lines[0] = f"{a} {b} {int(cnt) + 1}"  # one count off by one
        return "\n".join(lines) + "\n"

    for name in BUILDERS:
        res, _ = run_workload(name, 3, 0, 0, size="tiny", corrupt=corrupt)
        expect(not res["correct"] and res["failed"] == 3,
               f"{name}: corrupted join, join2 and BSI outputs counted as "
               f"{res['failed']} failures")

    tracing.TARGETS.append(("joinproject", "renamed_away", "joinproject.gone", None))
    try:
        res, detail = run_workload("sets", 3, 0, 1, size="tiny")
    finally:
        tracing.TARGETS.pop()
    expect(res["correct"] and "joinproject.renamed_away" in detail["missing"],
           "a wrapped name that no longer exists is reported as missing")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    load_program()
    if args.self_check:
        sys.exit(self_check())
    if args.workload is None:
        ap.error("--workload is required")
    res, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _summarize(detail)
    print(json.dumps(res))


def _summarize(d):
    print(f"env: {json.dumps(d['env'])}")
    print(f"properties: {json.dumps(d['properties'])}  character: {d['character']}")
    print(f"rounds={d['rounds']} attempted={d['attempted']} failed={d['failed']} "
          f"error_rate={d['error_rate']:.4f}")
    for metric, o in d["ops"].items():
        print(f"{metric} ({o['argv']}): median {o['median_s']:.4f} s over "
              f"{o['samples']} samples, min {o['min_s']:.4f}, max {o['max_s']:.4f}")
    b = d["bsi"]
    print(f"bsi: batch {b['batch']} at {b['rate_qps']:.0f} q/s, {b['batches']} "
          f"batches, {b['queries']} queries, max queue wait "
          f"{b['max_queue_wait_s']:.4f} s, median batch {b['median_batch_s']:.4f} s, "
          f"capacity {b['capacity_qps']:.0f} q/s")
    if "overhead_s" in b:
        print(f"trace bsi batch: untraced {b['median_batch_s']:.4f} s, traced "
              f"{b['traced_median_batch_s']:.4f} s, overhead {b['overhead_s']:+.4f} s")
    for metric, o in d.get("trace_ops", {}).items():
        layers = " ".join(f"{k}={v:.4f}" for k, v in sorted(o["layers_self_s"].items()))
        print(f"trace {metric}: untraced {o['untraced_s']:.4f} s, traced "
              f"{o['traced_s']:.4f} s, overhead {o['overhead_s']:+.4f} s; {layers}")
    if d["trace"]:
        print("layers (per round, median over rounds): " + " ".join(
            f"{k}={v:.6g}" for k, v in d["metrics"].items()))
    if d.get("missing"):
        print(f"missing wrapped names: {', '.join(d['missing'])}")
    for p in d["problems"]:
        print(f"problem: {p}")


if __name__ == "__main__":
    main()
