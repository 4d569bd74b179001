#!/usr/bin/env python3
"""Community-search query benchmark: SEA, Exact, VAC and the Spark front end.

Run from the repository root:

    python3 perfbench/run.py --workload fb-methods --seed 1 --seconds 40 --trace 0

One client runs a closed loop over a seeded stream of queries
``(graph, q, k, model, method)`` through the public entry points
``sea_search`` (no precomputed ``fvals``), ``exact_cs``, ``vac_search`` and
``sea_search_spark``. Query nodes are drawn by ``pick_queries`` (planted
community members whose coreness supports k); they are never filtered by
outcome. ``--seconds`` sets the size of the run, not a deadline: the seed
picks ``round(seconds * rate)`` distinct query nodes, where ``rate`` is the
workload's query nodes per second on a shared 4-vCPU x86 VM, and the loop
answers each of them once after an untimed warm-up on the first. The same
arguments therefore always attempt the same operations, however fast the
host runs. Every answer goes through the correctness gate in ``gate.py``; a
wrong answer makes the run exit with code 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each of the
first ``TRACE_QUERIES`` query nodes (at most half the run's, so that the
traced run does no more query work than the timed one) once untraced and,
right after, once with the span wrappers of ``spans.py`` installed, and
prints the per-layer metrics. On ``fb-methods`` it then starts Spark
(``jobs/_common.session``, master ``local[2]``), loads the graph, runs one
warm-up query and one traced ``sea_search_spark`` query, which give the
Spark front end's per-layer numbers. In the per-layer metrics "per query"
means per call of the method that owns the layer; the ``graphs.local``
numbers are per query node, summed over the methods run on it. A layer the
workload does not run reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

K = 4
# The facebook stand-in (repro.graphs.datasets.facebook_lite). The scale-up
# multiplies the community count and the cross links by the same factor.
FACEBOOK = dict(n_comms=28, comm_size=22, p_in=0.40, m_out=250, seed=101)
SPARK_MASTER = "local[2]"
TRACE_QUERIES = 16
SEA_METHODS = ("sea", "sea_truss", "sea_spark")
MODEL = {"sea": "core", "sea_truss": "truss", "exact": "core", "vac": "core",
         "sea_spark": "core"}


@dataclass(frozen=True)
class Workload:
    scale: int  # community count and cross links, times the facebook stand-in
    rate: float  # query nodes per second of --seconds
    methods: Tuple[str, ...]  # run in this order on each query node
    setup_reps: int  # graph set-ups per run; setup_s is their median
    trace_spark: bool = False  # the traced run also measures sea_search_spark


WORKLOADS = {
    "fb-methods": Workload(1, 2.25, ("sea", "sea_truss", "exact", "vac"), 11, trace_spark=True),
    "scale-75k": Workload(87, 0.4, ("sea",), 2),
}


@dataclass
class Rec:
    """One answered query, reduced to what the metrics and checks need."""

    method: str
    q: int
    ms: float
    group: str
    community: Optional[FrozenSet[int]] = None
    status: str = "ok"  # ok | failed | invalid
    ref_delta: Optional[float] = None
    info: Dict[str, float] = field(default_factory=dict)


@dataclass
class Ctx:
    wl: Workload
    graph: object
    gamma: float
    stats: object
    queries: List[int]
    ref: object = None
    truss_ok: Dict[int, bool] = field(default_factory=dict)
    spark: object = None
    ag: object = None
    setup: Dict[str, float] = field(default_factory=dict)
    seen: Dict[Tuple[str, int], Optional[FrozenSet[int]]] = field(default_factory=dict)
    problems: List[Tuple[str, str]] = field(default_factory=list)  # (status, message)

    def flag(self, rec: "Rec", status: str, message: str) -> None:
        rec.status = status
        self.problems.append((status, f"{rec.method} q={rec.q}: {message}"))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _spark_env(work: Path) -> None:
    """Keep the JVM's scratch files inside the checkout; quiet console."""
    w = shlex.quote(str(work))
    os.environ["SPARK_LOCAL_DIRS"] = str(work)
    os.environ["TMPDIR"] = str(work)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SPARK_MASTER} --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={w} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={work} -XX:-UsePerfData')} "
        "pyspark-shell"
    )


def n_queries(wl: Workload, seconds: float) -> int:
    return max(1, round(seconds * wl.rate))


def setup(wl: Workload, seed: int, n: int) -> Ctx:
    """Generate the graph, its norm stats and a list of n query nodes,
    ``setup_reps`` times; ``setup_s`` is the median."""
    from repro.experiments.harness import PreparedDataset, pick_queries
    from repro.graphs.generator import planted_homogeneous
    from repro.metrics import DEFAULT_GAMMA, norm_stats_local

    params = dict(FACEBOOK, n_comms=FACEBOOK["n_comms"] * wl.scale,
                  m_out=FACEBOOK["m_out"] * wl.scale)
    total, generate = [], []
    ctx = None
    for _ in range(wl.setup_reps):
        ctx = None  # free the previous graph before building the next
        gc.collect()
        t0 = time.perf_counter()
        gen = planted_homogeneous(**params)
        t1 = time.perf_counter()
        stats = norm_stats_local(gen.graph)
        prep = PreparedDataset("bench", gen, gen.graph, stats, DEFAULT_GAMMA)
        picked = pick_queries(prep, K, n, seed)
        total.append(time.perf_counter() - t0)
        generate.append(t1 - t0)
        ctx = Ctx(wl, gen.graph, DEFAULT_GAMMA, stats, picked)
    ctx.setup = {"setup_s": statistics.median(total),
                 "setup.generate_s": statistics.median(generate),
                 "setup.spark_start_s": 0.0, "setup.spark_load_s": 0.0,
                 "setup.spark_warmup_s": 0.0}
    return ctx


def start_spark(ctx: Ctx, work: Path, q: int) -> None:
    """Start the session, load the graph and run one warm-up query on q."""
    from jobs._common import session
    from repro.core import SEAParams, sea_search_spark
    from repro.graphs import AttributedGraph

    _spark_env(work)
    t0 = time.perf_counter()
    ctx.spark = session("perfbench")
    ctx.spark.sparkContext.setLogLevel("ERROR")
    t1 = time.perf_counter()
    ctx.ag = AttributedGraph.from_local(ctx.spark, ctx.graph).cache()
    ctx.ag.num_nodes()
    ctx.ag.num_edges()
    t2 = time.perf_counter()
    ctx.spark.sparkContext.setJobGroup("warmup", f"sea_spark q={q} (warm-up)")
    sea_search_spark(ctx.ag, q, SEAParams(k=K, gamma=ctx.gamma, seed=q))
    t3 = time.perf_counter()
    ctx.setup.update({"setup.spark_start_s": t1 - t0,
                      "setup.spark_load_s": t2 - t1,
                      "setup.spark_warmup_s": t3 - t2})


def stop_spark(spark) -> None:
    """Stop the session, close the gateway and wait for the JVM to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# the query loop
# ---------------------------------------------------------------------------


def run_query(ctx: Ctx, method: str, q: int):
    """The program's public entry point for ``method``."""
    from repro.baselines import vac_search
    from repro.core import SEAParams, exact_cs, sea_search, sea_search_spark

    if method in ("sea", "sea_truss"):
        p = SEAParams(k=K, gamma=ctx.gamma, model=MODEL[method], seed=q)
        return sea_search(ctx.graph, q, p, stats=ctx.stats)
    if method == "exact":
        return exact_cs(ctx.graph, q, K, gamma=ctx.gamma, stats=ctx.stats)
    if method == "vac":
        return vac_search(ctx.graph, q, K, gamma=ctx.gamma, stats=ctx.stats)
    if method == "sea_spark":
        return sea_search_spark(ctx.ag, q, SEAParams(k=K, gamma=ctx.gamma, seed=q))
    raise ValueError(method)


def check(ctx: Ctx, rec: Rec, res, err: Optional[str]) -> None:
    """The correctness gate for one answer (run outside the timed call)."""
    from gate import close, community_error

    model = MODEL[rec.method]
    if err is not None:
        ctx.flag(rec, "failed", f"raised\n{err}")
        return
    comm = res.community
    rec.community = frozenset(comm) if comm is not None else None
    key = (rec.method, rec.q)
    if key in ctx.seen and ctx.seen[key] != rec.community:
        ctx.flag(rec, "invalid", "answer changed on a repeat")
    ctx.seen.setdefault(key, rec.community)
    if rec.method in SEA_METHODS:
        rec.info = {
            "satisfied": float(res.satisfied), "gq_size": res.gq_size,
            "min_gq": res.min_gq, "s1_ms": res.sampling_s * 1e3,
            "s2_ms": res.estimation_s * 1e3, "s3_ms": res.incremental_s * 1e3,
            "rounds": len(res.rounds),
            "candidates": sum(r.n_candidates for r in res.rounds),
            "sample_final": res.rounds[-1].n_sample if res.rounds else 0,
        }
    elif rec.method == "exact":
        rec.info = {"states": res.states, "pruned_dup": res.pruned_duplicate,
                    "pruned_unpromising": res.pruned_unpromising}
        if res.capped:
            ctx.flag(rec, "failed", "capped")
            return
    if comm is None:
        if model == "core" or ctx.truss_ok.get(rec.q, True):
            ctx.flag(rec, "failed", "no community for a feasible query")
        return
    why = community_error(ctx.graph, rec.q, K, model, set(comm))
    if why is not None:
        ctx.flag(rec, "invalid", why)
        return
    rec.ref_delta = ctx.ref.delta(rec.q, set(comm))
    reported = res.delta_star if rec.method in SEA_METHODS else getattr(res, "delta", None)
    if reported is not None and not close(reported, rec.ref_delta):
        ctx.flag(rec, "invalid", f"reported delta {reported!r} != recomputed {rec.ref_delta!r}")


def check_optimum(ctx: Ctx, recs: List[Rec]) -> None:
    """No SEA or VAC k-core community may beat Exact's optimum."""
    by = {(r.method, r.q): r for r in recs if r.ref_delta is not None}
    for (method, q), r in by.items():
        ex = by.get(("exact", q))
        if ex is None or method not in ("sea", "vac"):
            continue
        if r.ref_delta < ex.ref_delta - 1e-12:
            ctx.flag(r, "invalid", f"delta {r.ref_delta!r} below Exact's {ex.ref_delta!r}")


def call(ctx: Ctx, method: str, q: int, group: str, tracer=None) -> Rec:
    """One query through one method, timed; then the gate (not timed)."""
    if ctx.spark is not None:
        ctx.spark.sparkContext.setJobGroup(group, f"{method} q={q}")
    if tracer is not None:
        tracer.begin(method)
    err = None
    start = time.perf_counter()
    try:
        res = run_query(ctx, method, q)
    except Exception:  # a failed query is counted, the loop goes on
        res, err = None, traceback.format_exc()
    ms = (time.perf_counter() - start) * 1e3
    if tracer is not None:
        tracer.end()
    rec = Rec(method, q, ms, group)
    check(ctx, rec, res, err)
    return rec


def run_pass(ctx: Ctx) -> List[Rec]:
    """Closed loop, one client: each query node through the workload's
    methods, after one untimed warm-up call of each method."""
    for method in ctx.wl.methods:
        try:
            run_query(ctx, method, ctx.queries[0])
        except Exception:
            pass  # the timed call on the same query counts it
    recs: List[Rec] = []
    for q in ctx.queries:
        for method in ctx.wl.methods:
            recs.append(call(ctx, method, q, f"q-{len(recs)}"))
    check_optimum(ctx, recs)
    return recs


def run_traced(ctx: Ctx, queries: List[int], methods: Tuple[str, ...], tracer,
               paired: bool = True) -> Tuple[List[Rec], List[Rec]]:
    """Each query once untraced (if ``paired``) and once with the span
    wrappers installed, back to back, so that host drift hits both alike."""
    from spans import Patches

    patches = Patches(tracer)
    untraced: List[Rec] = []
    traced: List[Rec] = []
    for q in queries:
        for method in methods:
            # alternate which goes first: the second call of a pair runs on
            # memory the first just freed
            untraced_first = len(traced) % 2 == 0
            if paired and untraced_first:
                untraced.append(call(ctx, method, q, f"u-{len(untraced)}"))
            with patches:
                traced.append(call(ctx, method, q, f"t-{len(traced)}", tracer))
            if paired and not untraced_first:
                untraced.append(call(ctx, method, q, f"u-{len(untraced)}"))
    check_optimum(ctx, untraced)
    check_optimum(ctx, traced)
    return untraced, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(xs: List[float]) -> Optional[Tuple[float, float]]:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    s = sorted(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * len(s))
        if rank >= 1 and len(s) - rank >= 10:
            return p, s[rank - 1]
    return None


def first_pass(ctx: Ctx, recs: List[Rec]) -> List[Rec]:
    """The answers to the distinct query nodes (the traced run asks twice)."""
    seen, out = set(), []
    for r in recs:
        if (r.method, r.q) not in seen:
            seen.add((r.method, r.q))
            out.append(r)
    return out


def latencies(recs: List[Rec], method: str) -> List[float]:
    return [r.ms for r in recs if r.method == method]


def accuracy(ctx: Ctx, recs: List[Rec]) -> Dict[str, float]:
    """Theorem-11 and SEA-vs-Exact figures over the distinct queries."""
    from repro.core import SEAParams

    e = SEAParams().e
    first = first_pass(ctx, recs)
    sea = [r for r in first if r.method in ("sea", "sea_spark")]
    exact = {r.q: r.ref_delta for r in first if r.method == "exact" and r.ref_delta}
    rel = [(r.ref_delta - exact[r.q]) / exact[r.q]
           for r in sea if r.q in exact and r.ref_delta is not None]
    return {
        "sea_satisfied_frac": sum(r.info.get("satisfied", 0.0) for r in sea) / len(sea),
        "compared": len(rel),
        "within_e": sum(1 for x in rel if x <= e),
        "rel_err_p50": statistics.median(rel) if rel else 0.0,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ctx: Ctx, recs: List[Rec]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The contract metrics, and report lines for every metric that applies."""
    busy_s = sum(r.ms for r in recs) / 1e3
    metrics = {
        "setup_s": (ctx.setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "queries_per_s": (len(recs) / busy_s, "1/s"),
        "sea_ms.p50": (statistics.median(latencies(recs, "sea")), "ms"),
    }
    lines = [f"{k} = {v!r} {u}" for k, (v, u) in metrics.items()]
    failed = sum(r.status != "ok" for r in recs)
    lines.append(f"failed_frac = {failed / len(recs)!r} frac  ({failed} of {len(recs)})")
    for name, method in (("sea_ms", "sea"), ("sea_truss_ms", "sea_truss"),
                         ("exact_ms", "exact"), ("vac_ms", "vac")):
        xs = latencies(recs, method)
        if not xs:
            continue
        if name != "sea_ms":
            lines.append(f"{name}.p50 = {statistics.median(xs)!r} ms  (n={len(xs)})")
        if method in ("sea", "exact"):
            t = tail(xs)
            lines.append(
                f"{name}.tail = {t[1]!r} ms  (p{t[0]:g}, n={len(xs)})" if t
                else f"{name}.tail = n/a  (n={len(xs)}: fewer than 20 samples)")
    acc = accuracy(ctx, recs)
    lines.append(f"sea_satisfied_frac = {acc['sea_satisfied_frac']!r} frac")
    if acc["compared"]:
        lines.append(f"sea_within_e_frac = {acc['within_e'] / acc['compared']!r} frac"
                     f"  ({acc['within_e']} of {acc['compared']})")
        lines.append(f"sea_rel_err.p50 = {acc['rel_err_p50']!r} frac")
    return metrics, lines


def per_layer(ctx: Ctx, untraced: List[Rec], traced: List[Rec], spark: List[Rec],
              tracer) -> Dict[str, Tuple[float, str]]:
    """``untraced`` and ``traced`` answer the same queries; ``spark`` holds
    the traced Spark query, if the workload has one."""
    T = tracer
    local = ctx.wl.methods
    nq = len(untraced) // len(local)
    calls = lambda m: sum(1 for r in traced + spark if r.method == m)  # noqa: E731
    div = lambda a, b: a / b if b else 0.0  # noqa: E731
    local_sea = ("sea", "sea_truss")
    n_local_sea = sum(calls(m) for m in local_sea)
    sea_recs = [r for r in untraced if r.method in local_sea and r.info]
    sea_mean = lambda key: div(sum(r.info[key] for r in sea_recs), len(sea_recs))  # noqa: E731
    ex = [r for r in untraced if r.method == "exact" and r.info]
    ex_mean = lambda key: div(sum(r.info[key] for r in ex), len(ex))  # noqa: E731
    n_spark = calls("sea_spark")
    spark_ms = lambda *names: div(sum(T.sum(n, roots=("sea_spark",)) for n in names), n_spark)  # noqa: E731
    gq_total = sum(r.info["gq_size"] for r in traced if r.method in local_sea and r.info)
    roots = [t for (r, p, n), t in T.totals.items() if p == "" and r == n]
    root_ms = sum(t.ms for t in roots)
    jobs, stages, tasks = spark_counts(ctx, spark)
    med = lambda m: statistics.median(latencies(untraced + spark, m)) if calls(m) else 0.0  # noqa: E731
    acc = accuracy(ctx, untraced)
    m = {
        "distance.ms_per_query": (div(T.sum("distance", roots=local_sea), n_local_sea), "ms"),
        "distance.nodes_per_query": (div(T.sum("distance", "items", roots=local_sea), n_local_sea), "count"),
        "distance.share": (div(T.sum("distance", roots=local_sea),
                               sum(T.sum(r, roots=(r,), parent="") for r in local_sea)), "frac"),
        "distance.useful_ratio": (div(gq_total, T.sum("distance", "items", roots=local_sea)), "frac"),
        "gq.size": (sea_mean("gq_size"), "count"),
        "gq.min": (sea_mean("min_gq"), "count"),
        "sea.s1_ms": (sea_mean("s1_ms"), "ms"),
        "sea.s2_ms": (sea_mean("s2_ms"), "ms"),
        "sea.s3_ms": (sea_mean("s3_ms"), "ms"),
        "sea.rounds": (sea_mean("rounds"), "count"),
        "sea.candidates": (sea_mean("candidates"), "count"),
        "sea.sample_final": (sea_mean("sample_final"), "count"),
        "blb.calls": (div(T.sum("blb", "calls", roots=local_sea), n_local_sea), "count"),
        "blb.ms": (div(T.sum("blb", roots=local_sea), n_local_sea), "ms"),
        "kcore_maint.calls": (div(T.sum("kcore_maint", "calls", roots=local), nq), "count"),
        "kcore_maint.ms": (div(T.sum("kcore_maint", roots=local), nq), "ms"),
        "kcore_maint.cc_ms": (div(T.sum("connected_component", "self_ms", local, "kcore_maint"), nq), "ms"),
        "ktruss_maint.calls": (div(T.sum("ktruss_maint", "calls", roots=local), nq), "count"),
        "ktruss_maint.ms": (div(T.sum("ktruss_maint", roots=local), nq), "ms"),
        "maximal_kcore.ms": (div(T.sum("maximal_kcore", roots=local), nq), "ms"),
        "exact.states": (ex_mean("states"), "count"),
        "exact.pruned_dup": (ex_mean("pruned_dup"), "count"),
        "exact.pruned_unpromising": (ex_mean("pruned_unpromising"), "count"),
        "exact.us_per_state": (div(sum(r.ms for r in ex) * 1e3, sum(r.info["states"] for r in ex)), "us"),
        "vac.pair_distance.calls": (div(T.sum("vac.pair_distance", "calls"), calls("vac")), "count"),
        "vac.pair_distance.ms": (div(T.sum("vac.pair_distance"), calls("vac")), "ms"),
        "spark.norm_stats_ms": (spark_ms("spark.norm_stats"), "ms"),
        "spark.bfs_ms": (spark_ms("spark.bfs"), "ms"),
        "spark.collect_ms": (spark_ms("spark.induced", "spark.to_pandas", "local.from_edges"), "ms"),
        "spark.driver_loop_ms": (spark_ms("sea.driver_loop"), "ms"),
        "spark.jobs": (div(jobs, n_spark), "count"),
        "spark.stages": (div(stages, n_spark), "count"),
        "spark.tasks": (div(tasks, n_spark), "count"),
    }
    for k in ("setup.generate_s", "setup.spark_start_s", "setup.spark_load_s", "setup.spark_warmup_s"):
        m[k] = (ctx.setup[k], "s")
    m["trace.overhead"] = (div(sum(r.ms for r in traced) - sum(r.ms for r in untraced), len(traced)), "ms")
    m["trace.coverage"] = (1.0 - div(sum(t.self_ms for t in roots), root_ms), "frac")
    for name, method in (("sea_truss_ms.p50", "sea_truss"), ("exact_ms.p50", "exact"),
                         ("vac_ms.p50", "vac"), ("sea_spark_ms.p50", "sea_spark")):
        m[name] = (med(method), "ms")
    m["sea_satisfied_frac"] = (acc["sea_satisfied_frac"], "frac")
    m["sea_vs_exact.compared"] = (acc["compared"], "count")
    m["sea_vs_exact.within_e"] = (acc["within_e"], "count")
    m["sea_vs_exact.rel_err_p50"] = (acc["rel_err_p50"], "frac")
    return m


def spark_counts(ctx: Ctx, recs: List[Rec]) -> Tuple[int, int, int]:
    """Jobs, stages run and tasks completed, from the status tracker, over
    the job groups of ``recs``."""
    if ctx.spark is None:
        return 0, 0, 0
    st = ctx.spark.sparkContext.statusTracker()
    jobs = stages = tasks = 0
    for r in recs:
        ids = st.getJobIdsForGroup(r.group)
        jobs += len(ids)
        stage_ids = {s for j in ids if (info := st.getJobInfo(j)) for s in info.stageIds}
        for s in stage_ids:
            info = st.getStageInfo(s)
            if info is not None and info.numCompletedTasks > 0:
                stages += 1
                tasks += info.numCompletedTasks
    return jobs, stages, tasks


def layer_shares(tracer) -> List[str]:
    """For the report: the share of each root span's wall time spent in
    each kind of direct child span."""
    out = []
    roots = {r: t.ms for (r, p, n), t in tracer.totals.items() if p == "" and r == n}
    for root, total in sorted(roots.items()):
        kids = {}
        for (r, p, n), t in tracer.totals.items():
            if r == root and p == root:
                kids[n] = kids.get(n, 0.0) + t.ms
        parts = ", ".join(f"{n} {ms / total:.1%}" for n, ms in sorted(kids.items(), key=lambda x: -x[1]))
        out.append(f"layers under {root}: {parts}")
    return out


def size_sweep(seed: int, seconds: float, big: Ctx, recs: List[Rec]) -> str:
    """SEA k-core p50 on this graph against the facebook stand-in, whose
    queries (the fb-methods list for the same arguments) are run here,
    after the timed loop."""
    wl = WORKLOADS["fb-methods"]
    fb = setup(wl, seed, n_queries(wl, seconds))
    fb_ms, fb_gq = [], []
    for q in fb.queries:
        t0 = time.perf_counter()
        r = run_query(fb, "sea", q)
        fb_ms.append((time.perf_counter() - t0) * 1e3)
        fb_gq.append(r.gq_size)
    big_ms = statistics.median(latencies(recs, "sea"))
    big_gq = statistics.median(r.info["gq_size"] for r in recs if r.method == "sea" and r.info)
    return (f"size sweep: sea_ms.p50 {big_ms:.1f} ms at {big.graph.num_nodes} nodes "
            f"(median |G_q| {big_gq:g}) / {statistics.median(fb_ms):.1f} ms at "
            f"{fb.graph.num_nodes} nodes (median |G_q| {statistics.median(fb_gq):g}) "
            f"= {big_ms / statistics.median(fb_ms):.2f}x")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="query-selection seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="size of the run, in seconds of work on the reference host")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"perfbench: no program sources (src/repro, jobs/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from gate import Reference, digest, truss_feasible
    from spans import Tracer

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    ctx = None
    try:
        ctx = setup(wl, args.seed, n_queries(wl, args.seconds))
        ctx.ref = Reference(ctx.graph, ctx.gamma)
        if "sea_truss" in wl.methods:
            ctx.truss_ok = truss_feasible(ctx.graph, ctx.queries, K)
        print(f"workload {args.workload}: {ctx.graph.num_nodes} nodes, "
              f"{ctx.graph.num_edges} edges, k={K}, queries {ctx.queries}")
        if args.trace == 0:
            recs = run_pass(ctx)
            metrics, lines = end_to_end(ctx, recs)
            print("\n".join(lines))
            if args.workload == "scale-75k":
                print(size_sweep(args.seed, args.seconds, ctx, recs))
        else:
            tracer = Tracer()
            n_traced = min(TRACE_QUERIES, max(1, len(ctx.queries) // 2))
            untraced, traced = run_traced(ctx, ctx.queries[:n_traced], wl.methods, tracer)
            spark: List[Rec] = []
            if wl.trace_spark:
                work.mkdir(parents=True, exist_ok=True)
                start_spark(ctx, work, ctx.queries[-1])
                _, spark = run_traced(ctx, ctx.queries[:1], ("sea_spark",), tracer, paired=False)
            recs = untraced + traced + spark
            metrics = per_layer(ctx, untraced, traced, spark, tracer)
            for k, (v, u) in metrics.items():
                print(f"{k} = {v!r} {u}")
            print("\n".join(layer_shares(tracer)))
        first = first_pass(ctx, recs)
        print(f"digest {digest([(r.method, r.q, r.community) for r in first])} "
              f"over {len(first)} answers")
        ex = [r for r in first if r.method == "exact" and r.info]
        if ex:
            print("exact counts: " + ", ".join(
                f"{k} {sum(r.info[k] for r in ex):g}" for k in ("states", "pruned_dup", "pruned_unpromising")))
    finally:
        if ctx is not None and ctx.spark is not None:
            stop_spark(ctx.spark)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(r.status != "ok" for r in recs)
    correct = all(status != "invalid" for status, _ in ctx.problems)
    for status, message in ctx.problems:
        print(f"{status}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
