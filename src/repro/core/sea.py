"""SEA: the sampling-estimation approximate CS method (§V) + extensions.

Pipeline (Fig. 4):

1. **Sampling-based maximal H̃_k finding** — Hoeffding minimum |G_q|
   (:mod:`.hoeffding`), attribute-prioritised BFS from q to build G_q,
   weighted sampling with P_s ∝ 1−f (Eq. 5), maximal connected k-core
   (or k-truss) of the induced sample graph;
2. **Estimation with accuracy guarantee** — BLB margin of error per
   candidate (:mod:`.estimation`), early termination when Theorem 11
   holds, greedy peeling of the most dissimilar node otherwise;
3. **Error-based incremental sampling** — Eq. 12 sizes ΔS; the loop
   re-samples and repeats, at most ``max_rounds`` times (the paper
   observes N_e ≤ 5, usually ≤ 2).

Two front ends share the sample-estimate loop: :func:`sea_search` is the
all-local path used by the per-query experiment harnesses, while
:func:`sea_search_spark` runs the bulk reads (norm stats, the neighbourhood
BFS layers with their f(·,q), the G_q-induced edges) as filtered Spark
collects; weighted sampling and everything after it run on the driver —
the same split the complexity analysis of §V-D assumes. Both front ends
evaluate f(·,q) only for the nodes their BFS reaches: :func:`sea_search`
computes it lazily as its best-first BFS grows G_q,
:func:`sea_search_spark` filters the distance frame to each new BFS layer.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.local import LocalGraph, community_model
from repro.metrics.distance import (
    DEFAULT_GAMMA,
    NormStats,
    composite_distances_local,
    norm_stats_local,
)

from .estimation import (
    BLBEstimate,
    BLBParams,
    accuracy_guaranteed,
    blb_estimate,
    incremental_sample_size,
)
from .hoeffding import min_neighborhood_size


@dataclass(frozen=True)
class SEAParams:
    """All knobs of SEA, defaulting to the paper's §VII-A settings.

    Two defaults are scale-adjusted for the laptop-scale datasets (see
    DESIGN.md §3); the paper's values remain reachable and are swept in
    the sensitivity tests:

    * ``e`` defaults to 10% rather than 2% — our communities are
      10²–10³× smaller than the paper's populations, so the CLT margin
      of error at fixed confidence is proportionally larger;
    * ``hoeffding_eps`` defaults to 0.25 rather than 0.05 — Theorem 10
      with ε=0.05 demands |G_q| far above our |V|, collapsing G_q to
      "the whole component"; ε=0.25 restores the paper's regime where
      |G_q| is a ~10–20× community-sized neighbourhood of q.
    """

    k: int = 4
    gamma: float = DEFAULT_GAMMA
    model: str = "core"  # "core" | "truss"
    e: float = 0.10  # user error bound (Theorem 11)
    alpha: float = 0.05  # 1−α confidence level
    hoeffding_eps: float = 0.25
    hoeffding_beta: float = 0.05
    lam: float = 0.2  # initial sampling fraction λ
    blb: BLBParams = field(default_factory=BLBParams)
    size_bound: Optional[Tuple[int, int]] = None  # (l, h) for §VI-B
    max_rounds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        def need(ok: bool, what: str, value) -> None:
            if not ok:
                raise ValueError(f"SEAParams: {what}, got {value!r}")

        need(self.k >= 1, "k must be >= 1", self.k)
        need(self.e > 0, "e must be > 0", self.e)
        need(self.max_rounds >= 1, "max_rounds must be >= 1", self.max_rounds)
        need(0 <= self.gamma <= 1, "gamma must be in [0, 1]", self.gamma)
        need(0 < self.alpha < 1, "alpha must be in (0, 1)", self.alpha)
        need(0 < self.lam <= 1, "lam must be in (0, 1]", self.lam)
        need(self.hoeffding_eps > 0, "hoeffding_eps must be > 0", self.hoeffding_eps)
        need(0 < self.hoeffding_beta < 1, "hoeffding_beta must be in (0, 1)",
             self.hoeffding_beta)
        if self.size_bound is not None:
            lo, hi = self.size_bound
            need(1 <= lo <= hi, "size_bound (l, h) needs 1 <= l <= h", self.size_bound)


@dataclass
class SEARound:
    """Per-round trace — the rows of the Table VI case study."""

    round: int
    delta_star: float
    moe: float
    delta_s: int  # |ΔS| requested after this round (0 on success)
    elapsed_ms: float
    n_sample: int
    n_candidates: int  # candidates estimated in the greedy search


@dataclass
class SEAResult:
    """Final community plus the full estimation trace."""

    community: Optional[Set[int]]
    delta_star: float
    moe: float
    satisfied: bool  # Theorem 11 (and size bound) met
    rounds: List[SEARound]
    gq_size: int
    min_gq: int
    elapsed_s: float
    sampling_s: float  # S1 time (G_q + sampling + core finding)
    estimation_s: float  # S2 time (greedy + BLB)
    incremental_s: float  # S3 time (Eq. 12 resampling)


def _best_first_neighborhood(
    g: LocalGraph, q: int, gamma: float, stats: NormStats, min_size: int
) -> Tuple[List[int], Dict[int, float]]:
    """Best-first BFS from q: expand smallest-f nodes first (§V-A).

    Stops at ``min_size`` nodes or when q's component is exhausted. This
    is not the G_q of ``spark_core.bfs.prioritized_neighborhood``, which
    admits whole BFS layers and cuts only the last one by f: the heap can
    follow a chain of similar nodes deeper than those layers reach
    (DESIGN.md, "G_q on the two front ends"). f(·,q) is computed lazily
    in batches — q first, then the unseen neighbours of each expanded
    node — so it is evaluated for G_q and the final frontier only.
    Returns G_q in expansion order and those f values.
    """
    fvals = composite_distances_local(g, q, gamma, stats, nodes=[q])
    seen = {q}
    out: List[int] = []
    heap: List[Tuple[float, int]] = [(fvals[q], q)]
    while heap:
        _, v = heapq.heappop(heap)
        out.append(v)
        if len(out) >= min_size:
            break
        new = [u for u in g.adj[v] if u not in seen]
        if new:
            seen.update(new)
            f_new = composite_distances_local(g, q, gamma, stats, nodes=new)
            fvals.update(f_new)
            for u in new:
                heapq.heappush(heap, (f_new[u], u))
    return out, fvals


def _weighted_sample(
    rng: np.random.Generator,
    ids: List[int],
    fvals: Dict[int, float],
    n: int,
    exclude: Optional[Set[int]] = None,
) -> List[int]:
    """Weighted sample without replacement, P_s ∝ 1−f (Eq. 5)."""
    pool = [v for v in ids if not exclude or v not in exclude]
    if not pool:
        return []
    n = min(n, len(pool))
    w = np.array([max(1.0 - fvals[v], 1e-12) for v in pool])
    p = w / w.sum()
    return [int(v) for v in rng.choice(pool, size=n, replace=False, p=p)]


def _min_gq(n: int, params: SEAParams) -> int:
    """Theorem 10's minimum |G_q| on an ``n``-node graph (§VI-B's l when
    the community size is bounded)."""
    return min_neighborhood_size(
        n, params.k, params.hoeffding_beta, params.hoeffding_eps,
        model=params.model,
        size_lower_bound=params.size_bound[0] if params.size_bound else None,
    )


def sea_search(
    g: LocalGraph,
    q: int,
    params: SEAParams,
    stats: Optional[NormStats] = None,
) -> SEAResult:
    """All-local SEA search (Problem 2, Approx-CS-AG)."""
    if q not in g.adj:
        raise ValueError(f"query node {q} is not in the graph")
    t0 = time.perf_counter()
    min_gq = _min_gq(g.num_nodes, params)
    if stats is None:
        stats = norm_stats_local(g)
    gq, fvals = _best_first_neighborhood(g, q, params.gamma, stats, min_gq)
    t_s1 = time.perf_counter() - t0
    return _sample_estimate_loop(
        g, q, params, fvals, gq, min_gq, sampling_s=t_s1, started=t0
    )


def _sample_estimate_loop(
    g: LocalGraph,
    q: int,
    params: SEAParams,
    fvals: Dict[int, float],
    gq: List[int],
    min_gq: int,
    sampling_s: float,
    started: float,
) -> SEAResult:
    """Steps 2–3 of the pipeline over a materialised G_q (shared by the
    local and Spark front ends)."""
    rng = np.random.default_rng(params.seed)
    model = community_model(params.model)
    min_size = model.min_size(params.k)
    lo, hi = params.size_bound if params.size_bound else (min_size, len(gq))
    lo = max(lo, min_size)

    t_s1 = sampling_s
    t_s2 = 0.0
    t_s3 = 0.0
    t = time.perf_counter()
    sample: Set[int] = {q} | set(
        _weighted_sample(rng, gq, fvals, max(min_size, int(params.lam * len(gq))))
    )
    candidate = model.maximal(g, q, params.k, within=sample)
    # a sample whose induced graph lost q's community is useless — grow it
    while not candidate and len(sample) < len(gq):
        sample |= set(
            _weighted_sample(rng, gq, fvals, len(sample), exclude=sample)
        )
        candidate = model.maximal(g, q, params.k, within=sample)
    t_s1 += time.perf_counter() - t

    rounds: List[SEARound] = []
    best: Optional[BLBEstimate] = None
    best_comm: Optional[Set[int]] = None
    satisfied = False
    for rnd in range(1, params.max_rounds + 1):
        t_round = time.perf_counter()
        # ---- greedy candidate search (§V-B): peel the most dissimilar
        # node state by state, keep the δ*-minimising valid candidate ----
        n_cands = 0
        state = set(candidate)
        cand_best: Optional[Set[int]] = None
        cand_delta = float("inf")
        while state:
            if lo <= len(state) <= hi:
                n_cands += 1
                vals = [fvals[v] for v in state if v != q]
                d = sum(vals) / len(vals) if vals else 0.0
                if d < cand_delta:
                    cand_best, cand_delta = set(state), d
            if len(state) <= lo:
                break  # peeling further cannot yield a valid community
            worst = max((v for v in state if v != q), key=lambda v: fvals[v])
            state = model.maximal(g, q, params.k, within=state - {worst})
        # ---- BLB estimation with the Theorem-11 acceptance test ----
        est: Optional[BLBEstimate] = None
        if cand_best is not None:
            est = blb_estimate(
                [fvals[v] for v in cand_best if v != q],
                params.alpha, params.blb, seed=params.seed + rnd,
            )
            if best is None or est.delta_star < best.delta_star:
                best, best_comm = est, set(cand_best)
            if accuracy_guaranteed(est, params.e):
                satisfied = True
                best, best_comm = est, set(cand_best)
        t_s2 += time.perf_counter() - t_round
        if satisfied or est is None:
            ds = 0
            rounds.append(
                SEARound(
                    rnd,
                    est.delta_star if est else float("nan"),
                    est.moe if est else float("nan"),
                    ds,
                    (time.perf_counter() - t_round) * 1e3,
                    len(sample),
                    n_cands,
                )
            )
            break
        # ---- error-based incremental sampling (§V-C, Eq. 12) ----
        t_inc = time.perf_counter()
        ds = incremental_sample_size(est, params.e, params.blb.m)
        remaining = len(gq) - len(sample)
        # Eq. 12 scales with |S_blb|, which at laptop-scale communities is
        # tens of nodes — floor the increment at 10% of the remaining pool
        # so a failing round always makes material progress
        ds_applied = min(max(ds, remaining // 10), remaining)
        rounds.append(
            SEARound(
                rnd, est.delta_star, est.moe, ds,
                (time.perf_counter() - t_round) * 1e3, len(sample), n_cands,
            )
        )
        if ds_applied <= 0:
            t_s3 += time.perf_counter() - t_inc
            break  # G_q exhausted — cannot tighten the CI further
        sample |= set(
            _weighted_sample(rng, gq, fvals, ds_applied, exclude=sample)
        )
        candidate = model.maximal(g, q, params.k, within=sample)
        t_s3 += time.perf_counter() - t_inc
        if not candidate:
            break

    return SEAResult(
        community=best_comm,
        delta_star=best.delta_star if best else float("inf"),
        moe=best.moe if best else float("inf"),
        satisfied=satisfied,
        rounds=rounds,
        gq_size=len(gq),
        min_gq=min_gq,
        elapsed_s=time.perf_counter() - started,
        sampling_s=t_s1,
        estimation_s=t_s2,
        incremental_s=t_s3,
    )


def sea_search_spark(graph, q: int, params: SEAParams) -> SEAResult:
    """SEA with the bulk reads as Spark jobs.

    ``graph`` is an :class:`repro.graphs.attributed.AttributedGraph`.
    The norm stats, the layer-granular prioritised BFS (which collects
    each layer's ids and f(·,q) to the driver) and the G_q-induced edges
    are read from the Spark frames; G_q is the Hoeffding-bounded sampling
    population, orders of magnitude smaller than the graph, and the
    sample-estimate loop runs on the driver exactly as in
    :func:`sea_search`.
    """
    from repro.metrics.distance import composite_distances, norm_stats_spark
    from repro.spark_core.bfs import prioritized_neighborhood
    from repro.spark_core.degrees import symmetrize

    t0 = time.perf_counter()
    min_gq = _min_gq(graph.num_nodes(), params)
    stats = norm_stats_spark(graph.nodes)
    fdf = composite_distances(graph, q, params.gamma, stats)
    fvals = prioritized_neighborhood(symmetrize(graph.edges), fdf, q, min_gq)
    if q not in fvals:
        raise ValueError(f"query node {q} is not in the graph")
    # order G_q by distance so the driver-side loop sees the same
    # preferential ordering the BFS produced
    gq = sorted(fvals, key=lambda v: (fvals[v], v))
    edges_pdf = graph.induced(gq).edges.select("src", "dst").toPandas()
    g_local = LocalGraph.from_edges(
        list(zip(edges_pdf["src"], edges_pdf["dst"])), nodes=gq
    )
    t_s1 = time.perf_counter() - t0
    return _sample_estimate_loop(
        g_local, q, params, fvals, gq, min_gq, sampling_s=t_s1, started=t0
    )
