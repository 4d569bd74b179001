"""Query generation, method registry and measurement plumbing (§VII-A).

The paper evaluates 200 random queries per dataset; we default to a
handful of seeded queries (DESIGN.md §3) — every harness takes
``n_queries``. Queries are planted-community members in the k-core
of the graph the methods run on (following [22]'s random-query protocol
but restricted to feasible queries); on a heterogeneous dataset that
graph is the meta-path projection, whose nodes are the target-typed
ones (following [7], with each dataset's canonical meta-path standing in
for the top-frequency ones).

Each method computes f(·,q) for the nodes it reads, inside its timer; δ
of a returned community comes from f over its members only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Set

import numpy as np

from repro.baselines import acq_search, evac_search, locatc_search, vac_search
from repro.core import SEAParams, exact_cs, sea_search
from repro.graphs.datasets import load
from repro.graphs.generator import GeneratedGraph
from repro.graphs.local import LocalGraph, kcore_nodes
from repro.hetero import metapath_project_local
from repro.metrics import NormStats, composite_distances_local, delta, norm_stats_local

# Exact's state cap when it answers a table query or supplies the
# relative-error reference
EXACT_MAX_STATES = 2_000_000


@dataclass
class PreparedDataset:
    """A dataset ready to query: projected (if hetero) + distance stats."""

    name: str
    gen: GeneratedGraph
    graph: LocalGraph  # the graph methods run on (projection for hetero)
    stats: NormStats
    gamma: float  # 0.0 on numerical-only datasets, else the default 0.5


@lru_cache(maxsize=None)
def prepare(name: str) -> PreparedDataset:
    """Load a dataset and project it when heterogeneous (memoised)."""
    gen = load(name)
    if gen.is_hetero:
        graph = metapath_project_local(gen.graph, gen.meta_path)
    else:
        graph = gen.graph
    some_member = next(iter(gen.communities))
    gamma = 0.5 if gen.graph.tattrs[some_member] else 0.0
    stats = norm_stats_local(graph)
    return PreparedDataset(name, gen, graph, stats, gamma)


def pick_queries(prep: PreparedDataset, k: int, n_queries: int, seed: int = 0) -> List[int]:
    """Seeded random community members in the k-core of the query graph
    — mirroring the paper's random-query protocol."""
    core = kcore_nodes(prep.graph, k)
    eligible = sorted(v for v in prep.gen.communities if v in core)
    if not eligible:
        raise RuntimeError(f"{prep.name}: no node with coreness >= {k}")
    rng = np.random.default_rng(seed)
    n = min(n_queries, len(eligible))
    return [int(v) for v in rng.choice(eligible, size=n, replace=False)]


@dataclass
class MethodRun:
    """One method on one query."""

    community: Optional[Set[int]]
    delta: Optional[float]  # δ(H) under the paper's metric (None if no H)
    elapsed_s: float


def run_method(
    method: str,
    prep: PreparedDataset,
    q: int,
    k: int,
    model: str = "core",
    e: float = 0.10,
    seed: int = 0,
) -> MethodRun:
    """Dispatch one of the paper's methods (§VII-A) on one query.

    Methods: ``sea``, ``exact``, ``acq``, ``locatc``, ``vac``, ``evac``
    — each honouring ``model`` ∈ {core, truss} where the paper evaluates
    that variant.
    """
    g, stats, gamma = prep.graph, prep.stats, prep.gamma
    if method == "sea":
        r = sea_search(
            g, q,
            # per-query stream: deterministic, but a bad draw on one
            # query does not repeat on every other
            SEAParams(k=k, gamma=gamma, model=model, e=e, seed=seed + q),
            stats=stats,
        )
        return MethodRun(r.community, r.delta_star if r.community else None, r.elapsed_s)
    if method == "exact":
        r = exact_cs(
            g, q, k, gamma=gamma, stats=stats, model=model,
            max_states=EXACT_MAX_STATES,
        )
        return MethodRun(r.community, r.delta if r.community else None, r.elapsed_s)
    if method == "acq":
        r = acq_search(g, q, k, model=model)
    elif method == "locatc":
        r = locatc_search(g, q, k, model=model)
    elif method == "vac":
        r = vac_search(g, q, k, gamma=gamma, stats=stats, model=model)
    elif method == "evac":
        r = evac_search(g, q, k, gamma=gamma, stats=stats, model=model)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not r.community:
        return MethodRun(r.community, None, r.elapsed_s)
    fvals = composite_distances_local(g, q, gamma, stats, nodes=r.community)
    return MethodRun(r.community, delta(fvals, r.community, q), r.elapsed_s)


def exact_ground_truth(
    prep: PreparedDataset, q: int, k: int, model: str = "core"
) -> Optional[float]:
    """δ of the exact community — the relative-error reference."""
    return run_method("exact", prep, q, k, model).delta


def relative_error(approx: Optional[float], exact: Optional[float]) -> Optional[float]:
    """|δ* − δ|/δ; None when either side has no community."""
    if approx is None or exact is None or exact == 0:
        return None
    return abs(approx - exact) / exact
