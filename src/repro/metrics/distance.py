"""Composite q-centric attribute distance (paper §II-A).

``f(u,q) = γ·fᵗ(u,q) + (1−γ)·f#(u,q)`` where

* ``fᵗ`` is the Jaccard *distance* ``1 − |Aᵗ(u)∩Aᵗ(q)| / |Aᵗ(u)∪Aᵗ(q)|``
  (the paper's prose — "the higher the ratio of equally matched textual
  attributes, the smaller fᵗ" — makes clear the printed formula omits the
  ``1 −``; we implement the distance);
* ``f#`` is the dimension-normalised Manhattan distance over numerical
  attributes, with per-dimension min-max normalisation ``Z(·)`` computed
  over a reference node population (the whole graph, or the target-typed
  nodes of a heterogeneous graph).

Locally, :func:`composite_distances_local` computes f(·,q) for the nodes
a caller names — SEA for the nodes its best-first BFS reaches, Exact for
its root community, the experiment harness for a returned community — and
each value is the same whichever other nodes are asked about. For
``sea_search_spark``, :func:`composite_distances` is the Spark frame
(with :func:`norm_stats_spark`); its G_q BFS filters the frame by ``id``
per layer, so f is evaluated only for the nodes the BFS reaches on that
path too. Tests check the Spark path against the local one and against
DuckDB SQL oracles. δ(H) is computed on the driver.

Edge conventions: two empty token sets are identical (fᵗ=0); empty vs
non-empty is maximally distant (fᵗ=1). A constant numerical dimension
normalises to 0 everywhere. Graphs with no numerical (textual) attributes
should be queried with γ=1 (γ=0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.attributed import AttributedGraph
from repro.graphs.local import LocalGraph

DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class NormStats:
    """Per-dimension min/max of the numerical attributes."""

    mins: Tuple[float, ...]
    maxs: Tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.mins)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        mins = np.asarray(self.mins)
        span = np.asarray(self.maxs) - mins
        out = np.zeros_like(np.asarray(x, dtype=float))
        nz = span > 0
        out[..., nz] = (np.asarray(x, dtype=float)[..., nz] - mins[nz]) / span[nz]
        return out


def norm_stats_local(g: LocalGraph) -> NormStats:
    """Min/max per numerical dimension over every node of ``g``."""
    vecs = [g.nattrs[v] for v in g.adj if v in g.nattrs and len(g.nattrs[v])]
    if not vecs:
        return NormStats((), ())
    arr = np.stack(vecs)
    return NormStats(tuple(arr.min(axis=0)), tuple(arr.max(axis=0)))


def norm_stats_spark(nodes: DataFrame) -> NormStats:
    """Spark twin of :func:`norm_stats_local` via posexplode + aggregate."""
    rows = (
        nodes.select(F.posexplode("nattrs").alias("pos", "val"))
        .groupBy("pos")
        .agg(F.min("val").alias("mn"), F.max("val").alias("mx"))
        .orderBy("pos")
        .collect()
    )
    return NormStats(tuple(r.mn for r in rows), tuple(r.mx for r in rows))


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    """Jaccard distance with the empty-set conventions documented above."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


def pair_distance(
    g: LocalGraph,
    u: int,
    v: int,
    gamma: float,
    stats: NormStats,
) -> float:
    """Composite distance f(u,v) between two nodes (local)."""
    ft = jaccard_distance(g.tattrs.get(u, frozenset()), g.tattrs.get(v, frozenset()))
    if stats.ndim == 0:
        fn = 0.0
    else:
        zu = stats.normalize(g.nattrs[u])
        zv = stats.normalize(g.nattrs[v])
        fn = float(np.abs(zu - zv).mean())
    return gamma * ft + (1 - gamma) * fn


def composite_distances_local(
    g: LocalGraph,
    q: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    nodes: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """f(v,q) for ``nodes`` (default: every node), normalised over the
    whole graph (local twin of :func:`composite_distances`)."""
    ids = list(nodes) if nodes is not None else list(g.adj)
    if stats is None:
        stats = norm_stats_local(g)
    qt = g.tattrs.get(q, frozenset())
    out: Dict[int, float] = {}
    if stats.ndim:
        zq = stats.normalize(g.nattrs[q])
    for v in ids:
        ft = jaccard_distance(g.tattrs.get(v, frozenset()), qt)
        if stats.ndim:
            fn = float(np.abs(stats.normalize(g.nattrs[v]) - zq).mean())
        else:
            fn = 0.0
        out[v] = gamma * ft + (1 - gamma) * fn
    return out


def composite_distances(
    graph: AttributedGraph,
    q: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
) -> DataFrame:
    """Spark frame: ``id, f`` = composite distance of every node to q.

    One crossJoin against the single q row; Jaccard via array functions,
    Manhattan via ``zip_with``/``aggregate`` over min-max-normalised
    attribute arrays — all Catalyst expressions, no UDFs. Catalyst pushes
    an ``id`` filter on the result below the crossJoin, so a filtered
    read evaluates f only for the rows it keeps.
    """
    if stats is None:
        stats = norm_stats_spark(graph.nodes)
    nodes = graph.nodes
    qrow = nodes.where(F.col("id") == q).select(
        F.col("tattrs").alias("q_tattrs"), F.col("nattrs").alias("q_nattrs")
    )

    def znorm(col):
        mins = F.array(*[F.lit(float(m)) for m in stats.mins])
        spans = F.array(
            *[F.lit(float(mx - mn)) for mn, mx in zip(stats.mins, stats.maxs)]
        )
        return F.zip_with(
            F.zip_with(col, mins, lambda x, mn: x - mn),
            spans,
            lambda x, s: F.when(s > 0, x / s).otherwise(F.lit(0.0)),
        )

    df = nodes.crossJoin(qrow)
    inter = F.size(F.array_intersect("tattrs", "q_tattrs"))
    union = F.size(F.array_union("tattrs", "q_tattrs"))
    ft = F.when(union == 0, F.lit(0.0)).otherwise(1.0 - inter / union)
    if stats.ndim == 0:
        fn = F.lit(0.0)
    else:
        diffs = F.zip_with(
            znorm(F.col("nattrs")), znorm(F.col("q_nattrs")), lambda a, b: F.abs(a - b)
        )
        fn = F.aggregate(diffs, F.lit(0.0), lambda acc, x: acc + x) / F.lit(
            float(stats.ndim)
        )
    return df.select(
        "id", (F.lit(gamma) * ft + F.lit(1 - gamma) * fn).alias("f")
    )


def delta(fvals: Dict[int, float], community: Set[int], q: int) -> float:
    """q-centric attribute distance δ(H): mean f over the community sans q.

    Definition 4. A community of just {q} has no other member; define δ=0.
    """
    members = [v for v in community if v != q]
    if not members:
        return 0.0
    return float(np.mean([fvals[v] for v in members]))

