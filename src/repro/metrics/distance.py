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

This module's :func:`composite_distances_local` is the only f, on both
SEA front ends. It computes f(·,q) for the nodes a caller names — SEA
for the nodes its best-first BFS reaches, Exact for its root community,
the experiment harness for a returned community — and each value is the
same whichever other nodes are asked about. ``sea_search_spark``'s G_q
BFS collects each new layer's node rows and calls it on the driver, with
the bounds ``AttributedGraph.from_local`` recorded from
:func:`norm_stats_local`, so the Spark front end's f equals the local one
bit for bit. With a member u in q's place it gives one
row f(u,·), which is how ``metrics.cohesiveness.worst_pair`` reads the
pairwise distances of VAC's min-max objective; f(u,v) equals f(v,u) bit
for bit. Tests check it against DuckDB SQL oracles. δ(H) is computed on
the driver.

:func:`norm_stats_local` builds, in the same pass as the min/max, the
graph's normalised |V|×d matrix and a node → row map, once per graph; f's
numerical part is then ``abs(Z[rows] − Z[row_q]).mean(axis=1)`` over
gathered rows. Stats without a matrix for the graph at hand (the
bounds-only stats of an ``AttributedGraph``, hand-built ones, or another
graph's) normalise exactly the requested
rows plus q's in one call and evaluate the same expression. Both paths
equal the per-node formula bit for bit.

Edge conventions: two empty token sets are identical (fᵗ=0); empty vs
non-empty is maximally distant (fᵗ=1). A constant numerical dimension
normalises to 0 everywhere. Graphs with no numerical (textual) attributes
should be queried with γ=1 (γ=0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.local import LocalGraph

DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class NormStats:
    """Per-dimension min/max of the numerical attributes.

    :func:`norm_stats_local` also keeps the graph's normalised |V|×d
    matrix ``z`` (node v on row ``rows[v]``) and the ``nattrs`` dict it
    was read from (``source``), so f reads a node's normalised vector as
    a row. These three fields take no part in ``==``, ``hash`` or
    ``repr``.
    """

    mins: Tuple[float, ...]
    maxs: Tuple[float, ...]
    z: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    rows: Optional[Dict[int, int]] = field(default=None, compare=False, repr=False)
    source: Optional[Dict[int, np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

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
    """Min/max per numerical dimension over every node of ``g``, with
    ``g``'s normalised attribute matrix (built in the same pass)."""
    ids = [v for v in g.adj if v in g.nattrs and len(g.nattrs[v])]
    if not ids:
        return NormStats((), ())
    arr = np.array([g.nattrs[v] for v in ids])
    bounds = NormStats(tuple(arr.min(axis=0)), tuple(arr.max(axis=0)))
    rows = {v: i for i, v in enumerate(ids)}
    return replace(bounds, z=bounds.normalize(arr), rows=rows, source=g.nattrs)


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    """Jaccard distance with the empty-set conventions documented above."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


def _normalized_rows(
    g: LocalGraph, q: int, stats: NormStats, ids: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalised vectors of ``ids`` (one row each) and of q: rows of
    ``stats.z`` when it was built on ``g``, else one ``normalize`` call on
    exactly those rows. A node with no vector raises either way."""
    z, rows = stats.z, stats.rows
    if z is not None and stats.source is g.nattrs:
        return z[[rows[v] for v in ids]], z[rows[q]]
    z = stats.normalize(np.array([g.nattrs[v] for v in ids] + [g.nattrs[q]]))
    return z[:-1], z[-1]


def composite_distances_local(
    g: LocalGraph,
    q: int,
    gamma: float = DEFAULT_GAMMA,
    stats: Optional[NormStats] = None,
    nodes: Optional[Iterable[int]] = None,
) -> Dict[int, float]:
    """f(v,q) for ``nodes`` (default: every node), normalised by
    ``stats`` (default: over every node of ``g``)."""
    ids = list(nodes) if nodes is not None else list(g.adj)
    if stats is None:
        stats = norm_stats_local(g)
    qt = g.tattrs.get(q, frozenset())
    if stats.ndim:
        zv, zq = _normalized_rows(g, q, stats, ids)
        fn = (np.add.reduce(np.abs(zv - zq), axis=1) / stats.ndim).tolist()
    else:
        fn = [0.0] * len(ids)
    return {
        v: gamma * jaccard_distance(g.tattrs.get(v, frozenset()), qt) + (1 - gamma) * n
        for v, n in zip(ids, fn)
    }


def delta(fvals: Dict[int, float], community: Set[int], q: int) -> float:
    """q-centric attribute distance δ(H): mean f over the community sans q.

    Definition 4. A community of just {q} has no other member; define δ=0.
    """
    vals = [fvals[v] for v in community if v != q]
    # an exactly rounded sum, so the set's iteration order cannot move δ
    return math.fsum(vals) / len(vals) if vals else 0.0

