"""Correctness gate: checks every community the benchmark gets back.

The checks use their own implementations of the composite distance and of
the k-core / k-truss conditions, so a change to the program's versions
cannot make a wrong answer look right. Only ``repro.metrics.delta`` (the
mean of f over the community without q) is shared with the program.
"""
from __future__ import annotations

import hashlib
import math
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.metrics import delta


class Reference:
    """f(v, q) computed from the definition (paper §II-A).

    Jaccard distance on token sets (two empty sets are identical) and the
    mean absolute difference of min-max normalised numerical attributes
    (a constant dimension normalises to 0), mixed by ``gamma``.
    """

    def __init__(self, g, gamma: float):
        self.g = g
        self.gamma = gamma
        arr = np.stack([np.asarray(g.nattrs[v], dtype=float) for v in g.adj])
        self.mins = arr.min(axis=0)
        span = arr.max(axis=0) - self.mins
        self.span = np.where(span > 0, span, 1.0)
        self.const = span <= 0

    def _z(self, v: int) -> np.ndarray:
        z = (np.asarray(self.g.nattrs[v], dtype=float) - self.mins) / self.span
        return np.where(self.const, 0.0, z)

    def f(self, q: int, nodes: Iterable[int]) -> Dict[int, float]:
        qt = self.g.tattrs.get(q, frozenset())
        zq = self._z(q)
        out = {}
        for v in nodes:
            vt = self.g.tattrs.get(v, frozenset())
            union = len(vt | qt)
            ft = 0.0 if union == 0 else 1.0 - len(vt & qt) / union
            fn = float(np.abs(self._z(v) - zq).mean()) if zq.size else 0.0
            out[v] = self.gamma * ft + (1 - self.gamma) * fn
        return out

    def delta(self, q: int, comm: Set[int]) -> float:
        return delta(self.f(q, comm), comm, q)


def _connected(adj: Dict[int, Set[int]], q: int) -> bool:
    seen, todo = {q}, deque([q])
    while todo:
        for u in adj[todo.popleft()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(adj)


def _truss_nodes(adj: Dict[int, Set[int]], k: int) -> Set[int]:
    """Nodes that keep an edge after peeling edges in fewer than k−2 triangles."""
    adj = {v: set(n) for v, n in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in adj:
            for u in [u for u in adj[v] if u > v]:
                if len(adj[v] & adj[u]) < k - 2:
                    adj[v].discard(u)
                    adj[u].discard(v)
                    changed = True
    return {v for v, n in adj.items() if n}


def community_error(g, q: int, k: int, model: str, comm: Set[int]) -> Optional[str]:
    """Why ``comm`` is not a connected k-core / k-truss with q, or None."""
    if q not in comm:
        return "q not in community"
    adj = {v: g.adj[v] & comm for v in comm}
    if not _connected(adj, q):
        return "not connected"
    if model == "core":
        low = min(len(n) for n in adj.values())
        if low < k:
            return f"min degree {low} < k={k}"
    elif _truss_nodes(adj, k) != comm:
        return f"not a {k}-truss (an edge has support < k-2)"
    return None


def truss_feasible(g, queries: List[int], k: int) -> Dict[int, bool]:
    """Does q belong to a k-truss of the whole graph (networkx oracle)?

    networkx's ``k_truss`` keeps edges in at least k−2 triangles, the
    convention used here.
    """
    G = nx.Graph((v, u) for v in g.adj for u in g.adj[v] if v < u)
    truss = nx.k_truss(G, k)
    return {q: truss.has_node(q) and truss.degree(q) > 0 for q in queries}


def digest(answers: List[Tuple[str, int, Optional[Set[int]]]]) -> str:
    """Hash of (method, q, sorted community) in stream order."""
    h = hashlib.sha256()
    for method, q, comm in answers:
        h.update(repr((method, q, sorted(comm) if comm is not None else None)).encode())
    return h.hexdigest()[:16]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
