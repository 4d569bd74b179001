"""Distributed (Spark DataFrame) graph primitives."""
from .bfs import prioritized_neighborhood
from .degrees import degrees, symmetrize
from .kcore import bfs_component, connected_kcore, kcore_subgraph
from .ktruss import connected_ktruss, edge_supports, ktruss_edges

__all__ = [
    "bfs_component",
    "connected_kcore",
    "connected_ktruss",
    "degrees",
    "edge_supports",
    "kcore_subgraph",
    "ktruss_edges",
    "prioritized_neighborhood",
    "symmetrize",
]
