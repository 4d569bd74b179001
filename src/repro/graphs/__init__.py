"""Attributed-graph substrate: representations, generators, datasets."""
from .attributed import AttributedGraph
from .generator import GeneratedGraph, planted_heterogeneous, planted_homogeneous
from .local import (
    CommunityModel,
    LocalGraph,
    community_model,
    connected_component,
    core_decomposition,
    kcore_nodes,
    ktruss_edges,
    maximal_connected_kcore,
    maximal_connected_ktruss,
)

__all__ = [
    "AttributedGraph",
    "CommunityModel",
    "GeneratedGraph",
    "LocalGraph",
    "community_model",
    "connected_component",
    "core_decomposition",
    "kcore_nodes",
    "ktruss_edges",
    "maximal_connected_kcore",
    "maximal_connected_ktruss",
    "planted_heterogeneous",
    "planted_homogeneous",
]
