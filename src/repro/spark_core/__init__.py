"""Spark DataFrame dataflows of the Spark SEA front end: edge
symmetrisation, edge restriction to a node set and the G_q neighbourhood
BFS."""
from .bfs import prioritized_neighborhood
from .degrees import symmetrize

__all__ = [
    "prioritized_neighborhood",
    "symmetrize",
]
