"""Spark DataFrame dataflows of the Spark SEA front end: edge
symmetrisation and the G_q neighbourhood BFS, a driver loop of filtered
collects (neighbour ids, then node rows) whose f(·,q) the driver
computes."""
from .bfs import prioritized_neighborhood
from .degrees import symmetrize

__all__ = [
    "prioritized_neighborhood",
    "symmetrize",
]
