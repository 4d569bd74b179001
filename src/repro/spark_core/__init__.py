"""Spark DataFrame dataflow of the Spark SEA front end: the G_q BFS, a
driver loop of one filtered collect per layer (the new nodes' rows, each
with its neighbour list) whose f(·,q) the driver computes and whose
neighbour lists hold G_q's edges."""
from .bfs import prioritized_neighborhood

__all__ = [
    "prioritized_neighborhood",
]
