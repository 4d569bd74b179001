"""Spark DataFrame dataflow of the Spark SEA front end: the G_q BFS, a
driver loop of filtered collects (the edges touching each layer, then the
new nodes' rows) whose f(·,q) the driver computes and whose edges hold
G_q's own."""
from .bfs import prioritized_neighborhood

__all__ = [
    "prioritized_neighborhood",
]
