"""Spark DataFrame dataflows: edge symmetrisation, degrees (Table I) and
the G_q neighbourhood BFS of the Spark SEA front end."""
from .bfs import prioritized_neighborhood
from .degrees import degrees, symmetrize

__all__ = [
    "degrees",
    "prioritized_neighborhood",
    "symmetrize",
]
