"""Shared plumbing for the baseline CS methods of §VII-A.

Every baseline searches inside the maximal connected k-core (or k-truss)
containing q and returns a :class:`BaselineResult`; ``community=None``
means the method cannot return a community (e.g. ACQ on numerical-only
attributes — the '-' cells of Table V).
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional, Set


@dataclass
class BaselineResult:
    community: Optional[Set[int]]
    elapsed_s: float
    states: int = 0  # candidate states examined (exact variants)
    capped: bool = False


def timed(fn):
    """Wrap a search body so it returns a BaselineResult with wall time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> BaselineResult:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        if isinstance(out, tuple):
            community, states, capped = out
            return BaselineResult(community, elapsed, states, capped)
        return BaselineResult(out, elapsed)

    return wrapper
