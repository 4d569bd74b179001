"""Span tracing installed from outside the program.

The benchmark times the calls into each layer by replacing the names the
program looks up at call time (a module global such as
``repro.core.exact.delete_with_kcore_maintenance``, or a class attribute
such as ``AttributedGraph.induced``) with a timing wrapper, and puts the
originals back afterwards. Nothing here runs in the timed (untraced) pass.

Every span records its name, start, end and parent, and belongs to the
query whose root span is open. When the root closes, the query's spans are
folded into per ``(root, parent, name)`` totals of calls, wall time, self
time (wall time minus the time covered by child spans) and items (a size
the target reports, such as the number of distances computed).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# (object path, attribute, span name, items counter or None). The object
# path names a module, or a class as "module:Class".
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    # metrics.distance: the all-node f(., q) pass, as SEA and Exact call it
    ("repro.core.sea", "composite_distances_local", "distance", len),
    ("repro.core.exact", "composite_distances_local", "distance", len),
    # core.hoeffding and core.estimation
    ("repro.core.sea", "min_neighborhood_size", "hoeffding", None),
    ("repro.core.sea", "blb_estimate", "blb", None),
    # the sample-estimate loop both SEA front ends share
    ("repro.core.sea", "_sample_estimate_loop", "sea.driver_loop", None),
    # graphs.local, at each caller's lookup
    ("repro.core.sea", "delete_with_kcore_maintenance", "kcore_maint", None),
    ("repro.core.exact", "delete_with_kcore_maintenance", "kcore_maint", None),
    ("repro.baselines.common", "delete_with_kcore_maintenance", "kcore_maint", None),
    ("repro.core.sea", "delete_with_ktruss_maintenance", "ktruss_maint", None),
    ("repro.core.exact", "delete_with_ktruss_maintenance", "ktruss_maint", None),
    ("repro.baselines.common", "delete_with_ktruss_maintenance", "ktruss_maint", None),
    ("repro.core.sea", "maximal_connected_kcore", "maximal_kcore", None),
    ("repro.core.exact", "maximal_connected_kcore", "maximal_kcore", None),
    ("repro.baselines.common", "maximal_connected_kcore", "maximal_kcore", None),
    ("repro.core.sea", "maximal_connected_ktruss", "maximal_ktruss", None),
    ("repro.core.exact", "maximal_connected_ktruss", "maximal_ktruss", None),
    ("repro.baselines.common", "maximal_connected_ktruss", "maximal_ktruss", None),
    ("repro.graphs.local", "connected_component", "connected_component", None),
    # baselines.vac
    ("repro.baselines.vac", "pair_distance", "vac.pair_distance", None),
    # the Spark front end (sea_search_spark imports these at call time)
    ("repro.metrics.distance", "norm_stats_spark", "spark.norm_stats", None),
    ("repro.metrics.distance", "composite_distances", "spark.distance_plan", None),
    ("repro.spark_core.degrees", "symmetrize", "spark.symmetrize", None),
    ("repro.spark_core.bfs", "prioritized_neighborhood", "spark.bfs", None),
    ("repro.graphs.attributed:AttributedGraph", "num_nodes", "spark.count", None),
    ("repro.graphs.attributed:AttributedGraph", "induced", "spark.induced", None),
    ("pyspark.sql.classic.dataframe:DataFrame", "toPandas", "spark.to_pandas", None),
    ("repro.graphs.local:LocalGraph", "from_edges", "local.from_edges", None),
]


@dataclass
class Totals:
    calls: int = 0
    ms: float = 0.0
    self_ms: float = 0.0
    items: int = 0


@dataclass
class Tracer:
    """Collects the spans of one query at a time and folds them into totals."""

    totals: Dict[Tuple[str, str, str], Totals] = field(
        default_factory=lambda: defaultdict(Totals)
    )
    # open spans: (index in _spans, name, start)
    _open: List[tuple] = field(default_factory=list)
    # spans of the current query: (name, start, end, parent index, items)
    _spans: List[Optional[tuple]] = field(default_factory=list)

    def begin(self, name: str) -> None:
        self._open.append((len(self._spans), name, time.perf_counter()))
        self._spans.append(None)  # filled in by end()

    def end(self, items: int = 0) -> None:
        end = time.perf_counter()
        idx, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self._spans[idx] = (name, start, end, parent, items)
        if not self._open:
            self._fold()

    def _fold(self) -> None:
        """Fold the finished query's spans into the totals."""
        spans, self._spans = self._spans, []
        root = spans[0][0]
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        for i, (name, start, end, parent, items) in enumerate(spans):
            ms = (end - start) * 1e3
            t = self.totals[(root, spans[parent][0] if parent >= 0 else "", name)]
            t.calls += 1
            t.ms += ms
            t.self_ms += ms - child_ms[i]
            t.items += items

    def wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            items = 0
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    items = count(out)
                return out
            finally:
                self.end(items)

        return traced

    # ---- queries over the totals -------------------------------------
    def sum(self, name: str, attr: str = "ms", roots=None, parent=None) -> float:
        return sum(
            getattr(t, attr)
            for (r, p, n), t in self.totals.items()
            if n == name
            and (roots is None or r in roots)
            and (parent is None or p == parent)
        )


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Patches:
    """The span wrappers for every target that exists; ``with patches:``
    installs them and puts the originals back on exit.

    A target the program no longer has is reported once on stderr and
    skipped, so its layer's metrics read 0 rather than the run failing.
    """

    def __init__(self, tracer: Tracer):
        self._swaps = []  # (owner, attr, original, wrapper, owner had attr)
        for path, attr, name, count in TARGETS:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                owner = None
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                print(f"trace: {path}.{attr} not found; skipped", file=sys.stderr)
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(tracer.wrap(raw.__func__, name, count))
            else:
                new = tracer.wrap(raw, name, count)
            self._swaps.append((owner, attr, raw, new, attr in vars(owner)))

    def __enter__(self) -> "Patches":
        for owner, attr, _, new, _ in self._swaps:
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, _, had in self._swaps:
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
