"""Per-table experiment runners reproducing the paper's evaluation tables.

Each ``tableN`` function returns ``(rows, meta)`` where ``rows`` is a
list of dicts (one per printed table row) and ``meta`` records the
workload (k, query count, e, seed, …); ``format_rows`` renders them like
the paper. The defaults of each ``tableN`` are the workload recorded in
``benchmarks/tables_output.txt`` and EXPERIMENTS.md, and :data:`TABLES`
is the one list of tables: ``jobs/tables.py`` prints them and
``benchmarks/test_bench_tables.py`` times them, both through
:func:`run_table`.
"""
from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import SEAParams, exact_cs, sea_search
from repro.graphs.datasets import HA_GT_DATASETS, TABLE1_DATASETS, load
from repro.graphs.local import core_decomposition
from repro.metrics import acq_shared, atc_coverage, f1_score, vac_minmax

from .harness import (
    exact_ground_truth,
    pick_queries,
    prepare,
    relative_error,
    run_method,
)


def format_rows(rows: List[Dict]) -> str:
    """Render rows as a fixed-width text table."""
    if not rows:
        return "(empty)"
    cols = list(rows[0].keys())
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)
    widths = {
        c: max(len(c), *(len(fmt(r.get(c))) for r in rows)) for c in cols
    }
    lines = [" | ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table I — dataset statistics
# ---------------------------------------------------------------------------


def table1(datasets: Sequence[str] = tuple(TABLE1_DATASETS)) -> Tuple[List[Dict], Dict]:
    """Table I: #Nodes, #Edges, #N/E-types, d_max/avg, k_max/avg.

    Counts and degrees come from the driver-side graph; coreness is the
    Batagelj–Zaveršnik peel (O(|E| + k_max·|V|)).
    """
    rows = []
    for name in datasets:
        g = load(name).graph
        ds = [g.degree(v) for v in g.adj]
        cor = core_decomposition(g)
        ntypes = len(set(g.ntypes.values())) if g.ntypes else 1
        if g.ntypes:
            etypes = len(
                {
                    tuple(sorted((g.ntypes[u], g.ntypes[v])))
                    for u in g.adj
                    for v in g.adj[u]
                }
            )
        else:
            etypes = 1
        rows.append(
            {
                "Dataset": name,
                "#Nodes": g.num_nodes,
                "#Edges": g.num_edges,
                "#N-types": ntypes,
                "#E-types": etypes,
                "d_max": int(max(ds)),
                "d_avg": round(float(np.mean(ds)), 2),
                "k_max": max(cor.values()),
                "k_avg": round(float(np.mean(list(cor.values()))), 2),
            }
        )
    return rows, {"datasets": list(datasets)}


# ---------------------------------------------------------------------------
# Table II — attribute cohesiveness under four metrics (Facebook)
# ---------------------------------------------------------------------------

# the rows of Tables II and III, in the paper's order
METHODS = [
    ("SEA (Ours)", "sea"),
    ("LocATC-Core", "locatc"),
    ("ACQ-Core", "acq"),
    ("VAC-Core", "vac"),
    ("Exact (Ours)", "exact"),
    ("E-VAC-Core", "evac"),
]


def table2(k: int = 5, n_queries: int = 8, e: float = 0.10, seed: int = 3) -> Tuple[List[Dict], Dict]:
    """Table II: every method scored under all four attribute metrics.

    Smaller is better for Min-max and δ; larger is better for ATC
    coverage and #Shared. Ranks are per column; Total rank sums them.
    """
    prep = prepare("facebook")
    queries = pick_queries(prep, k, n_queries, seed)
    # score only queries every method answered, so the averages compare
    # the same workload across methods
    per_q: Dict[int, Dict[str, Dict[str, float]]] = {}
    for q in queries:
        scores: Dict[str, Dict[str, float]] = {}
        for label, method in METHODS:
            r = run_method(method, prep, q, k, e=e, seed=seed)
            if not r.community:
                break
            scores[label] = {
                "minmax": vac_minmax(prep.graph, r.community, prep.gamma, prep.stats),
                "atc": atc_coverage(prep.graph, r.community, q),
                "shared": acq_shared(prep.graph, r.community, q),
                "delta": r.delta,
            }
        else:
            per_q[q] = scores
    means = {
        label: {
            m: (
                float(np.mean([per_q[q][label][m] for q in per_q]))
                if per_q
                else None
            )
            for m in ("minmax", "atc", "shared", "delta")
        }
        for label, _ in METHODS
    }

    def ranks(metric: str, descending: bool) -> Dict[str, int]:
        vals = [(label, d[metric]) for label, d in means.items() if d[metric] is not None]
        vals.sort(key=lambda t: -t[1] if descending else t[1])
        out = {}
        for i, (label, v) in enumerate(vals):
            # ties share the better rank, like the paper's table
            out[label] = out[vals[i - 1][0]] if i and np.isclose(v, vals[i - 1][1]) else i + 1
        return out

    r_minmax = ranks("minmax", descending=False)
    r_atc = ranks("atc", descending=True)
    r_shared = ranks("shared", descending=True)
    r_delta = ranks("delta", descending=False)
    rows = []
    for label, _ in METHODS:
        m = means[label]
        total = sum(
            r.get(label, len(METHODS))
            for r in (r_minmax, r_atc, r_shared, r_delta)
        )
        rows.append(
            {
                "Method": label,
                "Min-max (VAC)": m["minmax"],
                "rank1": r_minmax.get(label),
                "Attr coverage (ATC)": m["atc"],
                "rank2": r_atc.get(label),
                "#Shared (ACQ)": m["shared"],
                "rank3": r_shared.get(label),
                "delta (Ours)": m["delta"],
                "rank4": r_delta.get(label),
                "Total rank": total,
            }
        )
    return rows, {"k": k, "n_queries": len(queries), "e": e, "seed": seed}


# ---------------------------------------------------------------------------
# Table III — F1 score w.r.t. ground-truth communities
# ---------------------------------------------------------------------------

# The paper could not finish Exact beyond LiveJournal nor E-VAC beyond
# Facebook within a week; we honour the same availability mask so the
# table shape matches (our capped runs would otherwise fill the cells).
TABLE3_MASK = {
    "Exact (Ours)": {"facebook", "livejournal"},
    "E-VAC-Core": {"facebook"},
}


def table3(k: int = 5, n_queries: int = 5, e: float = 0.10, seed: int = 3) -> Tuple[List[Dict], Dict]:
    """Table III: F1 of each method's community vs the planted GT."""
    rows = []
    for label, method in METHODS:
        row: Dict[str, object] = {"Method": label}
        for name in HA_GT_DATASETS:
            if label in TABLE3_MASK and name not in TABLE3_MASK[label]:
                row[name] = None
                continue
            prep = prepare(name)
            queries = pick_queries(prep, k, n_queries, seed)
            scores = []
            for q in queries:
                r = run_method(method, prep, q, k, e=e, seed=seed)
                gt = prep.gen.community_of(q)
                scores.append(f1_score(r.community or set(), gt))
            row[name] = float(np.mean(scores)) if scores else None
        rows.append(row)
    return rows, {"k": k, "n_queries": n_queries, "e": e, "seed": seed}


# ---------------------------------------------------------------------------
# Table IV — effect of the pruning strategies on Exact
# ---------------------------------------------------------------------------

TABLE4_DATASETS = ["facebook", "github", "twitch", "livejournal"]
# (label, how many of P1, P2, P3 Exact applies)
TABLE4_CONFIGS = [
    ("Exact", 3),
    ("Exact\\P3", 2),
    ("Exact\\P3+P2", 1),
    ("Exact w/o P", 0),
]


def table4(
    k: int = 4, n_queries: int = 3, seed: int = 3, cap: int = 60_000
) -> Tuple[List[Dict], Dict]:
    """Table IV: total runtime and #states per pruning configuration.

    The paper reports '>8 days' where the raw enumeration does not
    finish; our cap plays that role — capped totals are printed with a
    '>' prefix.
    """
    rows = []
    for name in TABLE4_DATASETS:
        prep = prepare(name)
        queries = pick_queries(prep, k, n_queries, seed)
        row: Dict[str, object] = {"Dataset": name}
        for label, prunings in TABLE4_CONFIGS:
            total_t, total_s, capped = 0.0, 0, False
            for q in queries:
                r = exact_cs(
                    prep.graph, q, k, gamma=prep.gamma, stats=prep.stats,
                    prunings=prunings, max_states=cap,
                )
                total_t += r.elapsed_s
                total_s += r.states
                capped |= r.capped
            row[f"{label} time(s)"] = round(total_t, 3)
            row[f"{label} #states"] = (">" if capped else "") + str(total_s)
        rows.append(row)
    return rows, {"k": k, "n_queries": n_queries, "cap": cap, "seed": seed}


# ---------------------------------------------------------------------------
# Table V — heterogeneous graphs: response time + relative error
# ---------------------------------------------------------------------------

TABLE5_DATASETS = ["dblp", "imdb", "dbpedia", "yago", "freebase"]
TABLE5_CORE = [
    ("SEA (Ours)", "sea"),
    ("ACQ-Core", "acq"),
    ("LocATC-Core", "locatc"),
    ("VAC-Core", "vac"),
]
TABLE5_TRUSS = [
    ("SEA-Truss", "sea"),
    ("LocATC-Truss", "locatc"),
    ("VAC-Truss", "vac"),
]


def table5(k: int = 4, n_queries: int = 5, e: float = 0.10, seed: int = 0) -> Tuple[List[Dict], Dict]:
    """Table V: core- and truss-based methods on the 5 hetero datasets.

    Every method runs on the meta-path projection (§VI-A); the relative
    error is measured against the exact community of the matching model.
    ACQ yields '-' on the numerical-only knowledge graphs.
    """
    rows = []
    plans = [(lbl, m, "core") for lbl, m in TABLE5_CORE] + [
        (lbl, m, "truss") for lbl, m in TABLE5_TRUSS
    ]
    # exact δ per dataset, query and model: the relative-error reference
    per_ds: Dict[str, Dict[int, Dict[str, Optional[float]]]] = {}
    for name in TABLE5_DATASETS:
        prep = prepare(name)
        queries = pick_queries(prep, k, n_queries, seed)
        per_ds[name] = {
            q: {
                model: exact_ground_truth(prep, q, k, model=model)
                for model in ("core", "truss")
            }
            for q in queries
        }
    for label, method, model in plans:
        row: Dict[str, object] = {"Method": label}
        for name in TABLE5_DATASETS:
            prep = prepare(name)
            times, errs = [], []
            for q, gt in per_ds[name].items():
                r = run_method(method, prep, q, k, model=model, e=e, seed=seed)
                if r.community is None:
                    continue
                times.append(r.elapsed_s * 1e3)
                err = relative_error(r.delta, gt[model])
                if err is not None:
                    errs.append(err * 100)
            row[f"{name} Time(ms)"] = float(np.mean(times)) if times else None
            row[f"{name} Err(%)"] = float(np.mean(errs)) if errs else None
        rows.append(row)
    return rows, {"k": k, "n_queries": n_queries, "e": e, "seed": seed}


# ---------------------------------------------------------------------------
# Table VI — case-study round trace of size-bounded SEA
# ---------------------------------------------------------------------------


def table6(
    k: int = 4,
    bounds: Sequence[Tuple[int, int]] = ((8, 16), (12, 20)),
    e: float = 0.12,
    seed: int = 1,
) -> Tuple[List[Dict], Dict]:
    """Table VI: per-round δ*, MoE, ΔS, time, error on IMDB.

    The paper's case study (q = Robert De Niro) uses size bounds
    [10,30] / [30,50]; our planted communities hold ~20 members, so the
    bounds scale to [8,16] / [12,20] (DESIGN.md §3). The query is the
    first candidate whose trace shows the paper's fail-then-refine
    pattern (≥2 rounds on some bound, every bound eventually satisfied),
    selected deterministically.
    """
    prep = prepare("imdb")

    def traces(q: int):
        return [
            sea_search(
                prep.graph, q,
                SEAParams(k=k, gamma=prep.gamma, e=e, seed=seed, size_bound=b),
                stats=prep.stats,
            )
            for b in bounds
        ]

    for q in pick_queries(prep, k, 8, seed):
        runs = traces(q)
        if all(r.satisfied for r in runs) and any(len(r.rounds) >= 2 for r in runs):
            break
    else:
        q = pick_queries(prep, k, 1, seed)[0]
        runs = traces(q)
    gt = exact_ground_truth(prep, q, k)
    rows = []
    for (lo, hi), r in zip(bounds, runs):
        for rd in r.rounds:
            err = relative_error(rd.delta_star, gt)
            rows.append(
                {
                    "Size-bound": f"[{lo},{hi}]",
                    "Round": rd.round,
                    "delta*": rd.delta_star,
                    "MoE": rd.moe,
                    "dS": rd.delta_s,
                    "Time(ms)": round(rd.elapsed_ms, 2),
                    "Err(%)": round(err * 100, 2) if err is not None else None,
                }
            )
    return rows, {"k": k, "e": e, "seed": seed, "query": q, "gt_delta": gt}


TABLES: Dict[int, Tuple[str, Callable[[], Tuple[List[Dict], Dict]]]] = {
    1: ("Table I — dataset statistics", table1),
    2: ("Table II — attribute cohesiveness (facebook)", table2),
    3: ("Table III — F1 vs ground truth", table3),
    4: ("Table IV — pruning effect on Exact", table4),
    5: ("Table V — heterogeneous graphs", table5),
    6: ("Table VI — size-bounded case study", table6),
}


def run_table(number: int) -> Tuple[List[Dict], str]:
    """Run one table at its recorded workload; return its rows and the
    text that records it (a title line naming the workload, then the
    table)."""
    title, fn = TABLES[number]
    rows, meta = fn()
    return rows, f"\n{title} ({meta})\n{format_rows(rows)}\n"
