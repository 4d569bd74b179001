"""pytest-benchmark targets — one per evaluation table.

Run with::

    pytest benchmarks/test_bench_tables.py --benchmark-only

Each benchmark regenerates one table of ``repro.experiments.TABLES`` at
its recorded workload (the defaults of its ``tableN`` function) and
prints it, so the bench log doubles as the reproduction record. The
table harnesses are deterministic (seeded queries/sampling), so a single
measured round per table is meaningful; wall times land in the benchmark
report.
"""
import pathlib

import pytest

from repro.experiments import TABLES, run_table

# pytest captures stdout, so the rendered tables are also appended to a
# durable artifact next to this file — the reproduction record referenced
# from EXPERIMENTS.md
_OUT = pathlib.Path(__file__).parent / "tables_output.txt"
_FRESH = {"done": False}

# rows each table prints; Table VI prints one per SEA round instead
ROWS = {1: 10, 2: 6, 3: 6, 4: 4, 5: 7}


def _run_and_print(number):
    rows, text = run_table(number)
    print(text, end="")
    mode = "a" if _FRESH["done"] else "w"
    _FRESH["done"] = True
    with open(_OUT, mode) as f:
        f.write(text)
    return rows


@pytest.mark.benchmark(group="tables")
@pytest.mark.parametrize("number", sorted(TABLES))
def test_table(benchmark, number):
    rows = benchmark.pedantic(
        lambda: _run_and_print(number), rounds=1, iterations=1
    )
    if number == 6:
        assert len(rows) >= 2  # at least one round per size bound
    else:
        assert len(rows) == ROWS[number]
