"""Print Tables I–VI at the workload recorded in benchmarks/tables_output.txt.

Every table runs on the driver and starts no Spark; the workload of each
is the defaults of its ``repro.experiments.tableN`` function, named on the
table's title line.

    python jobs/tables.py [N ...]    # N in 1..6; default: all six
"""
import argparse

from repro.experiments import TABLES, run_table


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "tables", nargs="*", type=int, metavar="N",
        help=f"table number, one of {sorted(TABLES)} (default: all)",
    )
    numbers = p.parse_args().tables or sorted(TABLES)
    for n in numbers:
        if n not in TABLES:
            p.error(f"unknown table {n}; known: {sorted(TABLES)}")
    for n in numbers:
        print(run_table(n)[1], end="", flush=True)


if __name__ == "__main__":
    main()
