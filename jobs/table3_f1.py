"""Table III job: F1 vs ground-truth communities.

    python jobs/table3_f1.py [--queries N] [--k K] [--seed S]
"""
from _common import std_parser

from repro.experiments import format_rows, table3


def main() -> None:
    args = std_parser(__doc__).parse_args()
    rows, meta = table3(k=args.k or 5, n_queries=args.queries, seed=args.seed)
    print(f"Table III — F1 w.r.t. ground truth ({meta})")
    print(format_rows(rows))


if __name__ == "__main__":
    main()
