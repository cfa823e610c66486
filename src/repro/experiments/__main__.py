"""CLI: ``python -m repro.experiments <id> [--save DIR]``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table/figure of the TSE paper.",
    )
    parser.add_argument("experiment", nargs="?", choices=sorted(EXPERIMENTS) + ["all"],
                        help="experiment id (or 'all')")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--save", metavar="DIR", help="also write results under DIR")
    args = parser.parse_args()

    if args.list or args.experiment is None:
        for experiment_id, runner in sorted(EXPERIMENTS.items()):
            doc = (runner.__doc__ or "").strip().splitlines()[0] if runner.__doc__ else ""
            print(f"{experiment_id:12s} {doc}")
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        started = time.perf_counter()
        result = EXPERIMENTS[experiment_id]()
        elapsed = time.perf_counter() - started
        print(result.format_table())
        print(f"[{experiment_id} finished in {elapsed:.3f}s]\n")
        if args.save:
            path = result.save(args.save)
            print(f"saved: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
