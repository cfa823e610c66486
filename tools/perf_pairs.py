#!/usr/bin/env python3
"""Alternating parent/change pairs of the perf harness, judged and tabulated.

Every perf PR owes the same table: N pairs of ``benchmarks/perf/run.py``
runs — one on the parent commit, one on the working tree, alternating which
side goes first — and per (workload, end-to-end metric) each side's median
and quartiles, the ratio, the pair wins and a verdict.  This script makes
it::

    python tools/perf_pairs.py --parent HEAD --pairs 10
    python tools/perf_pairs.py --parent HEAD~1 --pairs 10 --workload warm_replay --runs out/pairs

The parent is a local ``git clone`` in a temporary directory next to the
per-run result files, removed afterwards; nothing is written into ``.git``
(a killed run leaves no worktree to prune).  ``--runs DIR`` keeps the
result files, and a run whose file is already there is read instead of
repeated, so an interrupted session resumes and a finished one re-prints
its table.  Pair ``i`` runs with seed ``--seed + i`` on both sides, for
``BENCHMARK.json``'s ``run_seconds``.

The harness is driven as a subprocess and read through its ``--out`` JSON;
nothing is imported from it.  Metric directions and bounds come from
``BENCHMARK.json``.

Verdicts (``verdict``) follow the choosing-metrics guide, section 8:

* ``better`` — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in the metric's good
  direction, by more than the parent's inter-quartile distance;
* ``REGRESSION`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — neither, and either side's inter-quartile distance is
  wider than the bound, unless every run of the change reads better than
  every run of the parent; or one side's median, but not the other's, is
  zero (a clock at its resolution floor);
* ``ok`` — otherwise: inside the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3), inclusive method: a single reading is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """(verdict, pair wins of the change) for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are the two readings of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the relative
    worsening BENCHMARK.json tolerates.  See the module docstring.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gain = sign * (change_median - parent_median)
    q1, q3 = quartiles(parent)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better", wins
    if parent_median == 0 or change_median == 0:  # a clock at its resolution floor has no ratio
        return ("ok" if parent_median == change_median else "unresolved"), wins
    if -gain > bound * abs(parent_median):
        return "REGRESSION", wins
    c1, c3 = quartiles(change)
    spread = max((q3 - q1) / abs(parent_median), (c3 - c1) / abs(change_median))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "ok", wins


def table(readings: dict, metrics: list[dict]) -> list[str]:
    """The markdown table: ``readings[side][workload][metric]`` is a list, pair by pair."""
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] | change/parent | wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]

    def cell(values: list[float]) -> str:
        q1, q3 = quartiles(values)
        return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"

    for workload in readings["parent"]:
        for metric in metrics:
            parent = readings["parent"][workload][metric["name"]]
            change = readings["change"][workload][metric["name"]]
            word, wins = verdict(parent, change, metric["better"], metric["bound"])
            ratio = statistics.median(change) / (statistics.median(parent) or math.nan)
            lines.append(
                f"| {workload} | {metric['name']} | {cell(parent)} | {cell(change)} "
                f"| {ratio:.3f} | {wins}/{len(parent)} | {word} |"
            )
    return lines


def checkout_parent(rev: str, target: Path) -> None:
    """A local clone of this repository at ``rev`` (no worktree: nothing in .git to prune)."""
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(REPO), str(target)], check=True)
    subprocess.run(["git", "-C", str(target), "checkout", "--quiet", "--detach", sha], check=True)


def run_harness(checkout: Path, out: Path, seed: int, seconds: float, workloads: list[str]) -> dict:
    """One ``run.py`` run of ``checkout`` (skipped when ``out`` is already there)."""
    if not out.exists():
        command = [sys.executable, str(checkout / "benchmarks" / "perf" / "run.py"),
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
        for name in workloads:
            command += ["--workload", name]
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        if done.returncode != 0 or not out.exists():
            out.unlink(missing_ok=True)  # a failed run is reported, never resumed from
            raise SystemExit(f"harness run failed (exit {done.returncode}): {' '.join(command)}")
    report = json.loads(out.read_text())
    if report["seed"] != seed or (workloads and set(workloads) != set(report["workloads"])):
        raise SystemExit(f"{out} is from another session (seed {report['seed']}, {list(report['workloads'])})")
    return report


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the revision the working tree is compared with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=[], help="repeatable; default: all of BENCHMARK.json's")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--runs", metavar="DIR", help="keep (and resume from) the per-run result files here")
    args = parser.parse_args(argv)

    runs = Path(args.runs) if args.runs else Path(tempfile.mkdtemp(prefix="perf_pairs."))
    runs.mkdir(parents=True, exist_ok=True)
    parent_dir = Path(tempfile.mkdtemp(prefix="perf_pairs.parent.", dir=runs))
    readings: dict = {side: {} for side in SIDES}
    attempted, failed = dict.fromkeys(SIDES, 0), dict.fromkeys(SIDES, 0)
    try:
        checkout_parent(args.parent, parent_dir)
        checkouts = {"parent": parent_dir, "change": REPO}
        for pair in range(args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                report = run_harness(checkouts[side], runs / f"{side}_{pair:02d}.json",
                                     args.seed + pair, benchmark["run_seconds"], args.workload)
                for workload, result in report["workloads"].items():
                    attempted[side] += result["attempted"]
                    failed[side] += result["failed"]
                    per_metric = readings[side].setdefault(workload, {})
                    for metric in benchmark["end_to_end"]:
                        per_metric.setdefault(metric["name"], []).append(result["metrics"][metric["name"]]["value"])
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
        if not args.runs:
            shutil.rmtree(runs, ignore_errors=True)
    print("\n".join(table(readings, benchmark["end_to_end"])))
    print()
    for side in SIDES:
        print(f"{side}: {failed[side]} of {attempted[side]} ops failed")
    return 1 if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
