#!/usr/bin/env python3
"""Alternating parent/change pairs of the experiment CLIs, judged and tabulated.

What a user of ``python -m repro.experiments <id>`` waits for is the whole
process, interpreter start-up included.  This script runs each id in a
fresh interpreter on the parent commit and on the working tree, N pairs,
the two runs of a pair back to back and alternating which side goes
first::

    python tools/experiment_pairs.py --parent HEAD --pairs 10
    python tools/experiment_pairs.py --parent HEAD~1 --pairs 10 table1 theorem41

It prints ``perf_pairs``' table for two clocks per id, both lower-is-better:
``wall_s``, the whole process, and ``finished_in_s``, the CLI's own
``[<id> finished in …s]`` figure, which leaves start-up out and is
printed to the millisecond.  Verdicts follow ``perf_pairs.verdict`` with a 25 %
bound; nothing is gated on them.

Before the timed pairs, each side runs every id once untimed, so a
compiled kernel is built and the files are cached.  The parent's untimed
stdout is the reference: every run on either side must print it byte for
byte once the ``finished in`` line is removed, or the script stops with
the first differing lines.  With no ids, every id ``--list`` prints runs.
The parent is a local ``git clone`` in a temporary directory, removed
afterwards.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perf_pairs import REPO, SIDES, checkout_parent, table

FINISHED = re.compile(r"^\[(\S+) finished in ([0-9.]+)s\]\n", re.MULTILINE)
METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "finished_in_s", "better": "lower", "bound": 0.25},
]


def _cli(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")}, capture_output=True, text=True,
    )


def list_ids(checkout: Path) -> list[str]:
    """Every experiment id the checkout's ``--list`` prints."""
    return [line.split()[0] for line in _cli(checkout, "--list").stdout.splitlines() if line.strip()]


def run_experiment(checkout: Path, experiment_id: str) -> tuple[float, float, str]:
    """(whole-process seconds, the ``finished in`` seconds, stdout without that line) of one fresh run."""
    started = time.perf_counter()
    done = _cli(checkout, experiment_id)
    wall = time.perf_counter() - started
    match = FINISHED.search(done.stdout)
    if done.returncode != 0 or match is None or match.group(1) != experiment_id:
        raise SystemExit(f"{checkout}: {experiment_id} failed (exit {done.returncode}):\n{done.stderr}")
    return wall, float(match.group(2)), done.stdout[: match.start()] + done.stdout[match.end():]


def check_same(reference: str, stdout: str, experiment_id: str, side: str) -> None:
    """Stop, showing the first differing lines, unless ``stdout`` is the parent's."""
    if stdout != reference:
        diff = difflib.unified_diff(reference.splitlines(), stdout.splitlines(), "parent", side, lineterm="", n=1)
        raise SystemExit(f"{experiment_id}: {side}'s stdout differs from the parent's:\n"
                         + "\n".join(itertools.islice(diff, 40)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the revision the working tree is compared with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("ids", nargs="*", metavar="ID", help="experiment ids (default: every id --list prints)")
    args = parser.parse_args(argv)

    ids = args.ids or list_ids(REPO)
    readings = {side: {i: {m["name"]: [] for m in METRICS} for i in ids} for side in SIDES}
    parent_dir = Path(tempfile.mkdtemp(prefix="experiment_pairs.parent."))
    try:
        checkout_parent(args.parent, parent_dir)
        checkouts = {"parent": parent_dir, "change": REPO}
        reference = {}
        for side, experiment_id in itertools.product(SIDES, ids):
            stdout = run_experiment(checkouts[side], experiment_id)[2]
            check_same(reference.setdefault(experiment_id, stdout), stdout, experiment_id, side)
        for pair in range(args.pairs):
            for experiment_id in ids:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    wall, finished, stdout = run_experiment(checkouts[side], experiment_id)
                    check_same(reference[experiment_id], stdout, experiment_id, side)
                    readings[side][experiment_id]["wall_s"].append(wall)
                    readings[side][experiment_id]["finished_in_s"].append(finished)
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
    print("\n".join(table(readings, METRICS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
