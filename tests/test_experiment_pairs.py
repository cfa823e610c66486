"""``tools/experiment_pairs.py`` end to end on one fast id (no clock assertion)."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))  # the tool imports its sibling perf_pairs, as a script run does
experiment_pairs = importlib.import_module("experiment_pairs")


def test_a_run_reports_both_clocks_and_strips_the_finished_line():
    wall, finished, stdout = experiment_pairs.run_experiment(experiment_pairs.REPO, "table1")
    assert wall > 0 and finished >= 0
    assert stdout and "finished in" not in stdout


def test_a_failing_id_stops_the_run():
    with pytest.raises(SystemExit, match="no_such_id failed"):
        experiment_pairs.run_experiment(experiment_pairs.REPO, "no_such_id")


def test_differing_stdout_stops_the_run_with_the_diff():
    with pytest.raises(SystemExit, match=r"table1: change's stdout differs(.|\n)*-a 1(.|\n)*\+a 2"):
        experiment_pairs.check_same("head\na 1\n", "head\na 2\n", "table1", "change")
    experiment_pairs.check_same("same\n", "same\n", "table1", "change")


def test_main_tabulates_both_clocks_per_id(monkeypatch, capsys):
    # The working tree stands in for the parent: no clone, same code on both sides.
    monkeypatch.setattr(experiment_pairs, "checkout_parent",
                        lambda rev, target: (target / "src").symlink_to(experiment_pairs.REPO / "src"))
    assert experiment_pairs.main(["--parent", "HEAD", "--pairs", "1", "table1"]) == 0
    rows = [line.split(" | ")[:2] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["| table1", "wall_s"], ["| table1", "finished_in_s"]]
