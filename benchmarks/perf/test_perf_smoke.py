"""Tier-1 smoke test of the perf harness: names, oracles, and process hygiene.

Runs every workload once at ``--smoke`` size, untraced and traced.  Nothing
here asserts a timing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402
from harness import shm_segments  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def harness_processes() -> list[str]:
    """Command lines of live processes started from this harness."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ").decode()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if str(HERE / "run.py") in cmdline:
            found.append(f"{entry}: {cmdline}")
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both smoke runs: {trace: (completed process, parsed --out file)}."""
    out = tmp_path_factory.mktemp("perf")
    segments = shm_segments()
    runs = {}
    for trace in (0, 1):
        path = out / f"trace{trace}.json"
        done = subprocess.run(
            [*RUN, "--smoke", "--trace", str(trace), "--out", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        runs[trace] = (done, json.loads(path.read_text()), path)
    assert harness_processes() == []
    assert shm_segments() == segments
    return runs


def test_every_catalogued_workload_has_code():
    assert list(workloads.WORKLOADS) == WORKLOAD_NAMES
    assert BENCHMARK["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_and_no_op_failed(smoke, trace):
    done, report, _ = smoke[trace]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert list(report["workloads"]) == WORKLOAD_NAMES
    for name, result in report["workloads"].items():
        assert {metric: reading["unit"] for metric, reading in result["metrics"].items()} == expected
        assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
        for metric in expected:
            assert f"{name} {metric} " in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0


def test_single_workload_prints_the_contract_line():
    done = subprocess.run(
        [*RUN, "--smoke", "--workload", "cold_burst", "--seed", "3", "--seconds", "0.05",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [metric["name"] for metric in BENCHMARK["end_to_end"]]
    assert all(reading["value"] > 0 for reading in last["metrics"].values())


def test_a_wrong_digest_fails_every_op():
    wl = workloads.FleetTick(0, workloads.SMOKE)
    wl.reference = "not the golden digest"
    try:
        wl.build()
        attempted, failed = wl.check()
    finally:
        wl.close()
    assert failed == attempted > 0


def test_compare_judges_by_the_bounds(smoke, tmp_path):
    _, report, path = smoke[0]
    same = subprocess.run([*RUN, "--compare", str(path), str(path)], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout

    slower = json.loads(json.dumps(report))
    slower["workloads"]["warm_replay"]["metrics"]["ops_per_s"]["value"] *= 0.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    worse = subprocess.run(
        [*RUN, "--compare", str(path), str(tmp_path / "slower.json")], capture_output=True, text=True
    )
    assert worse.returncode == 1 and "REGRESSION" in worse.stdout

    other_host = json.loads(json.dumps(report))
    other_host["fingerprint"]["cpus"] += 1
    (tmp_path / "other.json").write_text(json.dumps(other_host))
    refused = subprocess.run(
        [*RUN, "--compare", str(path), str(tmp_path / "other.json")], capture_output=True, text=True
    )
    assert refused.returncode == 2


def test_a_hung_workload_is_killed_with_its_workers():
    segments = shm_segments()
    done = subprocess.run(
        [*RUN, "--smoke", "--workload", "sharded_process", "--seconds", "60", "--timeout", "2.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "timed out" in done.stderr
    assert harness_processes() == []
    assert shm_segments() == segments


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "warm_replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
