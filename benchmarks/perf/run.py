"""One command for every perf number of this repo (see README.md beside it).

    python benchmarks/perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]
    python benchmarks/perf/run.py --compare A.json B.json

The runner is one process.  It launches one fresh interpreter per workload,
sequentially (isolating peak RSS, GC state and crashes), waits for it under
a hard timeout, kills the workload's whole process group if that expires,
and fails if any descendant or ``/dev/shm`` segment outlives a workload.

Every metric is printed as ``workload metric value unit``; the last line of
stdout is one JSON object ``{correct, attempted, failed, metrics}`` — the
end-to-end metrics without ``--trace``, the per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    BENCHMARK,
    HERE,
    OUT_DIR,
    ROOT,
    Calibrator,
    cpu_seconds,
    fingerprint,
    peak_rss_mb,
    process_group_members,
    reap_resource_tracker,
    shm_segments,
)

SRC = ROOT / "src"
END_TO_END = BENCHMARK["end_to_end"]
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]

SMOKE_SECONDS = 0.05
SETUP_REPEATS = 3
MIN_SAMPLES = 4
CHILD_TIMEOUT = 170.0  # the contract's hard limit per run is 180 s


# -- the workload interpreter ----------------------------------------------------------
def _measure(workload, seconds: float) -> dict:
    """Set up (timed), check, then timed samples for ``seconds``.

    At smoke size (no timing value) one set-up and one sample do.
    """
    smoke = workload.sizes.label == "smoke"
    setup_repeats = 1 if smoke or workload.rebuild_per_sample else SETUP_REPEATS
    min_samples = 1 if smoke else MIN_SAMPLES
    calibrator = Calibrator()
    # Per metric: one reading per sample (per build for setup_s), in
    # reference-host units and as the clock read them.
    scaled: dict[str, list[float]] = {"ops_per_s": [], "cpu_us_per_op": [], "setup_s": []}
    raw: dict[str, list[float]] = {"ops_per_s": [], "cpu_us_per_op": [], "setup_s": []}

    def timed_build() -> None:
        before = calibrator.read()
        start = time.perf_counter()
        workload.build()
        elapsed = time.perf_counter() - start
        raw["setup_s"].append(elapsed)
        scaled["setup_s"].append(elapsed * calibrator.factor(before, calibrator.read()))

    for _ in range(setup_repeats):
        timed_build()
    attempted, failed = workload.check()

    began = time.perf_counter()
    while True:
        if workload.rebuild_per_sample:
            timed_build()
        pids = workload.worker_pids()
        gc.collect()  # a sample never pays for its predecessor's garbage
        # One sample = its slices, each scaled by the host speed read on
        # both sides of it (most workloads are a single slice).
        ops = 0
        wall = cpu = raw_wall = raw_cpu = 0.0
        slices = workload.slices()
        reading = calibrator.read()
        while True:
            cpu_before = cpu_seconds(pids)
            start = time.perf_counter()
            done = next(slices, None)
            slice_wall = time.perf_counter() - start
            slice_cpu = cpu_seconds(pids) - cpu_before
            if done is None:
                break
            following = calibrator.read()
            factor = calibrator.factor(reading, following)
            reading = following
            ops += done
            wall += slice_wall * factor
            cpu += slice_cpu * factor
            raw_wall += slice_wall
            raw_cpu += slice_cpu
        attempted += ops
        failed += workload.after_sample()
        scaled["ops_per_s"].append(ops / wall)
        scaled["cpu_us_per_op"].append(1e6 * cpu / ops)
        raw["ops_per_s"].append(ops / raw_wall)
        raw["cpu_us_per_op"].append(1e6 * raw_cpu / ops)
        n_samples = len(scaled["ops_per_s"])
        if n_samples == min_samples:
            # Peak memory after a fixed amount of work, however many more
            # samples this host fits into --seconds.
            rss = peak_rss_mb(pids)
        if time.perf_counter() - began >= seconds and n_samples >= min_samples:
            break

    units = {metric["name"]: metric["unit"] for metric in END_TO_END}

    def summary(name: str, values: list[float]) -> dict:
        return {
            "value": statistics.median(values),
            "unit": units[name],
            "min": min(values),
            "max": max(values),
            "samples": len(values),
        }

    metrics = {name: summary(name, values) for name, values in scaled.items()}
    for name, values in raw.items():
        metrics[name]["raw_median"] = statistics.median(values)
    metrics["peak_rss_mb"] = summary("peak_rss_mb", [rss])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _trace(workload, kernel_build_s: float) -> dict:
    """Per-layer metrics: component replays on twins, spans dumped to out/."""
    import layers
    from workloads import WarmReplay

    name = workload.name
    tracer = layers.Tracer(workload.sizes, workload.seed)
    failures: list[str] = []  # the sharded twins' oracle
    workload.build()
    attempted, failed = workload.check()
    layers.common_layers(tracer, kernel_build_s)
    fixture = WarmReplay(workload.seed, workload.sizes)
    fixture.build()
    if name in layers.SINGLE + layers.SHARDED:
        layers.warm_layers(tracer, fixture)
        layers.cold_layers(tracer, fixture)
    layers.scalar_layers(tracer, fixture)
    if name in layers.SHARDED:
        failures = layers.sharded_layers(tracer, workload)
    if name in layers.NETSIM:
        layers.netsim_layers(tracer, fixture)
    layers.workload_layers(tracer, workload)
    tracer.spans.dump(OUT_DIR / f"trace_{name}.json")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": attempted if failures else failed,
        "metrics": {
            metric: {"value": value, "unit": layers.UNITS[metric]}
            for metric, value in tracer.values.items()
        },
    }


def child_main(args) -> int:
    """Run one workload in this (fresh) interpreter; print one JSON line."""
    from repro.classifier.kernel import make_scan_kernel, resolve_scan_kernel_name

    from workloads import FULL, SMOKE, WORKLOADS

    # Once, before any timing: loading the kernel must never land in setup_s.
    start = time.perf_counter()
    make_scan_kernel("auto")
    kernel_build_s = time.perf_counter() - start

    host = fingerprint(resolve_scan_kernel_name("auto"))
    workload = WORKLOADS[args.workload[0]](args.seed, SMOKE if args.smoke else FULL)
    try:
        if args.trace:
            result = _trace(workload, kernel_build_s)
        else:
            result = _measure(workload, args.seconds)
    finally:
        workload.close()
        stray = multiprocessing.active_children()
        reap_resource_tracker()
    if stray:
        print(f"FAILED {workload.name}: children still running: {stray}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    result["fingerprint"] = host
    print(json.dumps(result))
    return 0


# -- the runner ----------------------------------------------------------------------
def _run_child(name: str, args) -> dict | None:
    """One workload in its own interpreter and process group; None on failure."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    segments = shm_segments()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=args.timeout)
        problem = None if child.returncode == 0 else f"exit code {child.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"timed out after {args.timeout:.0f} s"
        stdout = ""
    # The child led its own session, so its pid is the group every
    # descendant (pmd workers, resource tracker) still belongs to.
    survivors = process_group_members(child.pid)
    if child.poll() is None or survivors:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        deadline = time.monotonic() + 5.0
        while process_group_members(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
    if survivors and problem is None:
        problem = f"left processes running: {survivors}"
    leaked = shm_segments() - segments
    if leaked:
        for segment in leaked:
            os.unlink(os.path.join("/dev/shm", segment))
        problem = problem or f"leaked /dev/shm segments: {sorted(leaked)}"
    if problem is not None:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def runner_main(args) -> int:
    names = args.workload or WORKLOAD_NAMES
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    if not SRC.is_dir():
        print(f"no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    # Build the scan kernel here: a cold cffi compile in a workload
    # interpreter would land in its peak_rss_mb (+12 % measured).
    from repro.classifier.kernel import make_scan_kernel

    make_scan_kernel("auto")

    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": "smoke" if args.smoke else "full", "workloads": {}}
    ok = True
    for name in names:
        result = _run_child(name, args)
        if result is None:
            ok = False
            continue
        report["fingerprint"] = result.pop("fingerprint")
        report["workloads"][name] = result
        if report["fingerprint"]["noisy"]:
            print(f"NOISY {name}: loadavg above cpu count at start", file=sys.stderr)
        for metric, reading in result["metrics"].items():
            print(f"{name} {metric} {reading['value']:.6g} {reading['unit']}")
        print(f"{name} ops attempted {result['attempted']} failed {result['failed']}")
        ok = ok and result["correct"]

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1))
    if not ok:
        return 1
    results = report["workloads"]
    single = len(names) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (metric if single else f"{name}.{metric}"): {
                "value": reading["value"], "unit": reading["unit"]
            }
            for name, r in results.items()
            for metric, reading in r["metrics"].items()
        },
    }))
    return 0


# -- comparing two result files ----------------------------------------------------------
def compare_main(path_a: str, path_b: str) -> int:
    """Per (workload, end-to-end metric): B against A, judged by the bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for field in ("scan_kernel", "cpus"):
        if a["fingerprint"][field] != b["fingerprint"][field]:
            print(f"refusing to compare: {field} differs "
                  f"({a['fingerprint'][field]} vs {b['fingerprint'][field]})", file=sys.stderr)
            return 2
    if (a["size"], a["trace"]) != (b["size"], b["trace"]) or a["trace"]:
        print("refusing to compare: need two untraced runs of the same size", file=sys.stderr)
        return 2
    worst = 0
    print(f"{'workload':<16} {'metric':<14} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>6}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in END_TO_END:
            before = a["workloads"][name]["metrics"][metric["name"]]["value"]
            after = b["workloads"][name]["metrics"][metric["name"]]["value"]
            worse = (after - before) / before * (-1 if metric["better"] == "higher" else 1)
            beyond = worse > metric["bound"]
            worst += beyond
            print(f"{name:<16} {metric['name']:<14} {before:>12.5g} {after:>12.5g} "
                  f"{worse:>+8.1%} {metric['bound']:>6.0%}{'  REGRESSION' if beyond else ''}")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed phase per workload (default {BENCHMARK['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no timing value")
    parser.add_argument("--out", help="also write every result (with min/max, raw medians) here")
    parser.add_argument("--timeout", type=float, default=CHILD_TIMEOUT,
                        help="hard limit per workload, seconds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else BENCHMARK["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)
    return runner_main(args)


if __name__ == "__main__":
    sys.exit(main())
