"""Measurement plumbing for the perf harness: clocks, spans, process hygiene.

Nothing here knows about a workload.  It imports only the standard library
and numpy, so it also loads in a directory that lacks ``src/``.

Why timings are host-speed normalised.  This repo is measured on small
shared VMs whose effective speed flips between regimes ~1.4x apart every
few tens of seconds (a busy SMT sibling: user CPU time inflates together
with wall time; page faults, context switches and steal do not).  A run
that lands in the slow regime would read as a 30 % regression of code that
did not change.  Every timed interval is therefore bracketed by a fixed
reference kernel (:class:`Calibrator`) and scaled by ``NOMINAL / measured``;
medians are taken over the scaled samples.  On the reference host in its
fast regime the factor is 1 and the numbers are plain seconds; the raw
(unscaled) medians are kept next to them in the JSON written by ``--out``.
Measured on this host over a 7-minute stretch with a regime flip every
~20 s: run-to-run spread (IQR/median of 8 s windows) of warm replay fell
from 0.27 raw to 0.05 scaled, of cold detonation from 0.19 to 0.06.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: The catalogue — workload names, metric names, units and bounds — lives in
#: BENCHMARK.json alone; the code reads it from there.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- host-speed calibration ----------------------------------------------------------
class Calibrator:
    """A fixed reference kernel whose duration tracks the host's current speed.

    The kernel is interpreter work (dict inserts keyed by tuples, a loop
    over the items): of the candidates tried — python, an L2-resident numpy
    pass, a 32 MB numpy streaming pass — it is the one whose slow-regime
    inflation (1.42x) matches the workloads' (1.35x-1.40x); streaming
    inflates only 1.17x and under-corrects.

    ``NOMINAL_S`` is the kernel's duration on the reference host (this
    repo's 2-vCPU CI box in its fast regime); :meth:`factor` returns
    ``NOMINAL_S / measured`` — multiply a measured interval by it to get
    reference-host seconds.  One reading is the median of four
    back-to-back kernel runs (~28 ms in all): long enough to average over
    the host's millisecond-scale jitter, and one pre-emption does not read
    as a slow host.  (Tried on recorded series: the minimum of the runs
    tracks worse — spread 0.042 against 0.031 for the median.)
    """

    NOMINAL_S = 0.0069

    @staticmethod
    def _kernel() -> float:
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(40_000):
            table[(i & 255, i)] = i
        acc = 0
        for key, value in table.items():
            acc += value ^ key[0]
        return time.perf_counter() - start

    def read(self) -> float:
        """Seconds the reference kernel takes right now (median of four)."""
        return statistics.median(self._kernel() for _ in range(4))

    def factor(self, *readings: float) -> float:
        """Scale factor from measured to reference-host seconds."""
        return self.NOMINAL_S / statistics.fmean(readings)


# -- spans ---------------------------------------------------------------------------
class Spans:
    """In-memory span log: ``{name, start, end, parent, scale}`` per timed call.

    Spans nest by the ``with`` structure of the benchmark code that records
    them; ``parent`` is the index of the enclosing span (or ``None``).
    ``start``/``end`` are raw ``perf_counter`` readings; ``scale`` is the
    host-speed factor of the :meth:`window` the span was recorded in, and
    every duration this class hands out is already multiplied by it.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.calibrator = Calibrator()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "scale": 1.0,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def window(self):
        """Scale every span recorded inside by the host speed read on both sides.

        Keep a window short (one pass over the keys, well under a second):
        the two readings must describe the host while the spans ran.
        """
        first = len(self.records)
        before = self.calibrator.read()
        yield
        factor = self.calibrator.factor(before, self.calibrator.read())
        for record in self.records[first:]:
            record["scale"] = factor

    @staticmethod
    def duration(record: dict) -> float:
        return (record["end"] - record["start"]) * record["scale"]

    def durations(self, name: str) -> list[float]:
        return [self.duration(r) for r in self.records if r["name"] == name]

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(self.durations(name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records))


# -- CPU / memory accounting -----------------------------------------------------------
def _proc_stat_fields(pid: int) -> list[str]:
    # comm may contain spaces/parens: split after the last ')'.
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(worker_pids: list[int]) -> float:
    """User+sys CPU of this process (all threads) plus the listed workers.

    Workers are read from ``/proc/<pid>/schedstat`` (on-CPU nanoseconds):
    the clock-tick counters of ``/proc/<pid>/stat`` are 10 ms coarse, a
    fifth of a pmd worker's share of one 4,000-packet sample.
    """
    total = time.process_time()
    for pid in worker_pids:
        total += int(Path(f"/proc/{pid}/schedstat").read_text().split()[0]) / 1e9
    return total


def peak_rss_mb(worker_pids: list[int]) -> float:
    """Peak resident set of this interpreter plus the listed (live) workers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


# -- process hygiene -------------------------------------------------------------------
def reap_resource_tracker() -> None:
    """Stop and wait for the ``multiprocessing.resource_tracker`` child.

    ``shared_memory`` spawns it on first use and nothing ever stops it: it
    outlives the interpreter and is re-parented as a stray ``python``.  It
    exits once every copy of its pipe is closed, so call this only after
    the pmd workers (which inherited the fd) have been joined.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def process_group_members(pgid: int) -> list[int]:
    """Pids (other than ours) whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            fields = _proc_stat_fields(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid:  # pgrp
            members.append(int(entry))
    return members


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# -- host fingerprint --------------------------------------------------------------------
def fingerprint(scan_kernel: str) -> dict:
    """What a result must share with another to be comparable."""
    load1 = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scan_kernel": scan_kernel,
        "loadavg_1m": round(load1, 2),
        "noisy": load1 > cpus,
    }
