"""Slow-path benchmark: the batched upcall engine vs the scalar path.

The workload is the upcall-dominated regime of the paper's attack: a
*cold* megaflow cache replaying the co-located SipSpDp detonation trace
(§5), so every packet misses, takes the slow path, and installs one of
the staircase's 8,000+ megaflows.  This is the regime where the switch
actually dies in Figs. 8–9 — the scalar slow path handles one upcall at
a time while the cache it must re-scan keeps exploding.

Two guards, persisted to ``results/BENCH_upcall.json``:

* **Equivalence** — on the cold-cache detonation replay the batched
  upcall engine is verdict-for-verdict identical to the scalar per-packet
  path: same actions, paths, ``masks_inspected``, ``rules_examined``,
  upcall/install statistics, and the same final entry set.  The batched
  engine only coalesces *generation* (one vectorised decision-procedure
  pass per burst, decision paths memoised in the chunk trie) and defers
  pure index appends; settlement stays per-packet, so this must hold
  exactly.  The pass doubles as warm-up: timing below measures a cold
  cache under a warm (steady-state) decision trie.
* **Upcall speedup** — the batched engine (``process_batch``,
  batch-chunked replay) sustains >= 3x the scalar reference's
  packets/sec, where the scalar reference processes the same trace
  packet by packet through per-key ``process``.

Each timing round flushes the megaflow cache and the lookup memo —
upcalls, not replay memoisation, are under test.  Workload builders live
in :mod:`benchmarks.common`.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_upcall.py -q -s
"""

from __future__ import annotations

import time

from common import BATCH_SIZE, ROUNDS, SMOKE, publish
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPSPDP
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig

SPEEDUP_FLOOR = 3.0

#: Smoke runs replay a detonation prefix: both sides walk the same keys,
#: so the speedup guard stays honest, just on a shallower staircase.
REPLAY_BUDGET = 2000 if SMOKE else None


def detonation_keys():
    trace = ColocatedTraceGenerator(
        SIPSPDP.build_table(), base={"ip_proto": PROTO_TCP}
    ).generate()
    keys = list(trace.keys)
    return keys[:REPLAY_BUDGET] if REPLAY_BUDGET else keys


def upcall_datapath() -> Datapath:
    return Datapath(SIPSPDP.build_table(), DatapathConfig(microflow_capacity=0))


def go_cold(datapath: Datapath) -> None:
    """Back to the all-upcalls regime: no megaflows, no memoised lookups."""
    datapath.megaflows.flush()
    datapath.megaflows.clear_memo()


def cold_sequential_pps(datapath: Datapath, keys, rounds: int = ROUNDS) -> float:
    """Best-of-``rounds`` pps, per-packet replay from a cold cache."""
    best = float("inf")
    for _ in range(rounds):
        go_cold(datapath)
        start = time.perf_counter()
        for key in keys:
            datapath.process(key)
        best = min(best, time.perf_counter() - start)
    return len(keys) / best


def cold_batch_pps(datapath: Datapath, keys, rounds: int = ROUNDS) -> float:
    """Best-of-``rounds`` pps, batch-chunked replay from a cold cache."""
    best = float("inf")
    for _ in range(rounds):
        go_cold(datapath)
        start = time.perf_counter()
        for offset in range(0, len(keys), BATCH_SIZE):
            datapath.process_batch(keys[offset : offset + BATCH_SIZE])
        best = min(best, time.perf_counter() - start)
    return len(keys) / best


def test_upcall_replay_speedup():
    """Batched upcall engine >= 3x the scalar path, verdict-identical."""
    keys = detonation_keys()
    scalar_dp = upcall_datapath()
    batched_dp = upcall_datapath()

    # Equivalence before timing anything: the full cold-cache transcript
    # (this is also the warm-up — the decision trie is steady afterwards).
    expected = [scalar_dp.process(key) for key in keys]
    got = []
    upcalls = 0
    for offset in range(0, len(keys), BATCH_SIZE):
        batch = batched_dp.process_batch(keys[offset : offset + BATCH_SIZE])
        got.extend(batch.verdicts)
        upcalls += batch.upcalls
    for i, (a, b) in enumerate(zip(expected, got)):
        assert a.action == b.action, i
        assert a.path == b.path, i
        assert a.masks_inspected == b.masks_inspected, i
        assert a.rules_examined == b.rules_examined, i
    assert upcalls == scalar_dp.stats.upcalls == batched_dp.stats.upcalls
    assert batched_dp.stats.installs == scalar_dp.stats.installs
    assert {(e.mask.values, e.key) for e in batched_dp.megaflows.entries()} == {
        (e.mask.values, e.key) for e in scalar_dp.megaflows.entries()
    }
    n_masks = batched_dp.n_masks
    assert n_masks >= (1500 if SMOKE else 8000), f"workload too small: {n_masks} masks"

    scalar_pps = cold_sequential_pps(scalar_dp, keys)
    batched_pps = cold_batch_pps(batched_dp, keys)
    speedup = batched_pps / scalar_pps

    publish(
        "upcall",
        {
            "workload": "cold-cache-sipspdp-detonation-replay",
            "use_case": SIPSPDP.name,
            "replay_packets": len(keys),
            "batch_size": BATCH_SIZE,
            "masks": n_masks,
            "megaflow_entries": batched_dp.n_megaflows,
            "upcalls_per_round": upcalls,
            "scalar_pps": round(scalar_pps, 1),
            "batched_pps": round(batched_pps, 1),
            "upcall_speedup": round(speedup, 2),
        },
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched upcall engine only {speedup:.2f}x the scalar path "
        f"({batched_pps:.0f} vs {scalar_pps:.0f} pps at {n_masks} masks)"
    )


def test_upcall_benchmark(benchmark):
    """pytest-benchmark hook for the upcall replay (trajectory tracking)."""
    keys = detonation_keys()
    datapath = upcall_datapath()
    datapath.process_batch(keys)  # steady-state decision trie

    def replay():
        go_cold(datapath)
        total = 0
        for offset in range(0, len(keys), BATCH_SIZE):
            total += len(datapath.process_batch(keys[offset : offset + BATCH_SIZE]))
        return total

    assert benchmark(replay) == len(keys)
