"""``process_batch``'s per-burst bookkeeping against the per-packet reference.

The burst reads the pre-packet ``(n_masks, expected_scan_cost())`` once per
upcall and flushes its per-packet counters in a ``finally``; both rest on
the :class:`MegaflowStore` premise that only a miss moves a cache's size
or a backend's cost estimate.  These tests hold that premise where it can
break: on tuplechain, whose EMA moves mid-burst; at the flow limit; on dead
entries; on a backend that breaks it; and on a burst that raises mid-way.
"""

from __future__ import annotations

import random

import pytest

from repro.classifier.backend import MegaflowStore
from repro.classifier.tss import TupleSpaceSearch
from repro.core.usecases import SIPDP
from repro.exceptions import CacheInvariantError
from repro.switch.datapath import Datapath, DatapathConfig
from tests.test_batch import (
    STATS_FIELDS,
    _detonation_trace,
    assert_datapaths_equal,
    assert_verdicts_equal,
)

TRACE = _detonation_trace(SIPDP)


def _bursts(seed: int = 3) -> list[list]:
    """Two bursts over a slice of the staircase: every key recurs (duplicate
    objects included), in an order that interleaves misses with hits."""
    keys = TRACE[:48] * 3
    random.Random(seed).shuffle(keys)
    return [keys[:70], keys[70:]]


@pytest.mark.parametrize("limit", [200_000, 20], ids=["roomy", "rejects_mid_burst"])
@pytest.mark.parametrize("mask_cache", [False, True], ids=["nomaskcache", "maskcache"])
@pytest.mark.parametrize("microflow", [0, 8], ids=["nomicroflow", "microflow"])
@pytest.mark.parametrize("backend", ["tss", "tuplechain"])
def test_burst_snapshots_equal_per_packet_reads(backend, microflow, mask_cache, limit):
    """mask_counts / probe_costs ≡ reading n_masks / scan_cost before each
    ``process`` — with a dead entry recurring and the flow limit rejecting
    mid-burst, under ``check_invariants`` (which re-reads per packet)."""

    def mk():
        datapath = Datapath(
            SIPDP.build_table(),
            DatapathConfig(
                microflow_capacity=microflow,
                enable_mask_cache=mask_cache,
                mask_cache_size=8,
                max_megaflows=limit,
                check_invariants=True,
                megaflow_backend=backend,
            ),
        )
        installed = [datapath.process(key).installed for key in TRACE[:6]]
        assert datapath.kill_entries([installed[2]], permanent=True) == 1
        return datapath

    a, b = mk(), mk()
    costs_seen = set()
    for burst in _bursts():
        sequential, mask_counts, probe_costs = [], [], []
        for key in burst:
            mask_counts.append(a.n_masks)
            probe_costs.append(a.scan_cost)
            sequential.append(a.process(key, now=1.0))
        batch = b.process_batch(burst, now=1.0)
        assert list(batch.mask_counts) == mask_counts
        assert list(batch.probe_costs) == probe_costs
        assert_verdicts_equal(sequential, batch.verdicts)
        assert_datapaths_equal(a, b)
        costs_seen.update(probe_costs)
    assert b.stats.dead_entry_suppressed >= 3
    assert (b.stats.install_rejected > 0) == (limit == 20)
    # The case the snapshot could get wrong: the cost moved between upcalls
    # of one burst (TSS: with the mask count; tuplechain: with its miss EMA).
    assert len(costs_seen) > 4


class _LearnsFromHits(TupleSpaceSearch):
    """Breaks the premise: its cost estimate also moves on a *hit*."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.hits_seen = 0

    def _register_hits(self, entries, now):
        super()._register_hits(entries, now)
        self.hits_seen += len(entries)

    def expected_scan_cost(self) -> float:
        return super().expected_scan_cost() + self.hits_seen


def test_backend_whose_cost_moves_on_a_hit_trips_the_invariant():
    key = TRACE[0]

    def run(check: bool):
        datapath = Datapath(
            SIPDP.build_table(),
            DatapathConfig(microflow_capacity=0, check_invariants=check),
            megaflows=_LearnsFromHits(check_invariants=check),
        )
        return datapath.process_batch([key, key, key])

    with pytest.raises(CacheInvariantError, match="without an upcall"):
        run(check=True)
    # Unchecked, the burst completes on the snapshot (which is the saving).
    assert run(check=False).upcalls == 1


@pytest.mark.parametrize("microflow", [0, 8])
def test_burst_that_raises_midway_leaves_the_per_packet_counters(microflow):
    """Counters flushed in the ``finally`` ≡ the per-packet writes of the
    sequential loop stopped by the same exception at the same packet."""

    class Boom(RuntimeError):
        pass

    def mk():
        datapath = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=microflow))
        settle, calls = datapath._install_upcall, [0]

        def failing(key, result, scanned):
            calls[0] += 1
            if calls[0] == 25:
                raise Boom
            return settle(key, result, scanned)

        datapath._install_upcall = failing
        return datapath

    burst = _bursts()[0]
    a, b = mk(), mk()
    with pytest.raises(Boom):
        for key in burst:
            a.process(key, now=1.0)
    with pytest.raises(Boom):
        b.process_batch(burst, now=1.0)
    assert a.stats.packets < len(burst) and a.stats.megaflow_hits > 0
    assert_datapaths_equal(a, b)
    # ... and the datapath keeps counting from there.
    b.process_batch(burst[:5], now=1.0)
    for key in burst[:5]:
        a.process(key, now=1.0)
    for field in STATS_FIELDS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field


def test_warm_burst_reads_the_cost_once_per_upcall(monkeypatch):
    """A count guard, not a clock: a 256-burst calls ``expected_scan_cost``
    at most ``upcalls + 1`` times."""
    datapath = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
    datapath.process_batch(TRACE[:200])
    calls = [0]
    original = MegaflowStore.expected_scan_cost

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(MegaflowStore, "expected_scan_cost", counting)
    warm = (TRACE[:200] * 2)[:256]
    batch = datapath.process_batch(warm)
    assert len(batch) == 256 and batch.upcalls == 0
    assert calls[0] == 1
    calls[0] = 0
    mixed = warm[:250] + TRACE[200:206]
    random.Random(1).shuffle(mixed)
    batch = datapath.process_batch(mixed)
    assert batch.upcalls == 6
    assert calls[0] <= batch.upcalls + 1
