"""Removal is linear in the mask count: every path goes through one bulk pass.

Each test detonates SipDp (513 masks), then removes every other entry in
scan order through one of the paths that remove megaflows — idle eviction,
MFCGuard's kill, an RSS re-map's extract and a live rebuild's journal
replay.  Survivors then sit ahead of victims in the mask list, which is
where a per-entry ``list.remove`` of the mask pays for every survivor ahead
of it (≈ n²/8 comparisons).  The tests count ``FlowMask`` comparisons, not
time, so a quadratic removal fails in a second on any host.
"""

from __future__ import annotations

import pytest

from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.packet.fields import FlowMask
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig

SIPDP_MASKS = 513


class _Split:
    """A dispatcher that sends exactly ``movers`` to queue 1."""

    def __init__(self, movers):
        self.movers = {entry.key for entry in movers}

    def queue_of(self, key) -> int:
        return int(key.values in self.movers)


def _evict(datapath, victims):
    for entry in victims:
        entry.last_used = -datapath.config.idle_timeout
    return datapath.evict_idle(now=0.0)


def _kill(datapath, victims):
    assert datapath.kill_entries(victims, permanent=True) == len(victims)
    return victims


def _extract(datapath, victims):
    delta = datapath.rebalance_extract(_Split(victims), shard_id=0)
    assert delta["dead"] == []
    return delta["entries"]


PATHS = {"evict_idle": _evict, "kill_entries": _kill, "rebalance_extract": _extract}


@pytest.fixture
def detonated():
    datapath = Datapath(
        SIPDP.build_table(), DatapathConfig(microflow_capacity=64, enable_mask_cache=True)
    )
    trace = ColocatedTraceGenerator(datapath.flow_table, base={"ip_proto": PROTO_TCP}).generate()
    datapath.process_batch(list(trace.keys), now=0.0)
    assert datapath.n_masks == SIPDP_MASKS
    return datapath


@pytest.fixture
def comparisons(monkeypatch):
    """The number of ``FlowMask.__eq__`` calls made since the fixture ran."""
    count = [0]
    real = FlowMask.__eq__

    def counting(self, other):
        count[0] += 1
        return real(self, other)

    monkeypatch.setattr(FlowMask, "__eq__", counting)
    return count


def _split(datapath):
    entries = list(datapath.megaflows.entries())
    return entries[0::2], entries[1::2]  # survivors ahead of every victim


def _assert_survivors(datapath, survivors, masks_before, created, dead=()):
    store = datapath.megaflows
    assert [id(entry) for entry in store.entries()] == [id(entry) for entry in survivors]
    assert [entry.created_at for entry in survivors] == created
    held = {entry.mask for entry in survivors}
    assert store.masks() == [mask for mask in masks_before if mask in held]
    assert store.n_entries == len(survivors)
    assert datapath._dead_entries == {(entry.mask, entry.key) for entry in dead}


@pytest.mark.parametrize("path", PATHS)
def test_each_removal_path_is_linear_in_the_masks(detonated, comparisons, path):
    survivors, victims = _split(detonated)
    masks_before = detonated.megaflows.masks()
    created = [entry.created_at for entry in survivors]
    comparisons[0] = 0
    removed = PATHS[path](detonated, victims)
    assert comparisons[0] <= 2 * SIPDP_MASKS, comparisons[0]
    assert [id(entry) for entry in removed] == [id(entry) for entry in victims]
    _assert_survivors(detonated, survivors, masks_before, created, victims if path == "kill_entries" else ())


def test_journal_replay_is_linear_in_the_masks(detonated, comparisons):
    """A run of journalled removals reaches the rebuild target as one bulk
    removal, after the target has copied the whole snapshot."""
    survivors, victims = _split(detonated)
    masks_before = detonated.megaflows.masks()
    detonated.migrate_backend_start("tss")
    detonated.migrate_backend_step(len(survivors) + len(victims))
    status = detonated.migration_status()
    assert status["entries_copied"] == len(survivors) + len(victims)
    comparisons[0] = 0
    assert detonated.kill_entries(victims, permanent=False) == len(victims)
    status = detonated.migrate_backend_step()
    assert comparisons[0] <= 2 * SIPDP_MASKS, comparisons[0]
    assert status["rebuild_done"] and status["journal_replayed"] == len(victims)
    detonated.migrate_backend_swap()
    _assert_survivors(detonated, survivors, masks_before, [entry.created_at for entry in survivors])
