"""Nothing needs the cycle collector: counted in GC-tracked objects, no clock.

A cold install keeps only its own records: the entry and its key tuple
(which also keys its mask's dict), the slot result, the leaf, and per new
mask its dict, the mask and its value tuple (which also keys the leaf).
Nothing repeats what those hold (no reduced key, no per-mask field tuple,
no intern key per leaf, no queued pair), so a flood of upcalls feeds the
collector little.  A flow table holds its
subscribers weakly, and a process executor's shard handles hold it
weakly, so a closed and dropped datapath — plain or sharded on every
executor — is freed by reference counting, and a collection afterwards
finds nothing of it.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP, SIPSPDP
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.sharded import ShardedDatapath


def _trace(use_case) -> list:
    table = use_case.build_table()
    return list(ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate().keys)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "use_case, per_install", [(SIPSPDP, 7), (SIPDP, 7)], ids=["SipSpDp", "SipDp"]
)
def test_a_cold_install_leaves_few_tracked_objects(use_case, per_install, collector_off):
    """One cold burst into a fresh datapath: the tracked objects it leaves
    behind, per installed megaflow."""
    keys = _trace(use_case)
    Datapath(use_case.build_table()).process_batch(keys[:4])  # kernel and imports loaded
    datapath = Datapath(use_case.build_table(), DatapathConfig(microflow_capacity=0))
    before = len(gc.get_objects())
    datapath.process_batch(keys)
    survivors = len(gc.get_objects()) - before
    assert datapath.n_megaflows == len(keys)
    assert survivors <= per_install * datapath.n_megaflows, survivors / datapath.n_megaflows


def _plain(table):
    return Datapath(table, DatapathConfig())


def _sharded(executor):
    return lambda table: ShardedDatapath(table, DatapathConfig(executor=executor), n_shards=2)


@pytest.mark.parametrize(
    "build",
    [_plain, _sharded("serial"), _sharded("thread"), _sharded("process")],
    ids=["plain", "serial", "thread", "process"],
)
def test_a_dropped_datapath_needs_no_cycle_collector(build, collector_off):
    """A detonated datapath and its table, closed and dropped: a collection
    then finds no object of a ``repro`` type."""
    table = SIPDP.build_table()
    datapath = build(table)
    datapath.process_batch(_trace(SIPDP))
    assert datapath.n_masks > 500
    datapath.close()
    del datapath, table
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        cyclic = [type(obj).__qualname__ for obj in gc.garbage if type(obj).__module__.startswith("repro")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []
