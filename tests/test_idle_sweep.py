"""An idle sweep that cannot evict reads no entry; one that scans picks the full scan's victims.

The store keeps one lower bound on its entries' ``last_used``: unknown
until a scanning sweep sets it and again after a flush, lowered by every
insert (a re-mapped or re-adopted megaflow arrives with its old
``last_used``).  While ``now - bound < idle_timeout`` the sweep returns
nothing without reading an entry.
"""

from __future__ import annotations

import functools

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.classifier.backend import (
    MegaflowEntry,
    make_megaflow_backend,
    megaflow_backend_names,
)
from repro.classifier.slowpath import MegaflowGenerator
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from tests.store_helpers import idle_entries

POOL = 48  # trace keys the property test's traffic draws from


@functools.cache
def _trace() -> tuple:
    """SipDp's detonation trace (529 keys, one megaflow each)."""
    return tuple(
        ColocatedTraceGenerator(SIPDP.build_table(), base={"ip_proto": PROTO_TCP}).generate().keys
    )


_OPS = st.one_of(
    st.tuples(
        st.just("traffic"),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        st.lists(st.integers(0, POOL - 1), min_size=1, max_size=12),
    ),
    st.tuples(st.just("kill"), st.integers(0, 10**6)),
    st.tuples(st.just("reinstall"), st.integers(0, 10**6), st.sampled_from([0.5, 2.0, 8.0, 20.0])),
    st.tuples(st.just("flush")),
    st.tuples(
        st.just("sweep"),
        st.sampled_from([0.0, 0.5, 1.0, 4.0]),
        st.sampled_from([0.0, 1.0, 2.5, 6.0, 10.0]),
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_OPS, max_size=30), backend=st.sampled_from(megaflow_backend_names()))
def test_sweeps_pick_the_full_scans_victims(ops, backend):
    """Installs at advancing times, hits, kills, re-installs of older
    copies and flushes, interleaved with sweeps of varying timeouts: every
    sweep evicts exactly the full scan's victims, in its order."""
    datapath = Datapath(
        SIPDP.build_table(), DatapathConfig(microflow_capacity=0, megaflow_backend=backend)
    )
    store, keys = datapath.megaflows, _trace()
    now, gone = 0.0, []
    for op, *args in ops:
        if op == "traffic":
            now += args[0]
            datapath.process_batch([keys[k] for k in args[1]], now=now)
        elif op == "kill":
            entries = list(store.entries())
            if entries:
                victim = entries[args[0] % len(entries)]
                datapath.kill_entries([victim], permanent=False)
                gone.append(victim)
        elif op == "reinstall":
            # A re-map adopts a copy with its old ``last_used``: the insert
            # refreshes the installed megaflow to it, or installs the copy.
            candidates = list(store.entries()) + gone
            if candidates:
                entry = candidates[args[0] % len(candidates)]
                copy = MegaflowEntry(
                    entry.mask, entry.key, entry.action, entry.source_rule, last_used=now - args[1]
                )
                datapath.rebalance_install([copy], [])
        elif op == "flush":
            datapath.flush_caches()
        else:
            now += args[0]
            expected = idle_entries(store, now, args[1])
            got = store.evict_idle(now, args[1])
            assert [id(entry) for entry in got] == [id(entry) for entry in expected]
            assert idle_entries(store, now, args[1]) == []


class _CountingEntry(MegaflowEntry):
    """A megaflow that counts the reads of its ``last_used``."""

    reads = 0

    @property
    def last_used(self) -> float:
        self.reads += 1
        return self._last_used

    @last_used.setter
    def last_used(self, value: float) -> None:
        self._last_used = value


def test_a_sweep_that_cannot_evict_reads_no_entry():
    """After a scanning sweep, one that finds nothing idle reads no
    ``last_used``; the next one that can evict reads each survivor once."""
    table = SIPDP.build_table()
    generated = {
        (result.entry.mask, result.entry.key): result.entry
        for result in MegaflowGenerator(table).generate_batch(_trace())
    }
    store = make_megaflow_backend("tss", scan_kernel="numpy")
    for i, entry in enumerate(generated.values()):
        store.insert(
            _CountingEntry(entry.mask, entry.key, entry.action, entry.source_rule), now=float(i % 10)
        )
    entries = list(store.entries())

    def reads() -> int:
        total = sum(entry.reads for entry in entries)
        for entry in entries:
            entry.reads = 0
        return total

    n = len(entries)
    assert n == len(_trace())
    first = store.evict_idle(10.0, 10.0)  # the bound is unknown: a full scan
    assert reads() == n
    assert first and {entry.last_used for entry in first} == {0.0}
    reads()
    assert store.evict_idle(10.5, 10.0) == []  # every survivor was used at 1.0 or later
    assert reads() == 0
    second = store.evict_idle(11.0, 10.0)  # 1.0 is now idle: one scan of the survivors
    assert reads() == n - len(first)
    assert second and {entry.last_used for entry in second} == {1.0}
