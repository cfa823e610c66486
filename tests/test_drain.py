"""The index drain derives each row once, over the burst's own fields.

A TSS index append converts a burst's new masks and its entries to column
rows in one matrix build apiece, and only the columns of the fields the
burst's masks constrain: any other column is zero in every mask row of the
burst, so ``rows &= mask rows`` would zero it anyway.  The reference stays
full-width — under ``check_invariants`` every plan re-derives the new slots'
rows and their masks' rows over all fields — and these tests also hold the
rows to that derive directly, and every verdict to Algorithm 1
(``tests/scan_oracle.py``), on both kernels, for bursts whose field sets
differ, are empty, or grow the scan's active columns mid-detonation.

A burst shorter than the merge cadence leaves its appends queued, and the
last tests hold that backlog: a trickle of 5-packet cold bursts drains at
the cadence, a key whose megaflow is queued is served by the coherence
probe (and its burst drains the backlog it read), a reader with no probe
drains first, and a lost queued entry fails the slot check.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.classifier.actions import ALLOW
from repro.classifier.backend import MegaflowEntry
from repro.classifier.flowtable import FlowTable
from repro.classifier.kernel import COLUMN_SPLITS, to_column_matrix
from repro.classifier.rule import Match
from repro.classifier.slowpath import WILDCARDING, MegaflowGenerator
from repro.classifier.tss import TupleSpaceSearch
from repro.core.usecases import SIPDP
from repro.exceptions import CacheInvariantError
from repro.packet.fields import FIELD_ORDER, FlowKey, FlowMask
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken
from tests.scan_oracle import algorithm1
from tests.store_helpers import lookup_batch
from tests.test_batch import (
    KERNELS,
    _detonation_trace,
    assert_datapaths_equal,
    assert_verdicts_equal,
)

pytestmark = pytest.mark.usefixtures("scan_oracle")

V6_PREFIX = 0x2001_0DB8_0000_0000_0000_0000_0000_0000
V6_HOST = 0xFD00_0000_0000_0000_0A0B_0C0D_0000_0000  # a /96: bits in both columns


def _table() -> FlowTable:
    """IPv4 rules (a /8 plus a port, and the lower half of the address
    space) ahead of an IPv6 /48 (the high column only) and an IPv6 /96 (both
    columns): a key whose ``ip_src`` has its top bit clear resolves on the
    IPv4 fields alone, any other key goes on to the IPv6 rules."""
    table = FlowTable()
    table.add_rule(
        Match(ip_src=(0x0A000000, 0xFF000000), tp_dst=(80, 0xFFFF)), ALLOW, priority=40, name="v4-web"
    )
    table.add_rule(Match(ip_src=(0, 0x80000000)), ALLOW, priority=30, name="v4-low")
    table.add_rule(Match(ipv6_src=(V6_PREFIX, ((1 << 48) - 1) << 80)), ALLOW, priority=20, name="v6-net")
    table.add_rule(Match(ipv6_dst=(V6_HOST, ((1 << 96) - 1) << 32)), ALLOW, priority=10, name="v6-host")
    table.add_default_deny()
    return table


def _near(rng: random.Random, value: int, width: int) -> int:
    """``value`` with one random bit flipped, or ``value`` itself."""
    flip = rng.randrange(width + 1)
    return value if flip == width else value ^ (1 << flip)


def _keys(n: int, seed: int) -> list[FlowKey]:
    """Keys alternating between the IPv4 rules' and the IPv6 rules'."""
    rng = random.Random(seed)
    return [
        FlowKey(
            ip_src=_near(rng, 0xC0A80001 if i % 2 else 0x0A000001, 31),
            tp_dst=_near(rng, 80, 16),
            ipv6_src=_near(rng, V6_PREFIX | 1, 128),
            ipv6_dst=_near(rng, V6_HOST | 0x1234, 128),
            ip_proto=6,
        )
        for i in range(n)
    ]


def _megaflows(keys) -> list[MegaflowEntry]:
    """The distinct megaflows the slow path generates for ``keys``."""
    generator = MegaflowGenerator(_table(), WILDCARDING)
    seen: dict = {}
    for result in generator.generate_batch(keys):
        entry = result.entry
        seen.setdefault((entry.mask, entry.key), entry)
    return list(seen.values())


def _assert_rows_are_the_full_derive(store: TupleSpaceSearch) -> None:
    n = len(store._slot_results)
    entries = [result.entry for result in store._slot_results]
    masks = to_column_matrix([entry.mask.values for entry in entries])
    assert np.array_equal(store._acc_mask_buffer[store._slot_masks[:n]], masks)
    assert np.array_equal(store._slot_rows[:n], to_column_matrix([e.key for e in entries]) & masks)


def _scan_all(store: TupleSpaceSearch, keys) -> None:
    store.clear_memo()
    lookup_batch(store, keys)  # each result is held to Algorithm 1 by the fixture
    _assert_rows_are_the_full_derive(store)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("burst", [1, 7, 64])
def test_bursts_that_mix_field_sets(kernel, burst):
    keys = _keys(300, seed=burst)
    entries = _megaflows(keys)
    # Column sets: IPv4 only, +port, +IPv6 high column, +both IPv6 columns.
    columns = {tuple(np.flatnonzero(row)) for row in to_column_matrix([e.mask.values for e in entries])}
    v6_dst = {COLUMN_SPLITS.index((FIELD_ORDER.index("ipv6_dst"), shift)) for shift in (64, 0)}
    assert len(columns) >= 4 and any(v6_dst <= set(c) for c in columns)
    store = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
    for start in range(0, len(entries), burst):
        store.insert_batch(entries[start : start + burst])
        if start // burst % 3 == 0:
            _scan_all(store, keys[: 3 * burst])
    _scan_all(store, keys + _keys(50, seed=99))
    assert store.n_entries == len(entries)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_burst_of_the_all_wildcard_mask(kernel):
    table = FlowTable()
    table.add_default_deny()
    keys = _keys(20, seed=3)
    entry = MegaflowGenerator(table).generate(keys[0]).entry
    assert entry.mask == FlowMask.wildcard()
    store = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
    store.lookup(keys[0])  # an empty index, then a drain with no fields at all
    store.insert_batch([entry])
    assert store._fields_of_masks([entry.mask]) == []
    _scan_all(store, keys)
    assert [store.lookup(key).masks_inspected for key in keys] == [1] * len(keys)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_new_column_mid_detonation(kernel, monkeypatch):
    """Masks over the IPv4 fields first; then a burst whose new mask is the
    first to constrain an IPv6 column, which the cached scan operands cannot
    be extended by; then bursts that add no column, which they are.  A short
    burst's appends wait in the backlog until a read drains them, so the
    operands are held to what the drain's ``extend`` made after that read."""
    keys = _keys(400, seed=11)
    entries = _megaflows(keys)
    v6 = [e for e in entries if e.mask["ipv6_src"] or e.mask["ipv6_dst"]]
    # Port-constraining masks first: the first burst activates both IPv4 columns.
    v4 = sorted(
        (e for e in entries if not (e.mask["ipv6_src"] or e.mask["ipv6_dst"])),
        key=lambda e: not e.mask["tp_dst"],
    )
    assert len(v4) > 8 and len(v6) > 8 and v4[0].mask["tp_dst"]
    store = TupleSpaceSearch(check_invariants=True, scan_kernel=kernel)
    extended = []  # what each drain's ``extend`` returned
    extend = store._scan_kernel.extend

    def spy(*args):
        extended.append(extend(*args))
        return extended[-1]

    monkeypatch.setattr(store._scan_kernel, "extend", spy)
    store.insert_batch(v4[:4])
    _scan_all(store, keys[:20])
    before = store._acc_operands.active.tolist()
    store.insert_batch(v4[4:])  # no new column: the drain extends the operands
    assert store._burst_buf and not extended
    _scan_all(store, keys[:20])
    assert store._acc_operands is not None and store._acc_operands is extended[-1]
    assert store._acc_operands.active.tolist() == before
    assert len(store._acc_operands.salts) == store.n_masks
    store.insert_batch(v6[:1])  # the first IPv6 column
    _scan_all(store, keys[:20])
    assert extended[-1] is None  # the drain dropped them; the read prepared afresh
    assert len(store._acc_operands.active) > len(before)
    for start in range(1, len(v6), 5):
        store.insert_batch(v6[start : start + 5])
        _scan_all(store, keys[start : start + 40])
    _scan_all(store, keys)


# -- the backlog: a trickle of short cold bursts drains at the merge cadence ------


def _sipdp(kernel: str) -> Datapath:
    config = DatapathConfig(microflow_capacity=0, check_invariants=True, scan_kernel=kernel)
    return Datapath(SIPDP.build_table(), config)


def _slots_are_the_dicts(store: TupleSpaceSearch) -> bool:
    indexed = [id(result.entry) for result in store._slot_results]
    return sorted(indexed) == sorted(map(id, store.entries()))


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_trickle_of_cold_bursts_drains_at_the_merge_cadence(kernel, monkeypatch):
    """SipDp's trace, every key cold, fed in 5-packet bursts: no key reads
    the backlog, so it drains only when it reaches the merge cadence (8
    times for 529 keys, where a drain per burst made 106), and installs
    and verdicts are those of the same trace as one burst."""
    trace = _detonation_trace(SIPDP)
    whole, trickle = _sipdp(kernel), _sipdp(kernel)
    expected = whole.process_batch(trace, now=1.0).verdicts
    drains = []
    drain = TupleSpaceSearch._burst_drain

    def counting_drain(store):
        if store._burst_buf:
            drains.append(len(store._burst_buf))
        return drain(store)

    monkeypatch.setattr(TupleSpaceSearch, "_burst_drain", counting_drain)
    verdicts = []
    for start in range(0, len(trace), 5):
        verdicts.extend(trickle.process_batch(trace[start : start + 5], now=1.0).verdicts)
    assert len(trace) == 529 and trickle.n_megaflows == len(trace)
    assert 1 <= len(drains) <= 10 and min(drains) >= 64, drains
    assert_verdicts_equal(expected, verdicts)
    assert_datapaths_equal(whole, trickle)


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_key_resent_while_its_megaflow_is_queued(kernel, scan_oracle):
    """A key whose megaflow is indexed hits the plan and leaves the backlog
    queued; keys re-sent while their megaflows (each under a new mask, past
    the indexed prefix) are still queued get Algorithm 1's entry and
    ``masks_inspected`` from the coherence probe, and the burst that read
    the backlog drains it at exit."""
    trace = _detonation_trace(SIPDP)
    datapath = _sipdp(kernel)
    store = datapath.megaflows

    def resend(keys) -> None:
        for key, verdict in zip(keys, datapath.process_batch(keys, now=2.0).verdicts):
            entry, inspected = algorithm1(key, scan_oracle.walk(store))
            assert entry is not None and verdict.path is PathTaken.MEGAFLOW
            assert verdict.masks_inspected == inspected

    datapath.process_batch(trace[:100], now=1.0)  # past the cadence: drained
    assert not store._burst_buf and store._acc_n_masks == store.n_masks
    installed = [v.installed for v in datapath.process_batch(trace[100:103], now=1.0).verdicts]
    assert installed == store._burst_buf
    assert store._acc_n_masks == store.n_masks - 3
    assert [entry.mask for entry in installed] == store.masks()[-3:]
    resend([trace[50]])
    assert len(store._burst_buf) == 3
    resend([trace[101], trace[50], trace[100], trace[101]])
    assert not store._burst_buf and _slots_are_the_dicts(store)


@pytest.mark.parametrize("kernel", KERNELS)
def test_lookup_and_process_drain_the_backlog_first(kernel):
    """A reader with no coherence probe indexes the backlog before it
    plans: after it, the slot table is the dicts."""
    trace = _detonation_trace(SIPDP)
    datapath = _sipdp(kernel)
    store = datapath.megaflows
    datapath.process_batch(trace[:100], now=1.0)
    datapath.process_batch(trace[100:103], now=1.0)
    assert store._burst_buf and not _slots_are_the_dicts(store)
    assert store.lookup(trace[101], now=1.0).entry is not None
    assert not store._burst_buf and _slots_are_the_dicts(store)
    datapath.process_batch(trace[103:106], now=1.0)
    assert store._burst_buf
    assert datapath.process(trace[104], now=1.0).path is PathTaken.MEGAFLOW
    assert not store._burst_buf and _slots_are_the_dicts(store)


@pytest.mark.parametrize("kernel", KERNELS)
def test_an_entry_dropped_from_the_backlog_fails_the_slot_check(kernel):
    trace = _detonation_trace(SIPDP)
    datapath = _sipdp(kernel)
    datapath.process_batch(trace[:100], now=1.0)
    datapath.process_batch(trace[100:103], now=1.0)
    store = datapath.megaflows
    store._check_slots()
    store._burst_buf.pop(0)  # neither queued nor indexed
    with pytest.raises(CacheInvariantError, match="queued are not the dicts"):
        store._check_slots()
