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
from repro.packet.fields import FIELD_ORDER, FlowKey, FlowMask
from tests.store_helpers import lookup_batch
from tests.test_batch import KERNELS

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
def test_a_new_column_mid_detonation(kernel):
    """Masks over the IPv4 fields first; then a burst whose new mask is the
    first to constrain an IPv6 column, which the cached scan operands cannot
    be extended by; then bursts that add no column, which they are."""
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
    store.insert_batch(v4[:4])
    _scan_all(store, keys[:20])
    before = store._acc_operands.active.tolist()
    store.insert_batch(v4[4:])  # no new column: the operands are extended
    assert store._acc_operands is not None
    assert store._acc_operands.active.tolist() == before
    assert len(store._acc_operands.salts) == store.n_masks
    _scan_all(store, keys[:20])
    store.insert_batch(v6[:1])  # the first IPv6 column
    assert store._acc_operands is None
    _scan_all(store, keys[:20])
    assert len(store._acc_operands.active) > len(before)
    for start in range(1, len(v6), 5):
        store.insert_batch(v6[start : start + 5])
        _scan_all(store, keys[start : start + 40])
    _scan_all(store, keys)
