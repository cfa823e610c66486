"""The packed row a ``FlowKey`` carries, and the tuple-cheap result records.

``kernel.keys_to_matrix`` must be ``to_column_matrix`` bit for bit however
the keys were built and however often they were seen; the cached row must
never travel (pickle / copy) nor be needed; and ``PacketVerdict`` /
``TssLookupResult`` / ``SlowPathResult`` keep their public surface as
``NamedTuple``s.
"""

from __future__ import annotations

import copy
import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.classifier.actions import ALLOW
from repro.classifier.backend import MegaflowEntry, TssLookupResult
from repro.classifier.kernel import N_COLUMNS, keys_to_matrix, to_column_matrix
from repro.classifier.slowpath import MegaflowGenerator, SlowPathResult
from repro.classifier.tss import TupleSpaceSearch
from repro.core.usecases import SIPDP
from repro.packet.fields import _FIELD_DEFS, FIELD_ORDER, FlowKey, FlowMask
from repro.switch.datapath import BatchVerdicts, Datapath, DatapathConfig, PacketVerdict, PathTaken
from repro.switch.shm_ring import ShmRing, decode_verdicts, encode_verdicts
from tests.store_helpers import lookup_batch
from tests.test_batch import KERNELS, _detonation_trace

# Any value of a field's full width, its extremes (both 64-bit halves of an
# IPv6 address set, either alone) more often than chance would give.
_VALUES = st.tuples(
    *[
        st.one_of(
            st.integers(min_value=0, max_value=f.max_value),
            st.sampled_from([0, 1, f.max_value, f.max_value >> (f.width // 2), 1 << (f.width - 1)]),
        )
        for f in _FIELD_DEFS
    ]
)


@st.composite
def key_lists(draw):
    """Keys from every constructor, with duplicate *objects* and equal twins."""
    keys = []
    for values in draw(st.lists(_VALUES, min_size=0, max_size=12)):
        how = draw(st.sampled_from(["from_values", "kwargs", "replace"]))
        if how == "from_values":
            key = FlowKey.from_values(values)
        elif how == "kwargs":
            key = FlowKey(**dict(zip(FIELD_ORDER, values)))
        else:
            key = FlowKey().replace(**dict(zip(FIELD_ORDER, values)))
        keys.append(key)
    for index in draw(st.lists(st.integers(0, max(len(keys) - 1, 0)), max_size=4)):
        if keys:
            keys.append(keys[index])  # the same object again
            keys.append(FlowKey.from_values(keys[index].values))  # an equal stranger
    return keys


@settings(max_examples=60, deadline=None)
@given(keys=key_lists(), seen_before=st.integers(min_value=0, max_value=12))
def test_keys_to_matrix_is_to_column_matrix_bit_for_bit(keys, seen_before):
    keys_to_matrix(keys[:seen_before])  # a burst of packed and never-seen keys
    expected = to_column_matrix([key.values for key in keys])
    for _ in range(2):  # first sight, then from the rows the keys now carry
        matrix = keys_to_matrix(keys)
        assert matrix.dtype == np.uint64 and matrix.shape == (len(keys), N_COLUMNS)
        assert matrix.tobytes() == expected.tobytes()
        assert not matrix.flags.writeable


@pytest.mark.parametrize("kernel", KERNELS)
def test_both_kernels_scan_the_read_only_matrix(kernel):
    """Neither kernel writes the joined buffer: the same keys scan to the
    same results three bursts running, as from a caller-supplied matrix."""
    trace = _detonation_trace(SIPDP)
    generator = MegaflowGenerator(SIPDP.build_table(), DatapathConfig().strategy)
    entries = [generator.generate(key).entry for key in trace[:40]]
    keys = trace[:60] + trace[:20]

    def results(rows):
        store = TupleSpaceSearch(scan_kernel=kernel, check_invariants=True)
        store.insert_batch(MegaflowEntry(e.mask, e.key, e.action) for e in entries)
        scanner = store.batch_scanner(keys, rows=rows)
        return [(r.entry and r.entry.key, r.masks_inspected) for r in map(scanner.result, range(len(keys)))]

    reference = results(to_column_matrix([key.values for key in keys]))
    hits = sum(1 for entry, _ in reference if entry)
    assert 60 <= hits < len(keys)  # multi-mask hits and full-scan misses
    packed_before = [key._row for key in keys]
    for _ in range(3):
        assert results(None) == reference
    assert all(row is None or row is key._row for row, key in zip(packed_before, keys))


def _scan(store: TupleSpaceSearch, keys) -> list:
    store.clear_memo()
    return [(r.entry, r.masks_inspected) for r in lookup_batch(store, keys)]


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda key: pickle.loads(pickle.dumps(key))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_key_copies_never_carry_nor_need_the_row(clone):
    store = TupleSpaceSearch()
    fresh = [FlowKey(ip_src=i, ipv6_dst=(1 << 127) | i, tp_dst=80) for i in range(6)]
    mask = FlowMask(ip_src=0xFFFFFFFF)
    store.insert_batch(MegaflowEntry(mask, key.masked(mask), ALLOW) for key in fresh[:4])
    size_before = len(pickle.dumps(fresh))
    before = [clone(key) for key in fresh]
    reference = _scan(store, fresh)  # packs the originals' rows
    assert all(key._row is not None for key in fresh)
    assert len(pickle.dumps(fresh)) == size_before  # the pipe ships no rows
    after = [clone(key) for key in fresh]
    for copies in (before, after):
        assert copies == fresh and [hash(k) for k in copies] == [hash(k) for k in fresh]
        assert all(key._row is None for key in copies)
        assert _scan(store, copies) == reference
        assert [key._row for key in copies] == [key._row for key in fresh]


def test_flow_mask_has_no_row_slot():
    with pytest.raises(AttributeError):
        FlowMask(ip_src=1)._row = b""
    mask = pickle.loads(pickle.dumps(FlowMask(ip_src=0xFF)))
    assert mask == FlowMask(ip_src=0xFF) and hash(mask) == hash(FlowMask(ip_src=0xFF))


# -- the result records ---------------------------------------------------------
def test_result_records_keep_their_surface():
    entry = MegaflowEntry(FlowMask(ip_src=1), FlowKey(ip_src=1).values, ALLOW)
    verdict = PacketVerdict(action=ALLOW, path=PathTaken.MEGAFLOW)
    assert (verdict.masks_inspected, verdict.rules_examined, verdict.installed) == (0, 0, None)
    assert not verdict.is_upcall
    upcall = PacketVerdict(ALLOW, PathTaken.SLOW_PATH, masks_inspected=3, rules_examined=2, installed=entry)
    assert upcall.is_upcall and upcall._replace(installed=None).installed is None
    assert upcall == PacketVerdict(ALLOW, PathTaken.SLOW_PATH, 3, 2, entry)
    hit, miss = TssLookupResult(entry=entry, masks_inspected=4), TssLookupResult(None, 9)
    assert hit.hit and not miss.hit and miss.masks_inspected == 9
    found, probes = hit
    assert found is entry and probes == 4
    slow = SlowPathResult(entry=entry, rule=None, rules_examined=3)
    assert SlowPathResult._fields == ("entry", "rule", "rules_examined")
    assert slow == SlowPathResult(entry, None, 3) and slow.entry is entry and slow.rules_examined == 3
    for record, field in ((verdict, "action"), (hit, "entry"), (slow, "rules_examined")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict either
    with pytest.raises(TypeError):
        TssLookupResult(entry)  # masks_inspected has no default
    with pytest.raises(TypeError):
        SlowPathResult(entry, None)  # nor has rules_examined
    # Equality is tuple equality: batch and scalar generation agree record
    # for record (the entries compare by value: mask, key, action, rule name).
    generator = MegaflowGenerator(SIPDP.build_table(), DatapathConfig().strategy)
    keys = _detonation_trace(SIPDP)[:80]
    batch = generator.generate_batch(keys)
    assert batch == [generator.generate(key) for key in keys]
    assert all(type(result) is SlowPathResult for result in batch)


def test_verdicts_survive_both_executor_transports():
    """Whole through pickle (the pipe transport), and as numeric columns
    plus the pickled installed-entry residue (the shm transport)."""
    trace = _detonation_trace(SIPDP)
    datapath = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
    batch = datapath.process_batch(trace[:20] + trace[:10])
    assert batch.upcalls == 20 and any(v.installed is not None for v in batch)

    def flat(b: BatchVerdicts):
        return (
            [(v.action, v.path, v.masks_inspected, v.rules_examined,
              v.installed and (v.installed.mask, v.installed.key)) for v in b.verdicts],
            b.mask_counts, b.probe_costs, b.upcalls,
        )

    piped = pickle.loads(pickle.dumps(("ok", [(0, batch)])))[1][0][1]
    assert flat(piped) == flat(batch)
    assert all(type(v) is PacketVerdict for v in piped.verdicts)
    ring = ShmRing.create(1 << 16)
    try:
        assert encode_verdicts(ring, 1, [(0, batch)])
        [(shard_id, ringed)] = decode_verdicts(ring.try_read(), 1)
    finally:
        ring.close()
    assert shard_id == 0 and flat(ringed) == flat(batch)
