"""Unit tests for the Tuple Space Search megaflow cache."""

import pytest

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.tss import ENTRY_BYTES, MASK_BYTES, MegaflowEntry, TupleSpaceSearch
from repro.exceptions import CacheInvariantError
from repro.packet.fields import FlowKey, FlowMask
from tests.store_helpers import lookup_batch, verify_disjoint


def entry(tp_dst_value: int, tp_dst_mask: int = 0xFFFF, action=DENY, **extra) -> MegaflowEntry:
    mask = FlowMask(tp_dst=tp_dst_mask, **{k: v[1] for k, v in extra.items()})
    key = FlowKey(tp_dst=tp_dst_value & tp_dst_mask,
                  **{k: v[0] & v[1] for k, v in extra.items()})
    return MegaflowEntry(mask=mask, key=key.masked(mask), action=action)


class TestInsertLookup:
    @pytest.mark.usefixtures("scan_oracle")
    def test_empty_cache_misses(self):
        cache = TupleSpaceSearch()
        result = cache.lookup(FlowKey(tp_dst=80))
        assert not result.hit
        assert result.masks_inspected == 0

    @pytest.mark.usefixtures("scan_oracle")
    def test_hit_after_insert(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(80, action=ALLOW))
        result = cache.lookup(FlowKey(tp_dst=80))
        assert result.hit
        assert result.entry.action == ALLOW
        assert result.masks_inspected == 1

    @pytest.mark.usefixtures("scan_oracle")
    def test_masked_lookup(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))  # "top bit set" deny
        assert cache.lookup(FlowKey(tp_dst=0x8001)).hit
        assert cache.lookup(FlowKey(tp_dst=0xFFFF)).hit
        assert not cache.lookup(FlowKey(tp_dst=0x7FFF)).hit

    @pytest.mark.usefixtures("scan_oracle")
    def test_masks_inspected_counts_scan_position(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))      # mask 1
        cache.insert(entry(0x4000, tp_dst_mask=0xC000))      # mask 2
        cache.insert(entry(0x2000, tp_dst_mask=0xE000))      # mask 3
        assert cache.lookup(FlowKey(tp_dst=0x9999)).masks_inspected == 1
        assert cache.lookup(FlowKey(tp_dst=0x4444)).masks_inspected == 2
        assert cache.lookup(FlowKey(tp_dst=0x2111)).masks_inspected == 3
        # A full miss inspects every mask.
        assert cache.lookup(FlowKey(tp_dst=0x0001)).masks_inspected == 3

    def test_duplicate_insert_refreshes(self):
        cache = TupleSpaceSearch()
        first = cache.insert(entry(80), now=1.0)
        second = cache.insert(entry(80), now=5.0)
        assert second is first
        assert first.last_used == 5.0
        assert cache.n_entries == 1

    @pytest.mark.usefixtures("scan_oracle")
    def test_hits_and_timestamps_update(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80), now=0.0)
        cache.lookup(FlowKey(tp_dst=80), now=3.0)
        cache.lookup(FlowKey(tp_dst=80), now=7.0)
        assert stored.hits == 2
        assert stored.last_used == 7.0

    @pytest.mark.usefixtures("scan_oracle")
    def test_stats(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(80))
        cache.lookup(FlowKey(tp_dst=80))
        cache.lookup(FlowKey(tp_dst=81))
        assert cache.stats_hits == 1
        assert cache.stats_misses == 1


class TestInvariants:
    def test_overlap_rejected_when_checking(self):
        cache = TupleSpaceSearch(check_invariants=True)
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))
        with pytest.raises(CacheInvariantError, match="Inv"):
            cache.insert(entry(0x8080, tp_dst_mask=0xFFFF))

    def test_disjoint_accepted(self):
        cache = TupleSpaceSearch(check_invariants=True)
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))
        cache.insert(entry(0x4000, tp_dst_mask=0xC000))
        verify_disjoint(cache)

    @pytest.mark.parametrize("kernel", ["numpy", "auto"])
    def test_key_bits_outside_the_mask(self, kernel):
        """An entry whose key is not masked by its own mask: rejected with
        invariant checking on and off, before any mutation (the dicts are
        keyed by ``entry.key`` as it is, so it could never be found); its
        masked twin installs and every lookup path finds it."""
        mask = FlowMask(ip_src=0xFFFFFF00, tp_dst=0xFFFF)
        raw_key = FlowKey(ip_src=0x0A000001, tp_dst=80)
        key = FlowKey(ip_src=0x0A0000FE, tp_dst=80)
        for check in (True, False):
            cache = TupleSpaceSearch(check_invariants=check, scan_kernel=kernel)
            with pytest.raises(CacheInvariantError, match="outside its mask"):
                cache.insert(MegaflowEntry(mask, raw_key.values, ALLOW))
            assert (cache.n_masks, cache.n_entries, cache.lookup(key).entry) == (0, 0, None)
            masked = cache.insert(MegaflowEntry(mask, raw_key.masked(mask), ALLOW))
            assert cache.find(key) is masked
            assert cache.lookup(key).entry is masked
            assert lookup_batch(cache, [key, raw_key])[1].entry is masked

    def test_verify_disjoint_catches_violation(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))
        cache.insert(entry(0x8080, tp_dst_mask=0xFFFF))  # overlapping
        with pytest.raises(CacheInvariantError):
            verify_disjoint(cache)


class TestRemoveEvict:
    def test_remove(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80))
        assert cache.remove_entries([stored]) == [stored]
        assert cache.n_masks == 0
        assert cache.remove_entries([stored]) == []  # second removal is a no-op

    def test_mask_retired_with_last_entry(self):
        cache = TupleSpaceSearch()
        a = cache.insert(entry(80))
        b = cache.insert(entry(81))
        assert cache.n_masks == 1  # same mask
        cache.remove_entries([a])
        assert cache.n_masks == 1
        cache.remove_entries([b])
        assert cache.n_masks == 0

    def test_evict_idle(self):
        cache = TupleSpaceSearch()
        old = cache.insert(entry(80), now=0.0)
        fresh = cache.insert(entry(81), now=0.0)
        cache.lookup(FlowKey(tp_dst=81), now=9.0)  # refresh `fresh`
        evicted = cache.evict_idle(now=10.0, idle_timeout=10.0)
        assert evicted == [old]
        assert cache.find_entry(fresh)

    def test_flush(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(80))
        cache.flush()
        assert cache.n_masks == 0
        assert cache.n_entries == 0
        assert not cache.lookup(FlowKey(tp_dst=80)).hit


@pytest.mark.usefixtures("scan_oracle")
class TestMemoCoherence:
    """The lookup memo must never change observable results."""

    def test_miss_then_insert_then_hit(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(99))  # non-empty so misses are memoised
        key = FlowKey(tp_dst=80)
        assert not cache.lookup(key).hit
        assert not cache.lookup(key).hit  # memoised miss
        cache.insert(entry(80, action=ALLOW))
        assert cache.lookup(key).hit  # memo invalidated by the insert

    def test_hit_then_remove_then_miss(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80))
        key = FlowKey(tp_dst=80)
        assert cache.lookup(key).hit
        cache.remove_entries([stored])
        assert not cache.lookup(key).hit

    def test_memoised_hit_updates_stats(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80))
        key = FlowKey(tp_dst=80)
        for _ in range(5):
            cache.lookup(key, now=2.0)
        assert stored.hits == 5
        assert cache.stats_hits == 5


class TestIntrospection:
    def test_entries_iteration_order(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(0x8000, tp_dst_mask=0x8000))
        cache.insert(entry(0x4000, tp_dst_mask=0xC000))
        masks = [e.mask for e in cache.entries()]
        assert masks == cache.masks()

    def test_find(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80))
        assert cache.find(FlowKey(tp_dst=80)) is stored
        assert cache.find(FlowKey(tp_dst=81)) is None

    def test_probe_mask(self):
        cache = TupleSpaceSearch()
        stored = cache.insert(entry(80))
        assert cache.probe_mask(stored.mask, FlowKey(tp_dst=80)) is stored
        assert cache.probe_mask(stored.mask, FlowKey(tp_dst=81)) is None
        assert cache.probe_mask(FlowMask(ip_src=0xFF), FlowKey()) is None

    def test_memory_accounting(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(80))
        cache.insert(entry(81))
        assert cache.memory_bytes() == 2 * ENTRY_BYTES + 1 * MASK_BYTES

    def test_repr(self):
        cache = TupleSpaceSearch()
        cache.insert(entry(80))
        assert "1 masks" in repr(cache)


@pytest.mark.usefixtures("scan_oracle")
class TestAcceleratorGrowth:
    """The accelerator must keep finding old entries as its buffers grow."""

    def test_salts_preserved_across_capacity_doublings(self):
        cache = TupleSpaceSearch()
        installed = []
        # One distinct mask per entry so each insert consumes a salt slot;
        # 600 masks forces several capacity doublings (64 -> 128 -> ... -> 1024).
        for i in range(600):
            mask = FlowMask(ip_src=0xFFFFFFFF, tp_src=i + 1)
            key = FlowKey(ip_src=i + 1, tp_src=0xFFFF, tp_dst=(i % 7) + 1)
            cache.insert(MegaflowEntry(mask=mask, key=key.masked(mask), action=ALLOW))
            installed.append(key)
            cache.lookup(key)  # keep the accelerator warm (incremental path)
            if cache.n_masks in (65, 129, 257, 513):
                # Just crossed a doubling: every earlier entry must still be
                # found by the accelerator (a regenerated salt would orphan
                # its compound — lookup would miss while find() still hits).
                cache._memo.clear()
                for old_key in installed:
                    result = cache.lookup(old_key)
                    assert result.hit, f"entry lost after growing to {cache.n_masks} masks"
                    assert cache.find(old_key) is result.entry
        assert cache.n_masks == 600  # sanity: growth actually happened

    def test_salt_buffer_prefix_stable(self):
        import numpy as np

        cache = TupleSpaceSearch()
        cache.insert(entry(80))
        cache.lookup(FlowKey(tp_dst=80))  # builds the accelerator
        before = cache._acc_salt_buffer[: cache._acc_capacity].copy()
        cache._acc_grow(cache._acc_capacity * 4)
        after = cache._acc_salt_buffer[: len(before)]
        assert np.array_equal(before, after)

    def test_amortised_inserts_stay_searchable(self):
        """Pending (unmerged) compounds must be visible to lookups."""
        cache = TupleSpaceSearch()
        mask_kwargs = dict(ip_src=0xFFFFFFFF)
        entries = []
        for i in range(500):
            mask = FlowMask(**mask_kwargs)
            key = FlowKey(ip_src=i + 1)
            e = MegaflowEntry(mask=mask, key=key.masked(mask), action=ALLOW)
            cache.insert(e)
            entries.append(key)
            # Immediately visible, merged or pending:
            cache._memo.clear()
            assert cache.lookup(key).hit
        cache._memo.clear()
        for key in entries:
            assert cache.lookup(key).hit
