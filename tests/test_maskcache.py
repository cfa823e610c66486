"""Unit tests for the kernel-style mask cache."""

import pytest

from repro.exceptions import SwitchError
from repro.packet.fields import FlowKey, FlowMask
from repro.switch.maskcache import KernelMaskCache


MASK_A = FlowMask(tp_dst=0xFFFF)
MASK_B = FlowMask(ip_src=0xFF000000)


class TestBasics:
    def test_probe_miss_then_hit(self):
        cache = KernelMaskCache(size=16)
        key = FlowKey(tp_dst=80)
        assert cache.probe(key) is None
        cache.update(key, MASK_A)
        assert cache.probe(key) == MASK_A

    def test_size_validation(self):
        with pytest.raises(SwitchError):
            KernelMaskCache(size=0)

    def test_update_overwrites(self):
        cache = KernelMaskCache(size=16)
        key = FlowKey(tp_dst=80)
        cache.update(key, MASK_A)
        cache.update(key, MASK_B)
        assert cache.probe(key) == MASK_B

    def test_stats(self):
        cache = KernelMaskCache(size=16)
        key = FlowKey(tp_dst=80)
        cache.probe(key)
        cache.update(key, MASK_A)
        cache.probe(key)
        assert cache.stats_misses == 1
        assert cache.stats_hits == 1


class TestCollisionsAndInvalidation:
    def test_direct_mapped_eviction(self):
        cache = KernelMaskCache(size=1)  # every key collides
        k1, k2 = FlowKey(tp_dst=1), FlowKey(tp_dst=2)
        cache.update(k1, MASK_A)
        cache.update(k2, MASK_B)
        assert cache.probe(k1) is None  # evicted by the colliding update
        assert cache.probe(k2) == MASK_B

    def test_invalidate_mask(self):
        cache = KernelMaskCache(size=64)
        keys = [FlowKey(tp_dst=i) for i in range(8)]
        for key in keys:
            cache.update(key, MASK_A)
        cache.update(FlowKey(tp_src=9), MASK_B)
        dropped = cache.invalidate_masks([MASK_A])
        assert dropped >= 1
        assert all(cache.probe(key) is None for key in keys)
        assert cache.probe(FlowKey(tp_src=9)) == MASK_B

    def test_flush(self):
        cache = KernelMaskCache(size=16)
        cache.update(FlowKey(tp_dst=80), MASK_A)
        cache.flush()
        assert cache.occupancy == 0

    def test_occupancy_and_repr(self):
        cache = KernelMaskCache(size=16)
        cache.update(FlowKey(tp_dst=80), MASK_A)
        assert cache.occupancy == 1
        assert "1/16" in repr(cache)
