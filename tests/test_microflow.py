"""Unit tests for the exact-match microflow cache."""

import pytest

from repro.classifier.actions import ALLOW
from repro.classifier.microflow import MicroflowCache
from repro.classifier.tss import MegaflowEntry
from repro.exceptions import ClassifierError
from repro.packet.fields import FlowKey, FlowMask


def megaflow(tp_dst: int) -> MegaflowEntry:
    mask = FlowMask(tp_dst=0xFFFF)
    return MegaflowEntry(mask=mask, key=FlowKey(tp_dst=tp_dst).masked(mask), action=ALLOW)


class TestBasics:
    def test_miss_then_hit(self):
        cache = MicroflowCache(capacity=4)
        key = FlowKey(tp_dst=80, ip_ttl=1)
        assert cache.lookup(key) is None
        entry = megaflow(80)
        cache.insert(key, entry)
        assert cache.lookup(key) is entry

    def test_exact_match_only(self):
        cache = MicroflowCache(capacity=4)
        cache.insert(FlowKey(tp_dst=80, ip_ttl=1), megaflow(80))
        # Same megaflow coverage, different TTL: the microflow cache misses
        # (that is exactly what the paper's noise fields exploit).
        assert cache.lookup(FlowKey(tp_dst=80, ip_ttl=2)) is None

    def test_capacity_validation(self):
        with pytest.raises(ClassifierError):
            MicroflowCache(capacity=0)

    def test_contains_and_len(self):
        cache = MicroflowCache(capacity=4)
        key = FlowKey(tp_dst=80)
        cache.insert(key, megaflow(80))
        assert key in cache
        assert len(cache) == 1


class TestLru:
    def test_eviction_order(self):
        cache = MicroflowCache(capacity=2)
        k1, k2, k3 = FlowKey(tp_dst=1), FlowKey(tp_dst=2), FlowKey(tp_dst=3)
        cache.insert(k1, megaflow(1))
        cache.insert(k2, megaflow(2))
        cache.insert(k3, megaflow(3))  # evicts k1 (LRU)
        assert cache.lookup(k1) is None
        assert cache.lookup(k3) is not None
        assert cache.stats_evictions == 1

    def test_hit_refreshes_position(self):
        cache = MicroflowCache(capacity=2)
        k1, k2, k3 = FlowKey(tp_dst=1), FlowKey(tp_dst=2), FlowKey(tp_dst=3)
        cache.insert(k1, megaflow(1))
        cache.insert(k2, megaflow(2))
        cache.lookup(k1)  # refresh k1
        cache.insert(k3, megaflow(3))  # evicts k2 now
        assert cache.lookup(k1) is not None
        assert cache.lookup(k2) is None

    def test_reinsert_same_key_no_growth(self):
        cache = MicroflowCache(capacity=2)
        key = FlowKey(tp_dst=1)
        cache.insert(key, megaflow(1))
        cache.insert(key, megaflow(1))
        assert len(cache) == 1


class TestInvalidation:
    def test_invalidate_entry(self):
        cache = MicroflowCache(capacity=8)
        entry = megaflow(80)
        keys = [FlowKey(tp_dst=80, ip_ttl=t) for t in range(3)]
        for key in keys:
            cache.insert(key, entry)
        other = megaflow(81)
        cache.insert(FlowKey(tp_dst=81), other)
        assert cache.invalidate_many([entry]) == 3
        assert len(cache) == 1

    def test_flush(self):
        cache = MicroflowCache(capacity=8)
        cache.insert(FlowKey(tp_dst=80), megaflow(80))
        cache.flush()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = MicroflowCache(capacity=8)
        key = FlowKey(tp_dst=80)
        assert cache.hit_rate == 0.0
        cache.lookup(key)
        cache.insert(key, megaflow(80))
        cache.lookup(key)
        assert cache.hit_rate == pytest.approx(0.5)
