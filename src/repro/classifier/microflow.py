"""The exact-match microflow cache (§2.2).

A per-transport-connection LRU store where lookup happens over *all* header
fields.  It is deliberately small ("a couple of hundred entries") and serves
as short-term memory in front of the megaflow cache; the paper's attack
traces add noise to unimportant header fields precisely to thrash it, so the
victim's packets fall through to the (exploded) megaflow path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

from repro.classifier.tss import MegaflowEntry
from repro.exceptions import ClassifierError
from repro.packet.fields import FlowKey

__all__ = ["MicroflowCache"]


class MicroflowCache:
    """Exact-match LRU cache mapping full flow keys to megaflow entries.

    Args:
        capacity: maximum number of microflows (OVS defaults to a few
            hundred; 256 here).
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ClassifierError(f"microflow capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[FlowKey, MegaflowEntry] = OrderedDict()
        self.stats_hits = 0
        self.stats_misses = 0
        self.stats_evictions = 0

    def lookup(self, key: FlowKey) -> MegaflowEntry | None:
        """Exact-match probe; refreshes LRU position on hit.

        A hit whose underlying megaflow was removed (e.g. by MFCGuard or the
        revalidator) is treated as a miss and dropped, mirroring how OVS
        invalidates microflows pointing at dead megaflows: the caller, who
        can tell, reports it through :meth:`drop_stale_hit`.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats_hits += 1
        return entry

    def insert(self, key: FlowKey, entry: MegaflowEntry) -> None:
        """Install a microflow, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats_evictions += 1

    def miss_region(self, keys: Sequence[FlowKey], start: int) -> int:
        """End of the *decided-miss region* of ``keys`` from ``start``.

        ``keys[start:end]`` are not cached now and no key repeats in it,
        so each one's :meth:`lookup` misses however the region's own
        inserts go: an insert of a region key adds no key still ahead of
        it, and an eviction only removes.  ``end == start`` when
        ``keys[start]`` is cached.
        """
        cached, seen = self._entries, set()
        for end in range(start, len(keys)):
            key = keys[end]
            if key in cached or key in seen:
                return end
            seen.add(key)
        return len(keys)

    def insert_missed(
        self, keys: Sequence[FlowKey], entries: Sequence[MegaflowEntry | None]
    ) -> None:
        """Settle one missed :meth:`lookup` per key, then :meth:`insert`
        each key whose entry is not None, in order.

        Precondition: the keys are absent and distinct (one
        :meth:`miss_region`).  Then every insert appends, and popping the
        excess from the front once, at the end, leaves the LRU order,
        counters and evictions that per-key ``lookup`` and ``insert``
        leave.
        """
        self.stats_misses += len(keys)
        cached = self._entries
        for key, entry in zip(keys, entries):
            if entry is not None:
                cached[key] = entry
        excess = len(cached) - self.capacity
        if excess > 0:
            self.stats_evictions += excess
            for _ in range(excess):
                cached.popitem(last=False)

    def drop_stale_hit(self, entry: MegaflowEntry) -> None:
        """The hit :meth:`lookup` just served points at a removed megaflow:
        drop every microflow pointing at it and count that lookup as a miss."""
        self.invalidate_many((entry,))
        self.stats_hits -= 1
        self.stats_misses += 1

    def invalidate_many(self, entries: Iterable[MegaflowEntry]) -> int:
        """Drop microflows pointing at any of ``entries``; return the count.

        A revalidator sweep can evict hundreds of megaflows at once: one
        identity-set sweep is linear in the cache size, however many.
        """
        victims = {id(entry) for entry in entries}
        if not victims:
            return 0
        stale = [key for key, cached in self._entries.items() if id(cached) in victims]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def flush(self) -> None:
        """Drop everything."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from this cache (0 when unused)."""
        total = self.stats_hits + self.stats_misses
        return self.stats_hits / total if total else 0.0

    def __repr__(self) -> str:
        return f"MicroflowCache({len(self._entries)}/{self.capacity} entries)"
