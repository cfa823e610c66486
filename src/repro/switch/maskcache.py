"""Kernel-style mask cache: per-flow memo of which mask matched last.

The Linux OVS kernel datapath keeps a small direct-mapped cache indexed by
the packet's flow hash whose slots remember the mask (subtable) that
matched that flow last time.  Established flows therefore probe exactly one
hash table instead of scanning the whole mask list, while *new* flows still
pay the full linear scan.

This is our mechanistic model for the behaviour the paper observed but
could not explain on OpenStack (§5.5): when the attacker resumes, flows
that were already active keep their mask memo and suffer only a minor dip,
while newly established flows see the full tuple-space-explosion damage.
The cache is disabled by default and switched on by the OpenStack
environment profile.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import SwitchError
from repro.packet.fields import FlowKey, FlowMask

__all__ = ["KernelMaskCache"]


class KernelMaskCache:
    """Direct-mapped flow-hash → mask memo.

    Args:
        size: number of slots (the kernel uses 256).
    """

    def __init__(self, size: int = 256):
        if size <= 0:
            raise SwitchError(f"mask cache size must be positive, got {size}")
        self.size = size
        self._slots: list[tuple[int, FlowMask] | None] = [None] * size
        self.stats_hits = 0
        self.stats_misses = 0

    def _slot_index(self, key: FlowKey) -> int:
        return hash(key) % self.size

    def probe(self, key: FlowKey) -> FlowMask | None:
        """The memoised mask for ``key``'s flow, or None.

        A hit only means "try this mask first" — the caller must still
        verify the megaflow entry matches, since distinct flows can collide
        on a slot.
        """
        slot = self._slots[self._slot_index(key)]
        if slot is not None and slot[0] == hash(key):
            self.stats_hits += 1
            return slot[1]
        self.stats_misses += 1
        return None

    def update(self, key: FlowKey, mask: FlowMask) -> None:
        """Memoise that ``key``'s flow matched under ``mask``."""
        self._slots[self._slot_index(key)] = (hash(key), mask)

    def invalidate_masks(self, masks: Iterable[FlowMask]) -> int:
        """Drop every slot pointing at any of ``masks``; returns the count."""
        victims = set(masks)
        if not victims:
            return 0
        dropped = 0
        for index, slot in enumerate(self._slots):
            if slot is not None and slot[1] in victims:
                self._slots[index] = None
                dropped += 1
        return dropped

    def flush(self) -> None:
        """Drop every slot."""
        self._slots = [None] * self.size

    @property
    def occupancy(self) -> int:
        """Number of populated slots."""
        return sum(1 for slot in self._slots if slot is not None)

    def __repr__(self) -> str:
        return f"KernelMaskCache({self.occupancy}/{self.size} slots)"
