"""The revalidator: periodic megaflow maintenance (idle eviction, limits).

OVS runs revalidator threads that dump the datapath flows, evict entries
idle longer than the timeout (10 s by default — the constant behind the
delayed victim recovery in Fig. 8a/8b), and enforce the flow limit.  The
revalidation *work itself* scales with the number of installed megaflows,
which is how the IPv6 exact-match blow-up of §5.4 burns 8 CPU cores: we
account that cost so the experiment can reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifier.backend import MegaflowEntry
from repro.switch.sharded import AnyDatapath

__all__ = ["RevalidatorStats", "Revalidator"]

# Cost accounting: revalidating one megaflow entry, in fast-path units
# (dump + re-lookup + stats fold; a few microseconds vs tens of ns).
REVALIDATE_UNITS_PER_ENTRY = 5.0


@dataclass
class RevalidatorStats:
    """Counters across all sweeps."""

    sweeps: int = 0
    evicted_idle: int = 0
    evicted_limit: int = 0
    work_units: float = 0.0


class Revalidator:
    """Periodic sweeper bound to one datapath (sharded or not).

    OVS revalidator threads serve every PMD's flow dump, so one sweeper
    maintains all shards: idle eviction runs per shard, and the flow limit
    is enforced against the *aggregate* entry count (the limit models
    total datapath memory, not a per-core quota).

    Args:
        datapath: the datapath to maintain.
    """

    period = 1.0  # seconds between sweeps when driven by :meth:`tick`

    def __init__(self, datapath: AnyDatapath):
        self.datapath = datapath
        self._next_sweep = self.period
        self.stats = RevalidatorStats()

    def tick(self, now: float) -> list[MegaflowEntry]:
        """Run a sweep if ``now`` has reached the next scheduled sweep."""
        if now < self._next_sweep:
            return []
        self._next_sweep = now + self.period
        return self.sweep(now)

    def sweep(self, now: float) -> list[MegaflowEntry]:
        """One full revalidation pass; returns the evicted entries.

        The sweep runs under the datapath's maintenance lock so a
        parallel executor never lets it observe a shard mid-batch.  Idle
        eviction is one bulk removal per shard, and so is the flow-limit
        cut: one ``kill_entries`` call, which under the process executor
        hands each worker its share of the dumped entries as one list of
        value-addressed copies, resolved there.
        """
        with self.datapath.maintenance():
            self.stats.sweeps += 1
            entries_before = self.datapath.n_megaflows
            self.stats.work_units += entries_before * REVALIDATE_UNITS_PER_ENTRY

            evicted = self.datapath.evict_idle(now)
            self.stats.evicted_idle += len(evicted)

            # Flow-limit pressure: if still above the limit after idle
            # eviction, drop the least recently used entries (OVS lowers the
            # limit and evicts aggressively under memory pressure).
            overflow = self.datapath.n_megaflows - self.datapath.config.max_megaflows
            if overflow > 0:
                by_lru = sorted(
                    (
                        entry
                        for shard in self.datapath.shards
                        for entry in shard.megaflows.entries()
                    ),
                    key=lambda e: e.last_used,
                )
                self.datapath.kill_entries(by_lru[:overflow], permanent=False)
                self.stats.evicted_limit += overflow
                evicted = evicted + by_lru[:overflow]
            return evicted

    def __repr__(self) -> str:
        return f"Revalidator(period={self.period}s, sweeps={self.stats.sweeps})"
