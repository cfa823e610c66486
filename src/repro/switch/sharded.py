"""The sharded multi-PMD datapath: N per-core pipelines behind RSS dispatch.

OVS-DPDK deployments run one poll-mode-driver (PMD) thread per dedicated
core, and the NIC's RSS hash spreads flows across them.  Crucially, *every
cache level is per-PMD*: each core owns a private microflow cache, kernel
mask cache, megaflow classifier and accelerator.  The tuple-space-explosion
attack therefore has a per-core blast radius — a mask staircase detonates
only in the shards whose queues carried the crafting packets, and only the
victims RSS co-scheduled onto those cores pay the scan (arXiv:2011.09107).

:class:`ShardedDatapath` models this by composing N independent
:class:`~repro.switch.datapath.Datapath` shards behind an
:class:`~repro.switch.rss.RssDispatcher`.  It exposes the same processing
surface as a single datapath (``process`` / ``process_batch`` /
``kill_entries`` / ``evict_idle`` / aggregate counters), so the hypervisor,
revalidator, MFCGuard and dpctl drive either interchangeably; per-shard
structure is reachable through ``.shards`` for per-core accounting.

*Where and how* the shards execute is delegated to a pluggable
:class:`~repro.switch.executor.ShardExecutor` (``config.executor`` /
the ``executor=`` argument): ``serial`` runs them in the caller's thread
(the reference), ``thread`` overlaps the GIL-releasing numpy scan kernels
on a pool, and ``process`` keeps each shard in a persistent worker
process for true multi-core wall clock — with identical verdicts,
statistics and probe accounting in every mode.  Every aggregate and
every-shard management operation below is one
:meth:`~repro.switch.executor.ShardExecutor.call_all` over a row of
:data:`~repro.switch.executor.SHARD_OPS`: the row's fold column says how
the per-shard answers combine, and the executor makes it one message per
worker rather than one per shard per field.  A burst is not a row:
``process_batch`` partitions it by RSS and hands the sub-batches to the
executor's ``run_batch``.

Sharding invariants (see ROADMAP.md):

* dicts-as-truth and batch ≡ sequential hold *per shard* — each shard is a
  full, independently correct Datapath (whatever megaflow backend
  ``config.megaflow_backend`` selects — every shard runs its own private
  instance of it);
* RSS assignment is stable for a flow's lifetime, so a flow's megaflow,
  microflow and memo state live in exactly one shard;
* with ``n_shards=1`` the behaviour is verdict-for-verdict identical to a
  plain :class:`Datapath` (property-tested in ``tests/test_shard.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.classifier.backend import MegaflowEntry
from repro.classifier.flowtable import FlowTable
from repro.exceptions import SwitchError
from repro.packet.fields import FlowKey
from repro.switch.datapath import (
    BatchVerdicts,
    CoreReport,
    Datapath,
    DatapathConfig,
    DatapathStats,
    PacketVerdict,
    ShardSnapshot,
)
from repro.switch.executor import ShardExecutor, make_shard_executor
from repro.switch.rss import RssDispatcher, five_tuple_hash

__all__ = ["ShardBatchVerdicts", "ShardedDatapath", "AnyDatapath"]


@dataclass(frozen=True)
class ShardBatchVerdicts(BatchVerdicts):
    """One sharded batch: per-packet verdicts plus their RSS placement.

    Attributes:
        shard_ids: the shard each packet was dispatched to, aligned with
            ``verdicts``.  ``mask_counts`` and ``probe_costs`` carry the
            *owning shard's* pre-packet mask count and expected scan cost
            — per-core cost accounting needs the core-local value, not an
            aggregate.
    """

    shard_ids: tuple[int, ...] = ()


class ShardedDatapath:
    """N per-PMD :class:`Datapath` shards behind an RSS dispatcher.

    Args:
        flow_table: the shared slow-path classifier (one control plane; a
            flow-table change revalidates — flushes — every shard, however
            the executor places them).
        config: per-shard datapath knobs, applied to each shard
            (``config.executor`` picks the execution strategy).
        n_shards: PMD core / receive-queue count.
        hash_fn: pluggable RSS hash (see :mod:`repro.switch.rss`).
        rss: a pre-built dispatcher; when given it is authoritative and
            ``n_shards``/``hash_fn`` are ignored.
        executor: execution-strategy override — a registry name
            (``"serial"``/``"thread"``/``"process"``) or a pre-built,
            unbuilt :class:`ShardExecutor`; defaults to
            ``config.executor``.  ``serial``/``thread`` run in-process
            shards; ``process`` keeps the shards in persistent worker
            processes reached through remote handles (call :meth:`close`, or use
            the datapath as a context manager, to stop the workers).
    """

    def __init__(
        self,
        flow_table: FlowTable,
        config: DatapathConfig | None = None,
        n_shards: int = 1,
        hash_fn: Callable[[FlowKey], int] = five_tuple_hash,
        rss: RssDispatcher | None = None,
        executor: str | ShardExecutor | None = None,
    ):
        if rss is not None:
            n_shards = rss.n_queues  # the dispatcher is authoritative
        else:
            rss = RssDispatcher(n_shards, hash_fn=hash_fn)
        self.config = config or DatapathConfig()
        self.flow_table = flow_table
        self.rss = rss
        if executor is None:
            executor = self.config.executor
        if isinstance(executor, str):
            executor = make_shard_executor(
                executor,
                workers=self.config.executor_workers or None,
                transport=self.config.executor_transport,
            )
        self.executor: ShardExecutor = executor
        # The executor owns shard placement: in-process shards subscribe
        # themselves to flow-table revalidation flushes; worker-owned
        # shards get the changes shipped as delta messages.
        self.executor.build(flow_table, self.config, n_shards)
        self._shards = self.executor.shards
        self._remaps = 0
        self._last_remap_at: float | None = None
        self._entries_moved = 0

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Release the executor (stops worker pools/processes); idempotent."""
        self.executor.close()

    def __enter__(self) -> "ShardedDatapath":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sharding surface ---------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of PMD shards."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[Datapath, ...]:
        """The per-PMD shard datapaths (or worker-shard handles), by queue id."""
        return self._shards

    @property
    def executor_name(self) -> str:
        """The execution strategy, e.g. ``"serial"`` or ``"process[4 workers]"``."""
        return self.executor.describe()

    def shard_of(self, key: FlowKey) -> int:
        """The shard RSS dispatches ``key``'s flow to."""
        return self.rss.queue_of(key)

    def maintenance(self):
        """Serialise a management sweep against in-flight shard batches."""
        return self.executor.maintenance()

    def core_report(self) -> list[CoreReport]:
        """Per-core (n_masks, n_megaflows, scan_cost) snapshots, by shard id.

        One message per worker under the ``process`` strategy, which is
        what keeps the hypervisor's per-tick settlement cheap.
        """
        return self.executor.call_all("core_report")

    # -- aggregate cache sizes ----------------------------------------------------
    @property
    def n_masks(self) -> int:
        """Distinct megaflow masks across all shards (the figure of merit).

        A mask installed in several shards counts once — this is the size
        of the tuple space the attack has carved, comparable across shard
        counts.  Per-core scan length is ``shards[i].n_masks``.
        """
        if len(self._shards) == 1:
            return self._shards[0].n_masks
        return len(set(self.executor.call_all("megaflows.masks")))

    @property
    def n_megaflows(self) -> int:
        """Total megaflow entries across all shards."""
        return self.executor.call_all("n_megaflows")

    @property
    def scan_cost(self) -> float:
        """Worst per-core expected full-scan cost (normalised probe units).

        Scan cost is a per-PMD quantity — each core scans only its own
        cache — so the host-level figure is the most expensive core's,
        the one a queue-concentrated detonation inflates.  Per-core values
        are ``shards[i].scan_cost``.
        """
        return self.executor.call_all("scan_cost")

    @property
    def now(self) -> float:
        """The most advanced shard clock."""
        return self.executor.call_all("now")

    @property
    def stats(self) -> DatapathStats:
        """Aggregate counters summed across shards (a fresh snapshot)."""
        return self.executor.call_all("stats")

    # -- packet processing --------------------------------------------------------
    def process(self, key: FlowKey, now: float | None = None) -> PacketVerdict:
        """Classify one packet on the shard RSS assigns it to."""
        shard_id = self.shard_of(key)
        with self.executor.lock(shard_id):
            return self._shards[shard_id].process(key, now=now)

    def process_batch(
        self, keys: Sequence[FlowKey], now: float | None = None
    ) -> ShardBatchVerdicts:
        """RSS-partition a batch and run each sub-batch on its shard.

        Per-shard sub-batches preserve arrival order, so within a shard
        this is exactly that shard's ``process_batch``; across shards the
        pipelines are independent, so any physical interleaving — the
        executor may run them serially, on pool threads, or in worker
        processes — is equivalent.  The result is reassembled by original
        arrival index in shard-id order (deterministic however the
        sub-batches were scheduled), with each packet's shard id and its
        shard-local pre-packet mask count and expected scan cost.
        """
        keys = list(keys)
        buckets = self.rss.partition(keys)
        assignment_list = [0] * len(keys)
        for shard_id, indices in buckets.items():
            for index in indices:
                assignment_list[index] = shard_id
        assignment = tuple(assignment_list)
        verdicts: list[PacketVerdict | None] = [None] * len(keys)
        mask_counts = [0] * len(keys)
        probe_costs = [1.0] * len(keys)
        sub_batches = {
            shard_id: [keys[i] for i in indices]
            for shard_id, indices in buckets.items()
        }
        results = self.executor.run_batch(sub_batches, now)
        for shard_id in sorted(results):
            batch = results[shard_id]
            for position, index in enumerate(buckets[shard_id]):
                verdicts[index] = batch.verdicts[position]
                mask_counts[index] = batch.mask_counts[position]
                probe_costs[index] = batch.probe_costs[position]
        return ShardBatchVerdicts(
            verdicts=tuple(verdicts),
            mask_counts=tuple(mask_counts),
            probe_costs=tuple(probe_costs),
            upcalls=sum(batch.upcalls for batch in results.values()),
            shard_ids=assignment,
        )

    # -- management operations ----------------------------------------------------
    def entries(self) -> Iterator[MegaflowEntry]:
        """All megaflow entries across shards (shard-major order)."""
        return iter(self.executor.call_all("megaflows.entries"))

    def kill_entries(self, entries: Iterable[MegaflowEntry], permanent: bool = True) -> int:
        """Remove megaflows from every shard holding them (MFCGuard delete).

        Entries are matched by value (``mask`` + masked key), so copies
        that crossed a worker-process boundary address the same megaflow.
        A shard removes and dead-marks only the entries it holds, in one
        kill per shard; returns the number of removals.
        """
        held: list[list[MegaflowEntry]] = [[] for _ in self._shards]
        with self.maintenance():  # no batch may land between the find and the kill
            for entry in entries:
                for own, holds in zip(held, self.executor.call_all("megaflows.find_entry", entry)):
                    if holds:
                        own.append(entry)
            return sum(shard.kill_entries(own, permanent=permanent) for shard, own in zip(self._shards, held) if own)

    def reinject(self, entry: MegaflowEntry) -> None:
        """Re-allow an entry previously killed permanently, on every shard."""
        self.executor.call_all("reinject", entry)

    def flush_caches(self) -> None:
        """Drop every shard's cached state (flow-table revalidation)."""
        self.executor.call_all("flush_caches")

    def evict_idle(self, now: float | None = None) -> list[MegaflowEntry]:
        """Evict idle megaflows on every shard; returns all evicted entries."""
        return self.executor.call_all("evict_idle", now)

    # -- live backend migration ---------------------------------------------------
    def migrate_backend(
        self, target_kind: str, shard_id: int | None = None, slice_size: int = 512
    ) -> list[ShardSnapshot]:
        """Rebuild and swap shard caches to ``target_kind``, one shot.

        Runs under :meth:`maintenance`, so the swap serialises against
        in-flight batches under every executor strategy; under the
        ``process`` executor each shard's rebuild runs inside its owning
        worker (only its snapshot is shipped back).  ``shard_id``
        limits the migration to one shard (a targeted rescue of the
        detonated core) and must name an existing shard; default is every
        shard.
        """
        if shard_id is not None and not 0 <= shard_id < self.n_shards:
            raise SwitchError(f"no shard {shard_id} to migrate: datapath has {self.n_shards} shards")
        with self.maintenance():
            if shard_id is None:
                return self.executor.call_all("migrate_backend", target_kind, slice_size=slice_size)
            snapshots = self.executor.call_all("snapshot")
            snapshots[shard_id] = self._shards[shard_id].migrate_backend(target_kind, slice_size=slice_size)
            return snapshots

    # -- live RSS rebalancing -----------------------------------------------------
    def rebalance(self, dispatcher: RssDispatcher) -> int:
        """Re-map the datapath onto ``dispatcher``, migrating flow state live.

        The re-map protocol (ROADMAP item 5, the defense against the
        RSS-aware attacker of arXiv:2011.09107):

        1. quiesce every shard under :meth:`maintenance` — no batch is in
           flight anywhere while ownership moves;
        2. each shard *extracts* the megaflows (and §8 dead-entry records)
           whose home under the new dispatcher is a different shard — a
           delta of its state, never a snapshot, which is also exactly
           what crosses the pipe under the ``process`` executor;
        3. route every extracted entry by its masked key through the new
           dispatcher and *install* it on its new home shard, where
           refresh-semantics dedupe copies of the same megaflow arriving
           from several shards;
        4. swap ``self.rss`` — from here on dispatch and re-dispatch see
           only the new placement.

        The aggregate ``(mask, masked key)`` union across shards is
        invariant through the re-map (zero entries dropped: installation
        bypasses admission gates), and with ``n_shards == 1`` every home
        is shard 0, so a re-map is a no-op on the cache contents.

        Returns the number of entries this re-map moved; the running
        totals are :attr:`remaps`, :attr:`last_remap_at` and
        :attr:`entries_moved`, the new salt ``rss.salt``.
        """
        if dispatcher.n_queues != self.n_shards:
            raise SwitchError(
                f"dispatcher has {dispatcher.n_queues} queues, "
                f"datapath has {self.n_shards} shards"
            )
        with self.maintenance():
            inbound_entries: dict[int, list[MegaflowEntry]] = {}
            inbound_dead: dict[int, list] = {}
            for shard_id, shard in enumerate(self._shards):
                delta = shard.rebalance_extract(dispatcher, shard_id)
                for entry in delta["entries"]:
                    home = dispatcher.queue_of(FlowKey.from_values(entry.key))
                    inbound_entries.setdefault(home, []).append(entry)
                for record in delta["dead"]:
                    mask, key = record
                    home = dispatcher.queue_of(FlowKey.from_values(tuple(key)))
                    inbound_dead.setdefault(home, []).append(record)
            moved = 0
            for shard_id, shard in enumerate(self._shards):
                entries = inbound_entries.get(shard_id, [])
                dead = inbound_dead.get(shard_id, [])
                if entries or dead:
                    moved += shard.rebalance_install(entries, dead)
            self.rss = dispatcher
            self._remaps += 1
            self._last_remap_at = self.now
            self._entries_moved += moved
        return moved

    @property
    def remaps(self) -> int:
        """Re-maps run so far."""
        return self._remaps

    @property
    def last_remap_at(self) -> float | None:
        """When the last re-map ran (``None`` before the first)."""
        return self._last_remap_at

    @property
    def entries_moved(self) -> int:
        """Entries moved to a new home shard, over every re-map so far."""
        return self._entries_moved

    def __repr__(self) -> str:
        per_shard = ", ".join(str(shard.n_masks) for shard in self._shards)
        return (
            f"ShardedDatapath({self.n_shards} shards, masks/shard [{per_shard}], "
            f"{self.n_megaflows} megaflows)"
        )


# Anything the switch-management layers (revalidator, guard, dpctl,
# hypervisor) can drive: both expose shards/n_masks/n_megaflows/kill_entries.
AnyDatapath = Datapath | ShardedDatapath
