"""The simulated OVS datapath: fast path / slow path pipeline (Fig. 10).

A packet entering the switch traverses, in order:

1. the **microflow cache** — exact match on all fields (short-term memory);
2. optionally the **kernel mask cache** — a memo of which megaflow mask
   matched this flow last time (one hash probe instead of a scan);
3. the **megaflow cache** — a pluggable :class:`MegaflowStore` (Tuple
   Space Search by default; ``DatapathConfig.megaflow_backend`` selects
   alternatives such as the TupleChain-style grouped backend);
4. the **slow path** — an upcall running the full ordered flow-table
   lookup, which generates and installs a new megaflow entry.

The datapath reports, for every packet, which level answered and how much
work the lookup did; the cost model and network simulator turn that into
throughput.  It also owns the behavioural quirks the paper depends on:

* caches are flushed when the flow table changes (revalidation) — how the
  attacker's mid-run ACL injection detonates in Fig. 8c;
* megaflow entries deleted by :class:`~repro.core.mitigation.MFCGuard` are
  never re-installed ("once an MFC entry is deleted it will never be
  sparked again", §8) — matching packets stay on the slow path.
"""

from __future__ import annotations

import enum
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import ClassVar, Iterable, Iterator, NamedTuple, Sequence

from repro.classifier.actions import Action
from repro.classifier.backend import (
    BackendRebuild,
    MegaflowEntry,
    MegaflowStore,
    make_megaflow_backend,
)
from repro.classifier.flowtable import FlowTable
from repro.classifier.microflow import MicroflowCache
from repro.classifier.slowpath import (
    OVS_DEFAULT,
    MegaflowGenerator,
    SlowPathResult,
    StrategyConfig,
)
from repro.exceptions import CacheInvariantError, SwitchError
from repro.packet.fields import FlowKey, FlowMask
from repro.switch.maskcache import KernelMaskCache

__all__ = [
    "PathTaken",
    "PacketVerdict",
    "BatchVerdicts",
    "CoreReport",
    "ShardSnapshot",
    "DatapathConfig",
    "Datapath",
]


class PathTaken(enum.Enum):
    """Which pipeline level decided the packet's fate."""

    MICROFLOW = "microflow"
    MASK_CACHE = "mask_cache"
    MEGAFLOW = "megaflow"
    SLOW_PATH = "slow_path"


class PacketVerdict(NamedTuple):
    """Per-packet processing report (one per packet: a tuple).

    Attributes:
        action: the final decision.
        path: pipeline level that answered.
        masks_inspected: lookup work in the megaflow backend's native
            probe units — mask tables probed for TSS, chain probes for
            grouped backends (0 for microflow hits, 1 for mask-cache hits).
        rules_examined: flow-table rules visited (slow path only).
        installed: megaflow entry installed by this packet, if any.
    """

    action: Action
    path: PathTaken
    masks_inspected: int = 0
    rules_examined: int = 0
    installed: MegaflowEntry | None = None

    @property
    def is_upcall(self) -> bool:
        return self.path is PathTaken.SLOW_PATH


_MEGAFLOW = PathTaken.MEGAFLOW
_SLOW_PATH = PathTaken.SLOW_PATH
# A NamedTuple's generated ``__new__`` is a Python-level call; warm hits and
# upcalls build their verdicts with ``tuple.__new__`` (every field given).
_new = tuple.__new__


@dataclass(frozen=True)
class BatchVerdicts:
    """Result of one :meth:`Datapath.process_batch` call.

    Attributes:
        verdicts: one :class:`PacketVerdict` per input key, in order —
            verdict-for-verdict identical to calling :meth:`Datapath.process`
            sequentially.
        mask_counts: the megaflow mask count *before* each packet was
            processed — the tuple space's *size*, still the detection /
            figure-of-merit view, and the TSS special case of the cost
            currency.
        probe_costs: the megaflow backend's expected full-scan cost (in
            normalised probe units) *before* each packet was processed —
            what pricing work costs at classification time (Observation 1
            generalised: costs grow mid-batch as upcalls install masks, so
            cost accounting needs the per-packet value, not the
            batch-entry snapshot).  Equals ``max(mask_counts[i], 1)`` for
            TSS; diverges for backends whose scan cost is sublinear in the
            mask count.
        upcalls: number of packets that went to the slow path — counted
            during batch construction (O(1) to read), not re-summed over
            the verdicts on every access.  Constructors that don't know
            the count (or reconstruct from the wire) may omit it; it is
            then derived once in ``__post_init__``.
    """

    verdicts: tuple[PacketVerdict, ...]
    mask_counts: tuple[int, ...]
    probe_costs: tuple[float, ...] = ()
    upcalls: int = -1

    def __post_init__(self) -> None:
        if self.upcalls < 0:
            object.__setattr__(
                self, "upcalls", sum(1 for v in self.verdicts if v.is_upcall)
            )

    def __len__(self) -> int:
        return len(self.verdicts)

    def __iter__(self) -> Iterator[PacketVerdict]:
        return iter(self.verdicts)

    def __getitem__(self, index: int) -> PacketVerdict:
        return self.verdicts[index]


@dataclass(frozen=True)
class CoreReport:
    """One PMD core's cost-relevant cache sizes, snapshotted together.

    The per-tick quantities the hypervisor prices work with — taking them
    as one record (and, on a sharded datapath, one executor round trip)
    instead of three attribute reads keeps per-core accounting cheap when
    the shards live in worker processes.

    Attributes:
        n_masks: the shard's installed distinct-mask count (detection
            figure of merit; drives the mask-memo protection quirk).
        n_megaflows: the shard's installed entry count (revalidation cost).
        scan_cost: the shard's expected full-scan cost in normalised probe
            units (what victim/attack work is priced at).
    """

    n_masks: int
    n_megaflows: int
    scan_cost: float


@dataclass(frozen=True)
class DatapathConfig:
    """Tunable behaviour of the simulated datapath.

    Attributes:
        microflow_capacity: entries in the exact-match cache (0 disables).
        enable_mask_cache: kernel mask memo (OpenStack quirk, §5.5).
        mask_cache_size: slots in the mask memo.
        strategy: megaflow generation strategy (see
            :mod:`repro.classifier.slowpath`).
        max_megaflows: OVS-style flow limit; upcalls stop installing new
            entries (but still classify) once reached.
        idle_timeout: seconds of inactivity before the revalidator may
            evict an entry — OVS's 10 s, a constant (not a constructor
            argument).
        check_invariants: verify Inv(2) on every install (tests).
        megaflow_backend: name of the level-3 megaflow cache
            implementation (see :mod:`repro.classifier.backend`) —
            ``"tss"`` is the paper's Tuple Space Search; ``"tuplechain"``
            the grouped/chained §7-style defense backend.  Applied per
            shard on a sharded datapath.
        executor: shard-execution strategy for a sharded datapath (see
            :mod:`repro.switch.executor`): ``"serial"`` (the reference),
            ``"thread"`` (the compiled scan runs with the GIL released,
            so shards overlap there; the per-packet Python around it
            does not), or ``"process"`` (worker processes own the shards
            — true multi-core wall clock).  Ignored by a plain datapath.
        executor_workers: worker cap for pooled executors (0 → one worker
            per shard).
        executor_transport: data-plane transport for the ``process``
            executor — ``"shm"`` (zero-copy shared-memory rings with a
            pipe doorbell; falls back to pipes per oversized batch) or
            ``"pipe"`` (the PR 5 pickled-batch protocol).  Control ops
            and flow-table deltas always travel the pipe.
        scan_kernel: which :mod:`repro.classifier.kernel` implementation
            computes batch scan plans for backends that have one —
            ``"auto"`` (compiled cffi kernel when available, numpy
            otherwise), ``"numpy"``, or ``"cffi"``.
    """

    microflow_capacity: int = 256
    enable_mask_cache: bool = False
    mask_cache_size: int = 256
    strategy: StrategyConfig = OVS_DEFAULT
    max_megaflows: int = 200_000
    idle_timeout: ClassVar[float] = 10.0
    check_invariants: bool = False
    megaflow_backend: str = "tss"
    executor: str = "serial"
    executor_workers: int = 0
    executor_transport: str = "shm"
    scan_kernel: str = "auto"


@dataclass
class DatapathStats:
    """Aggregate counters of one datapath."""

    packets: int = 0
    microflow_hits: int = 0
    mask_cache_hits: int = 0
    megaflow_hits: int = 0
    upcalls: int = 0
    installs: int = 0
    install_rejected: int = 0
    dead_entry_suppressed: int = 0
    flushes: int = 0
    masks_inspected_total: int = 0


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's state, read in one pass: the only record of it that
    crosses an executor (one message per worker under ``process``).

    Attributes:
        stats: a copy of the shard's :class:`DatapathStats` counters.
        lookup_hits / lookup_misses: megaflow-cache lookups served / missed.
        n_masks / n_megaflows: installed distinct masks and entries.
        scan_cost: expected full-scan cost, normalised probe units.
        unit_cost: calibrated table probes per backend-native probe unit.
        scans / probes_total: scans run and native probe units they spent.
        backend: the serving backend's name; scan_kernel: its scan kernel.
        memory_bytes: the megaflow cache's estimated footprint.
        microflows / microflow_capacity / microflow_hit_rate: the exact-
            match cache's occupancy (capacity 0: the cache is off).
        migration: ``"idle"``, ``"rebuilding"`` or ``"swapped"``.
        target / progress / rebuild_done / entries_copied /
            journal_replayed: the in-flight rebuild (``None``/1.0/False/0/0
            when none is).
        rebuild_memory_bytes: the rebuild target's footprint (the last
            swapped-in one when no rebuild is in flight).
        swaps / last_swap_at: completed swaps and the last one's time.
    """

    stats: DatapathStats
    lookup_hits: int
    lookup_misses: int
    n_masks: int
    n_megaflows: int
    scan_cost: float
    unit_cost: float
    scans: int
    probes_total: int
    backend: str
    scan_kernel: str
    memory_bytes: int
    microflows: int
    microflow_capacity: int
    microflow_hit_rate: float
    migration: str
    target: str | None
    progress: float
    rebuild_done: bool
    entries_copied: int
    journal_replayed: int
    rebuild_memory_bytes: int
    swaps: int
    last_swap_at: float | None


class Datapath:
    """The simulated software switch datapath.

    Args:
        flow_table: the slow-path classifier (:meth:`flush_caches` is
            subscribed to its changes; the table holds it weakly, so a
            dropped datapath is freed by reference counting).
        config: behaviour knobs (``config.megaflow_backend`` names the
            level-3 cache implementation).
        megaflows: a pre-built megaflow backend to use instead of building
            one from the config (dependency injection for the §7 adapter
            and the tests; must be empty).
    """

    def __init__(
        self,
        flow_table: FlowTable,
        config: DatapathConfig | None = None,
        megaflows: MegaflowStore | None = None,
    ):
        self.config = config or DatapathConfig()
        self.flow_table = flow_table
        if megaflows is not None and len(megaflows):
            # A pre-warmed cache would serve entries no upcall installed
            # (bypassing stats and the dead-entry quirk), and a shared one
            # would be flushed by the other datapath's revalidation.
            raise SwitchError(
                f"injected megaflow backend must be empty, has {len(megaflows)} entries"
            )
        self.megaflows: MegaflowStore = (
            megaflows
            if megaflows is not None
            else make_megaflow_backend(
                self.config.megaflow_backend,
                check_invariants=self.config.check_invariants,
                scan_kernel=self.config.scan_kernel,
            )
        )
        self.microflows: MicroflowCache | None = (
            MicroflowCache(self.config.microflow_capacity)
            if self.config.microflow_capacity > 0
            else None
        )
        self.mask_cache: KernelMaskCache | None = (
            KernelMaskCache(self.config.mask_cache_size)
            if self.config.enable_mask_cache
            else None
        )
        # Whether levels 1-2 exist (fixed from here on): the per-packet paths
        # remember a megaflow for them only then.
        self._fast = self.microflows is not None or self.mask_cache is not None
        self.generator = MegaflowGenerator(flow_table, self.config.strategy)
        self._dead_entries: set[tuple[FlowMask, tuple[int, ...]]] = set()
        self.stats = DatapathStats()
        self.now = 0.0
        # Live backend migration (see migrate_backend_*): at most one
        # rebuild in flight per datapath/shard.
        self._rebuild: BackendRebuild | None = None
        self._migration_swaps = 0
        self._last_swap_at: float | None = None
        self._last_rebuild_memory = 0
        flow_table.subscribe(self.flush_caches)

    # -- sharding surface --------------------------------------------------------
    # A plain Datapath is the degenerate one-shard case of the multi-PMD
    # model; exposing the same surface as ShardedDatapath lets the
    # hypervisor, revalidator, MFCGuard and dpctl treat both uniformly.
    @property
    def n_shards(self) -> int:
        """Number of PMD shards (always 1 for an unsharded datapath)."""
        return 1

    @property
    def shards(self) -> tuple["Datapath", ...]:
        """The per-PMD shard datapaths (just this one)."""
        return (self,)

    def shard_of(self, key: FlowKey) -> int:
        """RSS queue of ``key`` (always 0 without RSS)."""
        return 0

    def core_report(self) -> list["CoreReport"]:
        """Per-core cost snapshot (one entry for the single core)."""
        return [CoreReport(self.n_masks, self.n_megaflows, self.scan_cost)]

    def maintenance(self):
        """Context for management sweeps; trivial without an executor."""
        return nullcontext()

    def close(self) -> None:
        """Release execution resources (nothing to release unsharded)."""

    # -- cache sizes --------------------------------------------------------------
    @property
    def n_masks(self) -> int:
        """Current megaflow mask count — the attack's figure of merit."""
        return self.megaflows.n_masks

    @property
    def n_megaflows(self) -> int:
        """Current megaflow entry count."""
        return self.megaflows.n_entries

    @property
    def scan_cost(self) -> float:
        """Expected full-scan cost of the megaflow cache (probe units).

        The probe-native counterpart of :attr:`n_masks`: what one lookup
        that misses every fast level costs right now, in calibrated
        single-table-probe units.  Equals ``max(n_masks, 1)`` for TSS.
        """
        return self.megaflows.expected_scan_cost()

    # -- packet processing ----------------------------------------------------------
    def _advance_clock(self, now: float | None) -> None:
        if now is not None:
            if now < self.now:
                raise SwitchError(f"time went backwards: {now} < {self.now}")
            self.now = now

    def _microflow_level(self, key: FlowKey) -> PacketVerdict | None:
        """Level 1: microflow exact-match cache."""
        entry = self.microflows.lookup(key)
        if entry is None:
            return None
        if self.megaflows.find_entry(entry):
            entry.hits += 1
            entry.last_used = self.now
            self.stats.microflow_hits += 1
            return PacketVerdict(action=entry.action, path=PathTaken.MICROFLOW)
        self.microflows.drop_stale_hit(entry)
        return None

    def _mask_cache_level(self, key: FlowKey) -> PacketVerdict | None:
        """Level 2: kernel mask cache (single-table probe)."""
        hinted = self.mask_cache.probe(key)
        if hinted is None:
            return None
        entry = self.megaflows.probe_mask(hinted, key, now=self.now)
        if entry is None:
            return None
        self.stats.mask_cache_hits += 1
        self.stats.masks_inspected_total += 1
        self._remember(key, entry)
        return PacketVerdict(
            action=entry.action, path=PathTaken.MASK_CACHE, masks_inspected=1
        )

    def _fast_levels(self, key: FlowKey) -> PacketVerdict | None:
        """Levels 1-2: microflow cache, then kernel mask cache."""
        if self.microflows is not None:
            verdict = self._microflow_level(key)
            if verdict is not None:
                return verdict
        if self.mask_cache is not None:
            verdict = self._mask_cache_level(key)
            if verdict is not None:
                return verdict
        return None

    def _scan_levels(self, key: FlowKey, result) -> PacketVerdict:
        """Levels 3-4: settle a TSS scan result; upcall on a miss."""
        self.stats.masks_inspected_total += result.masks_inspected
        if result.entry is not None:
            self.stats.megaflow_hits += 1
            self._remember(key, result.entry)
            return PacketVerdict(
                action=result.entry.action,
                path=PathTaken.MEGAFLOW,
                masks_inspected=result.masks_inspected,
            )
        return self._upcall(key, scanned=result.masks_inspected)

    def process(self, key: FlowKey, now: float | None = None) -> PacketVerdict:
        """Classify one packet (by flow key) through the full pipeline."""
        self._advance_clock(now)
        self.stats.packets += 1
        verdict = self._fast_levels(key)
        if verdict is not None:
            return verdict
        return self._scan_levels(key, self.megaflows.lookup(key, now=self.now))

    def process_batch(
        self,
        keys: Sequence[FlowKey],
        now: float | None = None,
        rows: "np.ndarray | None" = None,
    ) -> BatchVerdicts:
        """Classify a whole batch of packets through the pipeline.

        Semantically identical to calling :meth:`process` per key in
        order — same verdicts, same cache mutations, same statistics —
        but the level-3 tuple-space scan runs through the vectorised
        batch scanner, which amortises the (keys x masks) mask/hash work
        across the batch the way OVS/DPDK amortise per-packet overhead
        over ~32-packet rx bursts.  Levels 1/2 and upcall *settlement*
        (install, stats, flow limit) stay per-key because each packet's
        probe can depend on the caches the previous packet just touched
        (a batch of duplicates must hit the microflow its first packet
        installed).

        Each key's megaflow is generated at most once per burst and
        shared by the two places that need it: the upcall that settles a
        miss, and the scanner's mid-burst coherence probe — a key the
        scan plan missed, looked up after this burst installed something,
        is settled by one truth-dict probe for *its own* megaflow
        (``spawn`` below; the argument and its premises are in
        :class:`~repro.classifier.tss._BatchScanner`), and so is a key
        whose megaflow an earlier burst installed but the index has not
        yet appended.  This method is the
        only mid-burst installer and installs nothing but generated
        megaflows, which is what makes that probe complete.

        Generation is batched: the first key that needs a megaflow pulls
        the scanner's guaranteed-miss set for the rest of the burst
        through one :meth:`MegaflowGenerator.generate_batch` call,
        packets spawning the same megaflow share one generation (OVS
        handler dedup), and the backend's accelerator appends queue under
        :meth:`MegaflowStore.index_burst` and drain in one pass once the
        backlog reaches the index's merge cadence, which a trickle of
        small cold bursts reaches only every several bursts, or once a
        burst re-reads it; ``spawn`` settles a key whose megaflow is
        still queued.
        Generation is pure — it reads only the flow table — so generating
        for a key that ends up hitting a mid-batch install observably
        changes nothing, and the burst stays verdict-for-verdict and
        install-for-install identical to the scalar engine: per-key
        :meth:`process`, one :meth:`MegaflowGenerator.generate` per upcall.

        Per-packet bookkeeping is kept off the warm path on one premise,
        stated in :class:`MegaflowStore` and re-checked per run under
        ``check_invariants``: only an upcall moves the cache's size or the
        backend's cost estimate.  So the pre-packet ``(n_masks,
        expected_scan_cost())`` behind ``mask_counts`` / ``probe_costs`` is
        read at burst entry and again after every upcall, and the
        per-packet counters accumulate in locals that a ``finally`` adds
        to :attr:`stats` — a burst that raises mid-way leaves the counters
        its packets so far would have written one by one.  With levels 1-2
        off nothing reads per-packet cache state between hits, so the scan
        level settles a whole run of consecutive hits per scanner call
        (``hits``), and the miss that ends a run in the same call.  With
        the microflow cache the only fast level, the same holds inside a
        *decided-miss region* (:meth:`MicroflowCache.miss_region`): keys
        not cached at the region's start and not repeated in it miss level
        1 whatever the region's remembers evict, so they skip the probe,
        settle as one run, and enter the LRU in one
        :meth:`MicroflowCache.insert_missed` call — the order, counters and
        evictions per-key probes and inserts leave.  The region is computed
        once, when the loop reaches its start, so a cold burst costs O(n)
        in it.  With the mask cache on, a run stays one packet: its probe
        reads what the previous packet remembered.

        ``rows`` optionally supplies ``keys``' uint64 column matrix.  Keys
        that have been scanned before carry their packed row
        (:func:`repro.classifier.kernel.keys_to_matrix`), so only a caller
        whose keys are fresh objects every burst gains by it: the
        shared-memory worker, which rebuilds its keys *from* that matrix.
        Purely a recomputation saving, never a semantic input.
        """
        self._advance_clock(now)
        keys = list(keys)
        verdicts: list[PacketVerdict] = []
        mask_counts: list[int] = []
        probe_costs: list[float] = []
        upcalls = 0
        gen_memo: dict[tuple[int, ...], "SlowPathResult"] = {}

        def generate(i: int) -> "SlowPathResult":
            key = keys[i]
            slow = gen_memo.get(key.values)
            if slow is None:
                # Coalesce: generate for every key the scanner already
                # knows will miss, so later upcalls in the burst (and
                # duplicate decision paths) are memo hits.
                cohort = {key.values: key}
                for j in scanner.plan_misses(i):
                    cohort.setdefault(keys[j].values, keys[j])
                results = self.generator.generate_batch(list(cohort.values()))
                gen_memo.update(zip(cohort, results))
                slow = results[0]  # the cohort leads with ``key``
            return slow

        megaflows = self.megaflows
        scanner = megaflows.batch_scanner(
            keys, now=self.now, rows=rows, spawn=lambda i: generate(i).entry
        )
        check = self.config.check_invariants
        fast = self._fast
        # Only an upcall moves the cache's size or the backend's cost
        # estimate (MegaflowStore: "only a miss moves size or cost").
        n_masks, scan_cost = megaflows.n_masks, megaflows.expected_scan_cost()
        megaflow_hits = inspected = 0
        verdict_append = verdicts.append
        # ``hits`` settles a run of consecutive hits in one call (ended by the
        # burst, or by a miss it settles too); the packets then consume it.
        # Levels 1-2 probe what the previous packet remembered, so with
        # either on, a run is one packet — except inside a decided-miss
        # region (see above): ``keys[i:region]`` skip the level-1 probe and
        # settle as one run, remembered in one call.
        microflows = self.microflows if self.mask_cache is None else None
        region = 0
        run: list = []
        taken = 0
        n = len(keys)
        try:
            with megaflows.index_burst():
                for i, key in enumerate(keys):
                    if check and taken == len(run):
                        self._check_cost_unmoved(i, (n_masks, scan_cost))
                    mask_counts.append(n_masks)
                    probe_costs.append(scan_cost)
                    if taken == len(run):
                        if microflows is not None and i >= region:
                            region = microflows.miss_region(keys, i)
                        if i < region:
                            run, taken = scanner.hits(i, region), 0
                            microflows.insert_missed(
                                keys[i : i + len(run)], [entry for entry, _ in run]
                            )
                        else:
                            if fast:
                                verdict = self._fast_levels(key)
                                if verdict is not None:
                                    verdict_append(verdict)
                                    continue
                            run, taken = scanner.hits(i, i + 1 if fast else n), 0
                    entry, probes = run[taken]
                    taken += 1
                    inspected += probes
                    if entry is None:
                        verdict_append(self._install_upcall(key, generate(i), probes))
                        upcalls += 1
                        n_masks, scan_cost = megaflows.n_masks, megaflows.expected_scan_cost()
                    else:
                        megaflow_hits += 1
                        if fast and i >= region:
                            self._remember(key, entry)
                        verdict_append(_new(PacketVerdict, (entry.action, _MEGAFLOW, probes, 0, None)))
                if check:
                    self._check_cost_unmoved(n, (n_masks, scan_cost))
        finally:
            # What per-packet writes would have left, also when a packet
            # raised: every packet entered has its pre-packet mask count.
            stats = self.stats
            stats.packets += len(mask_counts)
            stats.megaflow_hits += megaflow_hits
            stats.masks_inspected_total += inspected
        # ``generate`` closes over the scanner and the scanner holds ``spawn``:
        # unbind the cell so the (up to 32 MB) scan plan is freed by refcount
        # here, not whenever the cyclic GC next runs.
        scanner = None
        return BatchVerdicts(
            verdicts=tuple(verdicts),
            mask_counts=tuple(mask_counts),
            probe_costs=tuple(probe_costs),
            upcalls=upcalls,
        )

    def _check_cost_unmoved(self, i: int, snapshot: tuple[int, float]) -> None:
        """``check_invariants``: nothing but an upcall moved size or cost."""
        megaflows = self.megaflows
        if snapshot != (megaflows.n_masks, megaflows.expected_scan_cost()):
            raise CacheInvariantError(
                f"packet {i} of the burst: megaflow (n_masks, scan cost) left "
                f"{snapshot} without an upcall"
            )

    def _upcall(self, key: FlowKey, scanned: int) -> PacketVerdict:
        """Scalar slow path: generate for one key, then settle."""
        return self._install_upcall(key, self.generator.generate(key), scanned)

    def _install_upcall(
        self, key: FlowKey, result: "SlowPathResult", scanned: int
    ) -> PacketVerdict:
        """Settle one upcall: stats, dead-entry/flow-limit gates, install.

        Generation and settlement are split so the batched engine can
        share one generated result across coalesced upcalls while keeping
        the per-packet settlement order (and therefore all accounting)
        identical to the scalar path.
        """
        stats = self.stats
        stats.upcalls += 1
        entry = result.entry
        installed: MegaflowEntry | None = None
        dead = self._dead_entries
        if dead and (entry.mask, entry.key) in dead:
            # §8 quirk: deleted megaflows never re-spark; stay on slow path.
            stats.dead_entry_suppressed += 1
        elif self.megaflows.n_entries >= self.config.max_megaflows:
            stats.install_rejected += 1
        else:
            installed = self.megaflows.insert(entry, now=self.now)
            stats.installs += 1
            if self._fast:
                self._remember(key, installed)
        return _new(
            PacketVerdict,
            (entry.action, _SLOW_PATH, scanned, result.rules_examined, installed),
        )

    def _remember(self, key: FlowKey, entry: MegaflowEntry) -> None:
        if self.microflows is not None:
            self.microflows.insert(key, entry)
        if self.mask_cache is not None:
            self.mask_cache.update(key, entry.mask)

    # -- management operations ---------------------------------------------------------
    def _remove(self, entries: list[MegaflowEntry]) -> list[MegaflowEntry]:
        """Remove ``entries`` from the megaflow cache (returning those that
        were installed) and drop every microflow and mask-cache slot that
        points at any of them, installed or not: one pass each."""
        removed = self.megaflows.remove_entries(entries)
        if self.microflows is not None:
            self.microflows.invalidate_many(entries)
        if self.mask_cache is not None:
            self.mask_cache.invalidate_masks(entry.mask for entry in entries)
        return removed

    def kill_entries(self, entries: Iterable[MegaflowEntry], permanent: bool = True) -> int:
        """Remove megaflows (MFCGuard's delete); returns how many were installed.

        With ``permanent`` (the documented OVS quirk) packets matching any
        of them are processed by the slow path forever after;
        :meth:`reinject` undoes it.
        """
        entries = list(entries)
        removed = self._remove(entries)
        if permanent:
            self._dead_entries.update((entry.mask, entry.key) for entry in entries)
        return len(removed)

    def reinject(self, entry: MegaflowEntry) -> None:
        """Manually re-allow an entry previously killed permanently."""
        self._dead_entries.discard((entry.mask, entry.key))

    def flush_caches(self) -> None:
        """Drop all cached state (flow-table change revalidation)."""
        self.megaflows.flush()
        if self.microflows is not None:
            self.microflows.flush()
        if self.mask_cache is not None:
            self.mask_cache.flush()
        self.stats.flushes += 1

    def evict_idle(self, now: float | None = None) -> list[MegaflowEntry]:
        """Evict megaflows idle past the configured timeout."""
        if now is not None:
            self.now = max(self.now, now)
        return self._remove(self.megaflows.idle_entries(self.now, self.config.idle_timeout))

    def snapshot(self) -> ShardSnapshot:
        """Everything dpctl renders and the migration controller reads, at once."""
        cache, microflows, rebuild = self.megaflows, self.microflows, self._rebuild
        if rebuild is not None:
            migration, rebuild_memory = "rebuilding", rebuild.target.memory_bytes()
        else:
            migration = "swapped" if self._migration_swaps else "idle"
            rebuild_memory = self._last_rebuild_memory
        return ShardSnapshot(
            stats=replace(self.stats),
            lookup_hits=cache.stats_hits,
            lookup_misses=cache.stats_misses,
            n_masks=cache.n_masks,
            n_megaflows=cache.n_entries,
            scan_cost=cache.expected_scan_cost(),
            unit_cost=cache.probe_unit_cost(),
            scans=cache.stats_scans,
            probes_total=cache.stats_scan_probes,
            backend=cache.name,
            scan_kernel=cache.scan_kernel_name,
            memory_bytes=cache.memory_bytes(),
            microflows=len(microflows) if microflows is not None else 0,
            microflow_capacity=microflows.capacity if microflows is not None else 0,
            microflow_hit_rate=microflows.hit_rate if microflows is not None else 0.0,
            migration=migration,
            target=rebuild.target_kind if rebuild is not None else None,
            progress=rebuild.progress if rebuild is not None else 1.0,
            rebuild_done=rebuild.done if rebuild is not None else False,
            entries_copied=rebuild.entries_copied if rebuild is not None else 0,
            journal_replayed=rebuild.journal_replayed if rebuild is not None else 0,
            rebuild_memory_bytes=rebuild_memory,
            swaps=self._migration_swaps,
            last_swap_at=self._last_swap_at,
        )

    # -- live backend migration ---------------------------------------------------
    # The rebuild runs *on this object* wherever it lives: under the
    # ``process`` executor these methods are invoked inside the owning
    # worker (via the control pipe's shard-call protocol), so entry objects
    # never cross a process boundary — the snapshot each returns is the
    # only thing shipped back.
    def migrate_backend_start(self, target_kind: str, slice_size: int = 512) -> ShardSnapshot:
        """Begin rebuilding the megaflow cache as ``target_kind``.

        The hot path keeps serving from the current backend; call
        :meth:`migrate_backend_step` to advance and
        :meth:`migrate_backend_swap` once the rebuild reports done.
        """
        if self._rebuild is not None:
            raise SwitchError(
                f"backend migration already in progress "
                f"(target {self._rebuild.target_kind!r})"
            )
        self._rebuild = BackendRebuild(
            self.megaflows,
            target_kind,
            slice_size=slice_size,
            scan_kernel=self.config.scan_kernel,
        )
        return self.snapshot()

    def migrate_backend_step(self, max_entries: int | None = None) -> ShardSnapshot:
        """Advance the in-flight rebuild by a bounded slice."""
        if self._rebuild is None:
            raise SwitchError("no backend migration in progress")
        self._rebuild.step(max_entries)
        return self.snapshot()

    def migrate_backend_swap(self) -> ShardSnapshot:
        """Atomically swap the rebuilt backend in.

        Safe without any cache flush: the target holds the *same entry
        objects* as the old backend, so microflow-cache identity checks
        (:meth:`_microflow_level` validates via ``find_entry``) and the
        kernel mask cache stay valid across the swap.
        """
        if self._rebuild is None:
            raise SwitchError("no backend migration in progress")
        rebuild = self._rebuild
        target = rebuild.finish()
        self._last_rebuild_memory = target.memory_bytes()
        self.megaflows = target
        self._rebuild = None
        self._migration_swaps += 1
        self._last_swap_at = self.now
        return self.snapshot()

    def migrate_backend_abort(self) -> ShardSnapshot:
        """Abandon the in-flight rebuild (the old backend stays in place)."""
        if self._rebuild is not None:
            self._rebuild.detach()
            self._rebuild = None
        return self.snapshot()

    # -- RSS re-map migration ------------------------------------------------------
    # Like the backend rebuild above, these run *on this object* wherever it
    # lives; under the ``process`` executor only the moved entries (a delta of
    # this shard's state, never a snapshot of it) cross the pipe.
    def rebalance_extract(self, new_rss, shard_id: int) -> dict:
        """Pull out every megaflow whose home moves off ``shard_id``.

        A megaflow's home under a dispatcher is defined by its *masked key*
        as the representative flow identity (copies of the same entry that
        RSS scattered across shards all agree on it, so they converge on
        one destination and the aggregate ``(mask, masked key)`` union is
        preserved through a re-map).  Moved entries leave in one bulk
        removal, after they are all collected, with their caches
        invalidated but — unlike :meth:`kill_entries` — never dead-marked:
        they are in flight, not deleted.  Dead-entry records (§8 quirk)
        migrate alongside so a killed megaflow stays killed on its new
        home shard.

        Returns a picklable delta: ``{"entries": [...], "dead": [...]}``.
        """
        moved = self._remove([
            entry
            for entry in self.megaflows.entries()
            if new_rss.queue_of(FlowKey.from_values(entry.key)) != shard_id
        ])
        moved_dead = [
            (mask, key)
            for mask, key in self._dead_entries
            if new_rss.queue_of(FlowKey.from_values(key)) != shard_id
        ]
        self._dead_entries.difference_update(moved_dead)
        return {"entries": moved, "dead": moved_dead}

    def rebalance_install(self, entries, dead) -> int:
        """Adopt re-mapped state extracted from other shards.

        Entries keep their identity and age: the backend's refresh
        semantics dedupe copies of the same megaflow arriving from several
        shards (the first one in wins; later copies refresh its
        ``last_used``), and ``created_at`` is restored after insert so a
        re-map never rejuvenates a flow.  Installation bypasses the
        ``max_megaflows`` admission gate — zero-drop through re-maps is
        the contract, and the aggregate count across shards is unchanged.

        Returns the number of entries newly stored on this shard.  The
        inserts share one index burst, so the backend's accelerator appends
        drain once per call, not once per entry.
        """
        stored_here = 0
        megaflows = self.megaflows
        with megaflows.index_burst():
            for entry in entries:
                created = entry.created_at
                stored = megaflows.insert(entry, now=entry.last_used)
                if stored is entry:
                    entry.created_at = created
                    stored_here += 1
        self._dead_entries.update(tuple(record) for record in dead)
        return stored_here

    def __repr__(self) -> str:
        return (
            f"Datapath({self.megaflows.n_masks} masks, "
            f"{self.megaflows.n_entries} megaflows, "
            f"{len(self.microflows) if self.microflows else 0} microflows)"
        )
