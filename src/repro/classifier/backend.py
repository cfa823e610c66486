"""The swappable megaflow backend: one base class and a two-row name table.

The datapath's level-3 cache — the structure the TSE attack detonates — is
not inherently Tuple Space Search.  §7 of the paper argues the attack is
*algorithmic*: it targets the O(|masks|) scan of TSS specifically, and
classifiers whose lookup cost does not grow with the installed mask count
resist it (TupleChain, arXiv:2408.04390, keeps scan cost sublinear in the
mask count by chaining compatible masks into groups).  This module is the
seam that makes the megaflow cache swappable:

* :class:`MegaflowStore` — the one definition of a backend: per-mask hash
  dicts, the mask list, the lookup memo, and the hit/miss statistics
  funnel, i.e. everything the datapath, the slow path, the revalidator,
  dpctl and MFCGuard drive.  Concrete backends subclass it and supply a
  ``name``, how a key is matched (``_scan``, or a whole batch scanner) and
  two index hooks (how their accelerating structure tracks inserts and
  removals).  The dicts-as-truth invariant lives here: the per-mask dicts
  are the truth every verdict must agree with, and any backend index must
  be rebuildable from them without observable change.
* :func:`make_megaflow_backend` — builds a backend from its name in a
  literal two-row table (``"tss"``, ``"tuplechain"``); the name is what
  ``DatapathConfig(megaflow_backend=...)`` selects.

``masks_inspected`` is reported in **backend-native probe units**: mask
tables scanned for TSS, chain/group hash probes for the grouped backend.
Within one backend the batch path must report the same units as the
sequential path (batch ≡ sequential); across backends only verdicts and
installed entries are comparable, which is what the differential tests
compare.

The **probe-cost surface** makes those native units priceable across the
whole stack: every backend declares :meth:`MegaflowStore.probe_unit_cost`
(how many *calibrated single-table probes* one native probe unit costs —
the normalisation constant of the cost plane) and
:meth:`MegaflowStore.expected_scan_cost` (the expected cost of one full
scan of the current cache, in normalised probe units — the quantity the
calibrated cost curves take as their argument).  For TSS probes ≡ masks
and the unit cost is 1.0, so the normalised scan cost *is* the mask count
and every mask-count-anchored consumer (the Table 1 / Fig 8-9 presets)
reproduces byte-identically; for the grouped backend the scan cost tracks
the observed chain walks, which is what lets the hypervisor's time series
finally see the defense.  The datapath's
:meth:`~repro.switch.datapath.Datapath.snapshot` carries the currency, with
the scan and probe counters, out to dpctl in one record.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from operator import and_, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.classifier.actions import Action
from repro.exceptions import CacheInvariantError, ClassifierError
from repro.packet.fields import FlowKey, FlowMask

__all__ = [
    "ENTRY_BYTES",
    "MASK_BYTES",
    "MegaflowEntry",
    "TssLookupResult",
    "MegaflowStore",
    "LiveBatchScanner",
    "BackendRebuild",
    "megaflow_backend_names",
    "make_megaflow_backend",
]

# Memory-footprint estimates per cache object, sized after the OVS kernel
# datapath structures (struct sw_flow ≈ key + mask ref + stats ≈ 600+ bytes,
# struct sw_flow_mask ≈ 100+ bytes).  Used for the §5.4 IPv6 memory blow-up
# experiment; only relative magnitudes matter.
ENTRY_BYTES = 640
MASK_BYTES = 128


@dataclass
class MegaflowEntry:
    """One megaflow: a masked key plus its action.

    Attributes:
        mask: the entry's FlowMask (its tuple in the tuple space).
        key: the masked key — canonical value tuple under ``mask``.
        action: what to do with matching packets.
        source_rule: name of the flow-table rule whose lookup spawned the
            entry (provenance used by MFCGuard's pattern matcher).
        created_at / last_used: simulation timestamps (seconds).
        hits: number of fast-path hits served.
    """

    mask: FlowMask
    key: tuple[int, ...]
    action: Action
    source_rule: str = ""
    created_at: float = 0.0
    last_used: float = 0.0
    hits: int = 0

    def overlaps(self, other: "MegaflowEntry") -> bool:
        """True when some packet could match both entries."""
        return self.mask.overlaps_key(self.key, other.mask, other.key)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value:#x}/{mask:#x}"
            for (name, mask), value in zip(self.mask.items(), self.key)
            if mask
        )
        return f"MegaflowEntry({fields or '*'} -> {self.action})"


class TssLookupResult(NamedTuple):
    """Outcome of one megaflow lookup (one per scanned packet: a tuple).

    Attributes:
        entry: the hit entry, or ``None`` on a cache miss.
        masks_inspected: lookup work in the backend's native probe units —
            mask tables scanned for TSS, chain hash probes for grouped
            backends — which the cost model turns into CPU cycles.
    """

    entry: MegaflowEntry | None
    masks_inspected: int

    @property
    def hit(self) -> bool:
        return self.entry is not None


class MegaflowStore:
    """A megaflow backend: the truth store every backend subclasses.

    Owns everything that is *semantics*: the per-mask hash dicts (the
    single source of truth for every verdict), the mask list, the lookup
    memo, timestamps/hit counters, and the statistics funnel — the whole
    surface the datapath, the revalidator, dpctl and MFCGuard drive.  A
    subclass supplies its ``name`` (its row in :func:`make_megaflow_backend`'s
    table) and the *index* — whatever accelerating structure it scans — via
    three hooks:

    * :meth:`_scan` — resolve one key against the store (the lookup
      algorithm the default :class:`LiveBatchScanner` runs per key; must
      route hits through :meth:`_register_hits` and misses through
      :meth:`_register_miss`), or a whole :meth:`batch_scanner` of its own
      (TSS plans a chunk of keys at once);
    * :meth:`_index_insert` — fold one freshly installed entry into the
      index incrementally (the hot path while an attack detonates);
    * :meth:`_index_invalidate` — mark the index stale after a removal,
      reorder, or flush (lazily rebuilt by the subclass).

    The index must stay rebuildable from the dicts (dicts-as-truth), and
    :meth:`lookup` is the batch scanner's one-key case, so a backend has
    one scan engine (batch ≡ sequential by construction; the tests hold
    both against the pure-Python Algorithm 1 in ``tests/scan_oracle.py``).

    **Only a miss moves size or cost.**  ``n_masks``, ``n_entries`` and
    ``expected_scan_cost()`` may change under the datapath's packet loop
    only through a lookup that *misses* (a cost estimator may learn from
    the miss scan; the upcall it causes may install) — never through a
    hit, a memo hit or ``probe_mask``.  ``Datapath.process_batch`` reads
    the pre-packet ``(n_masks, expected_scan_cost())`` once per upcall on
    that premise, and re-reads it after every run of hits under
    ``check_invariants``.
    """

    #: The backend's name in :func:`make_megaflow_backend`'s table.
    name: str

    MEMO_LIMIT = 65536  # distinct keys memoised between cache mutations

    #: Which :mod:`repro.classifier.kernel` implementation computes this
    #: backend's batch scan plan — ``"none"`` for backends without one
    #: (the sequential default path); TSS overrides per instance.
    scan_kernel_name = "none"

    def __init__(self, check_invariants: bool = False):
        self.check_invariants = check_invariants
        # Source of truth: per-mask dicts keyed by each entry's own masked
        # key (``entry.key``, which :meth:`insert` holds to its mask), plus
        # the scan-ordered mask list of Algorithm 1.
        self._tables: dict[FlowMask, dict[tuple[int, ...], MegaflowEntry]] = {}
        self._mask_order: list[FlowMask] = []
        # Entry count, maintained by insert/remove_entries/flush: the flow-limit
        # check runs once per upcall, so |C| must not be O(|C|) to read.
        self._n_entries = 0
        # Lookup memo: replayed traffic (the common case during an attack)
        # re-resolves in O(1) between cache mutations.
        self._memo: dict[tuple[int, ...], TssLookupResult] = {}
        # Bumped whenever scan order or the entry set shrinks/reorders;
        # batch scanners use it to notice their plan went stale.
        self._order_seq = 0
        self.stats_hits = 0
        self.stats_misses = 0
        # Probe accounting: every scan (memo hits excluded) funnels its
        # backend-native ``masks_inspected`` through :meth:`_account_scan`,
        # so the probe currency is observable per backend (dpctl, the cost
        # plane's snapshots) and batch ≡ sequential extends to probe stats.
        self.stats_scans = 0
        self.stats_scan_probes = 0
        # Live rebuilds observing this store (see :class:`BackendRebuild`):
        # every install/remove/flush that lands while a rebuild is in flight
        # is journalled so the target backend can replay it.
        self._rebuild_journals: list["BackendRebuild"] = []
        # A lower bound on every entry's ``last_used``, or -inf when
        # unknown (until a scanning idle sweep sets it, and after a flush):
        # while ``now - bound < idle_timeout`` nothing is idle.
        self._used_bound = -math.inf

    # -- size ----------------------------------------------------------------
    @property
    def n_masks(self) -> int:
        """Number of distinct masks (the |M| of Observation 1)."""
        return len(self._mask_order)

    @property
    def n_entries(self) -> int:
        """Number of megaflow entries (the |C| of Observation 1)."""
        return self._n_entries

    def memory_bytes(self) -> int:
        """Estimated memory footprint (entries + mask structures)."""
        return self.n_entries * ENTRY_BYTES + self.n_masks * MASK_BYTES

    def __len__(self) -> int:
        return self.n_entries

    # -- helpers -----------------------------------------------------------------
    def _invalidate(self) -> None:
        self._memo.clear()
        self._order_seq += 1
        self._index_invalidate()

    # -- index hooks (subclass responsibility) -----------------------------------
    def _scan(
        self, key: FlowKey, key_values: tuple[int, ...], now: float
    ) -> TssLookupResult:
        """Resolve one key against the store (backend algorithm)."""
        raise NotImplementedError

    def _index_insert(self, entry: MegaflowEntry, new_mask: bool) -> None:
        """Fold a freshly installed entry into the backend index."""

    def _index_invalidate(self) -> None:
        """Mark the backend index stale (rebuild lazily on next scan)."""

    # -- memo ----------------------------------------------------------------------
    def _memo_consult(
        self, key_values: tuple[int, ...], now: float
    ) -> TssLookupResult | None:
        """Serve a memoised result (with full hit/miss accounting), or None.

        The single memo protocol shared by :meth:`lookup` and any batch
        scanner — the batch ≡ sequential invariant requires both paths to
        consult and account identically.
        """
        memoised = self._memo.get(key_values)
        if memoised is not None:
            entry = memoised.entry
            if entry is not None:
                self._register_hits((entry,), now)
            else:
                self._register_miss()
        return memoised

    def _memo_store(self, key_values: tuple[int, ...], result: TssLookupResult) -> None:
        if len(self._memo) < self.MEMO_LIMIT:
            self._memo[key_values] = result

    def clear_memo(self) -> None:
        """Drop memoised lookups (benchmarks: measure scans, not the memo)."""
        self._memo.clear()

    # -- lookup ---------------------------------------------------------------------
    def lookup(self, key: FlowKey, now: float = 0.0) -> TssLookupResult:
        """Resolve one key: the one-key case of :meth:`batch_scanner`."""
        return self.batch_scanner((key,), now).result(0)

    def batch_scanner(
        self, keys: list[FlowKey], now: float = 0.0, rows=None, spawn=None
    ):
        """A consume-in-order batch scanner (the datapath's level-3 engine).

        The caller drives it in order — ``hits(i, stop)`` settles the run
        of consecutive hits from ``i``, ``result(i)`` one key,
        ``plan_misses(i)`` names keys known to miss — and may mutate the
        cache between calls (slow-path installs).  The default scanner
        runs the backend's :meth:`_scan` live per key, so mid-batch
        mutations are always visible and no coherence protocol is needed.
        ``rows`` (the keys' precomputed uint64 column matrix) and ``spawn``
        (``i`` -> the megaflow the slow path generates for ``keys[i]``, the
        handle for an O(1) mid-burst coherence probe) serve backends that
        plan ahead (TSS); they are ignored here.
        """
        return LiveBatchScanner(self, list(keys), now)

    # -- probe-cost surface -------------------------------------------------------
    def _account_scan(self, result: TssLookupResult) -> None:
        """Record one performed scan's probe spend (the single funnel).

        Every scan (not memo hits — those probe nothing) is accounted here
        or, for a run of scans that hit, in one step by
        :meth:`_account_hit_scans`, so the probe currency stays batch ≡
        sequential.  Every miss comes here, so this is what a subclass
        extends to feed a cost estimator (only a miss may move cost).
        """
        self.stats_scans += 1
        self.stats_scan_probes += result.masks_inspected

    def _account_hit_scans(self, scans: int, probes: int) -> None:
        """Record ``scans`` scans that hit, spending ``probes`` in all."""
        self.stats_scans += scans
        self.stats_scan_probes += probes

    def probe_unit_cost(self) -> float:
        """Calibrated single-table-probe units per native probe unit.

        The normalisation constant of the probe-native cost plane: a
        backend whose probes are plain hash-table probes declares 1.0; a
        backend whose probe step does more (or less) work than one table
        probe declares the ratio, and every consumer (cost model,
        hypervisor, MFCGuard) prices its ``masks_inspected`` through it.
        """
        return 1.0

    def structural_scan_cost(self) -> float:
        """Full-scan cost implied by the cache *structure alone* (native units).

        Traffic-independent: what one worst-case (miss) scan costs given
        the installed masks, with no observed-workload input.  The generic
        store scans every mask table, so this is ``max(n_masks, 1)`` —
        which makes probes ≡ masks the default and TSS the identity case.
        Backends whose cost is structural-but-sublinear (the group trie)
        override it; the dilution detector compares these across
        hypothetical cache contents.
        """
        return float(max(self.n_masks, 1))

    def expected_scan_cost(self) -> float:
        """Expected cost of one full scan now, in *normalised* probe units.

        This is the probe-native generalisation of "the mask count": the
        argument the calibrated cost curves take.  The default (and TSS)
        answer is the structural cost times the unit cost — for TSS
        exactly ``max(n_masks, 1)``, keeping every mask-count-anchored
        preset byte-identical.  Backends with observed-cost estimators
        (the grouped backend's chain walks) override it.
        """
        return self.probe_unit_cost() * self.structural_scan_cost()

    # -- accounting ------------------------------------------------------------
    def _register_hits(self, entries, now: float) -> None:
        """Single funnel for every served hit — scan, memo, batch, and
        single-mask probes all feed the same statistics; a batch scanner
        passes a run of them at once."""
        for entry in entries:
            entry.hits += 1
            entry.last_used = now
        self.stats_hits += len(entries)

    def _register_miss(self) -> None:
        """Single funnel for every miss — scan, memo and batch alike."""
        self.stats_misses += 1

    # -- mutation ---------------------------------------------------------------
    def insert(self, entry: MegaflowEntry, now: float = 0.0) -> MegaflowEntry:
        """Install ``entry``; refresh timestamps if an identical entry exists.

        Returns the entry actually stored (the existing one on refresh).
        Raises :class:`CacheInvariantError`, before any mutation, when the
        entry's key has bits its mask does not keep (its dict is keyed by
        ``entry.key`` as it is, so such an entry could never be found), and,
        when invariant checking is on, when the entry overlaps a different
        existing entry.
        """
        mask, key = entry.mask, entry.key
        if tuple(map(and_, key, mask.values)) != key:
            raise CacheInvariantError(f"{entry!r} has key bits outside its mask: {key}")
        table = self._tables.get(mask)
        new_mask = table is None
        if now < self._used_bound:
            self._used_bound = now
        if not new_mask:
            existing = table.get(key)
            if existing is not None:
                existing.last_used = now
                return existing
        # Invariant checking must precede any mutation: raising after the
        # mask is registered would leave a ghost (empty, unindexed) mask
        # that inflates n_masks and derails later incremental inserts.
        if self.check_invariants:
            self._assert_disjoint(entry)
        if new_mask:
            table = {}
            self._tables[mask] = table
            self._mask_order.append(mask)
        entry.created_at = now
        entry.last_used = now
        table[key] = entry
        self._n_entries += 1
        # Keep the backend index in sync incrementally (the hot path while
        # an attack detonates); memoised results must still be dropped
        # because previous misses may now hit.
        self._index_insert(entry, new_mask)
        self._memo.clear()
        for rebuild in self._rebuild_journals:
            rebuild.note_insert(entry)
        return entry

    def insert_batch(self, entries: Iterable[MegaflowEntry]) -> list[MegaflowEntry]:
        """Install ``entries`` in order under one :meth:`index_burst`.

        Semantically ``[self.insert(e) for e in entries]`` — every
        entry mutates the authoritative dicts, is invariant-checked and
        journalled individually, in order — but backends with an
        incremental index (TSS) amortise their index appends into
        vectorised drains instead of one append per entry.
        """
        with self.index_burst():
            return [self.insert(entry) for entry in entries]

    def index_burst(self):
        """Context manager batching index appends (no-op by default).

        The datapath opens one burst per ``process_batch``; backends whose
        per-insert index work is worth amortising (TSS) override this to
        defer appends — TSS carries them across bursts until the backlog
        reaches its merge cadence, a burst reads it, or a reader that
        cannot probe the truth dicts for it needs the index.  Truth-side mutations are never
        deferred — only the pure accelerating index — so behaviour inside
        and after the burst is observably unchanged.
        """
        return nullcontext()

    def _assert_disjoint(self, entry: MegaflowEntry) -> None:
        for other in self.entries():
            if entry.overlaps(other):
                raise CacheInvariantError(
                    f"Inv(2) violation: {entry!r} overlaps existing {other!r}"
                )

    def remove_entries(self, entries: Iterable[MegaflowEntry]) -> list[MegaflowEntry]:
        """Remove ``entries`` in the order given; return those that were installed.

        The one removal path: each removal is journalled in order, the
        masks it empties leave the scan order in one pass (survivors keep
        their relative order) and the index is invalidated once — only if
        something was removed.
        """
        tables, removed = self._tables, []
        for entry in entries:
            mask = entry.mask
            table = tables.get(mask)
            if table is None or table.get(entry.key) is not entry:
                continue
            del table[entry.key]
            removed.append(entry)
            if not table:
                del tables[mask]
        if removed:
            self._n_entries -= len(removed)
            if len(self._mask_order) != len(tables):
                self._mask_order = [mask for mask in self._mask_order if mask in tables]
            self._invalidate()
            for rebuild in self._rebuild_journals:
                for entry in removed:
                    rebuild.note_remove(entry)
        return removed

    def idle_entries(self, now: float, idle_timeout: float) -> list[MegaflowEntry]:
        """Entries unused for at least ``idle_timeout`` seconds, in scan
        order, mask by mask.

        Preconditions: the caller removes the victims, and outside
        :meth:`insert` (which lowers the store's bound on ``last_used``) an
        entry's ``last_used`` only moves forward.  Then a sweep reads no
        entry while ``now - bound < idle_timeout``, since nothing can be
        idle; otherwise it scans once and resets the bound to the
        survivors' oldest ``last_used``.
        """
        if now - self._used_bound < idle_timeout:
            return []
        victims = []
        bound = math.inf
        for table in self._tables.values():
            for entry in table.values():
                used = entry.last_used
                if now - used >= idle_timeout:
                    victims.append(entry)
                elif used < bound:
                    bound = used
        self._used_bound = bound
        if victims:
            position = {mask: i for i, mask in enumerate(self._mask_order)}
            victims.sort(key=lambda entry: position[entry.mask])
        return victims

    def evict_idle(self, now: float, idle_timeout: float) -> list[MegaflowEntry]:
        """Remove and return :meth:`idle_entries` (in that order).

        This is the 10-second megaflow idle eviction responsible for the
        delayed victim recovery in Fig. 8a/8b.
        """
        return self.remove_entries(self.idle_entries(now, idle_timeout))

    def shuffle_masks(self, seed: int = 0) -> None:
        """Randomise the mask scan order (steady-state churn model).

        In a long-running switch the mask list's order decorrelates from
        insertion order: entries idle out and re-spark, revalidation
        rewrites the tables, flows come and go.  The paper's cost model
        assumes exactly this — a victim's mask sits mid-scan on average
        (hence flow completion time growing "half as high" as the mask
        count).  Experiments call this between phases to put the cache in
        that steady state; semantics are unaffected (every backend finds
        the same unique match wherever its mask sits; backends without a
        scan order are untouched beyond iteration order).
        """
        import numpy as np

        rng = np.random.default_rng(seed)
        order = list(self._mask_order)
        rng.shuffle(order)
        self._mask_order = order
        self._invalidate()

    def flush(self) -> None:
        """Drop every entry and mask (slow-path revalidation flush)."""
        self._tables.clear()
        self._mask_order.clear()
        self._n_entries = 0
        self._used_bound = -math.inf
        self._invalidate()
        for rebuild in self._rebuild_journals:
            rebuild.note_flush()

    # -- iteration / introspection ----------------------------------------------
    def entries(self) -> Iterator[MegaflowEntry]:
        """Iterate all entries (mask scan order, then key-insertion order)."""
        for mask in list(self._mask_order):
            yield from list(self._tables.get(mask, {}).values())

    def masks(self) -> list[FlowMask]:
        """The mask list in current scan order."""
        return list(self._mask_order)

    def find_entry(self, entry: MegaflowEntry) -> bool:
        """True when exactly this entry object is still installed (O(1))."""
        table = self._tables.get(entry.mask)
        if table is None:
            return False
        return table.get(entry.key) is entry

    def get_entry(self, mask: FlowMask, key: tuple[int, ...]) -> MegaflowEntry | None:
        """The installed entry under ``(mask, masked key)``, or None (O(1)).

        Value-addressed and statistics-free: the resolver the parallel
        execution engine uses to map an entry *copy* that crossed a process
        boundary back onto this store's own object before management
        operations (kill, reinject, find_entry) run on it.
        """
        table = self._tables.get(mask)
        if table is None:
            return None
        return table.get(key)

    def probe_mask(self, mask: FlowMask, key: FlowKey, now: float = 0.0) -> MegaflowEntry | None:
        """Probe a single mask's hash table (kernel mask-cache fast path).

        Routed through the shared hit accounting, so entry hit counters
        and idle timestamps stay current even when the kernel mask memo
        short-circuits the scan.
        """
        table = self._tables.get(mask)
        if table is None:
            return None
        entry = table.get(key.masked(mask))
        if entry is not None:
            self._register_hits((entry,), now)
        return entry

    def find(self, key: FlowKey) -> MegaflowEntry | None:
        """Like lookup but without touching statistics (diagnostics)."""
        for mask in self._mask_order:
            entry = self._tables[mask].get(key.masked(mask))
            if entry is not None:
                return entry
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_masks} masks, {self.n_entries} entries)"


class LiveBatchScanner:
    """The default consume-in-order batch scanner: one live scan per key.

    Because every :meth:`result` call reads the live dicts, mid-batch
    inserts are immediately visible — coherence is free where there is no
    precomputed plan.  Backends that *do* plan ahead (TSS) ship their own
    scanner.
    """

    def __init__(self, backend: MegaflowStore, keys: list[FlowKey], now: float):
        self.backend = backend
        self.keys = keys
        self.now = now

    def result(self, i: int) -> TssLookupResult:
        """The lookup result for key ``i``: memo, then the backend's scan."""
        backend, key = self.backend, self.keys[i]
        key_values = key.values
        memoised = backend._memo_consult(key_values, self.now)
        if memoised is not None:
            return memoised
        result = backend._scan(key, key_values, self.now)
        backend._account_scan(result)
        backend._memo_store(key_values, result)
        return result

    def hits(self, i: int, stop: int) -> list[TssLookupResult]:
        """``result(j)`` for ``j`` from ``i`` while they hit, up to ``stop``;
        the last result may be the miss that ended the run."""
        run = []
        for j in range(i, stop):
            run.append(self.result(j))
            if run[-1].entry is None:
                break
        return run

    def plan_misses(self, start: int) -> list[int]:
        """Keys known to miss from position ``start`` on: just ``start``.

        Without a precomputed plan nothing is known about later keys, so
        the upcall coalescer gets the (correct, unamortised) singleton —
        the caller only invokes this after ``result(start)`` missed.
        """
        return [start]


# -- the name table --------------------------------------------------------------


def _backends() -> dict[str, Callable[[bool, str], MegaflowStore]]:
    """name -> ``(check_invariants, scan_kernel) -> backend``, one row each."""
    # Imported here: both backends subclass MegaflowStore, so importing them
    # at module level would be circular.
    from repro.classifier.tss import TupleSpaceSearch
    from repro.classifier.tuplechain import TupleChainSearch

    return {
        TupleSpaceSearch.name: lambda check, kernel: TupleSpaceSearch(check, kernel),
        TupleChainSearch.name: lambda check, kernel: TupleChainSearch(check),
    }


def megaflow_backend_names() -> tuple[str, ...]:
    """Every backend name in the table, sorted."""
    return tuple(sorted(_backends()))


def make_megaflow_backend(
    name: str, check_invariants: bool = False, scan_kernel: str = "auto"
) -> MegaflowStore:
    """Build a megaflow backend by name.

    Args:
        name: ``"tss"`` or ``"tuplechain"``.
        check_invariants: verify Inv(2) on every insert (tests).
        scan_kernel: the :mod:`repro.classifier.kernel` implementation for
            backends that plan their batch scans (TSS); the others have no
            kernel and ignore it, so one config serves every backend.
    """
    factory = _backends().get(name)
    if factory is None:
        known = ", ".join(megaflow_backend_names())
        raise ClassifierError(f"unknown megaflow backend {name!r}; known: {known}")
    return factory(check_invariants, scan_kernel)


# -- live backend-to-backend rebuild ----------------------------------------------


class BackendRebuild:
    """Incrementally rebuild a store's contents into a fresh backend.

    The dicts-as-truth invariant *is* the rebuild contract: the source's
    per-mask dicts hold every installed entry, so a fresh backend of any
    kind in the table can be reconstructed from them without consulting the
    old backend's index.  The rebuild is incremental — :meth:`step` copies a
    bounded slice per call, so the hot path keeps serving lookups from the
    old backend between slices — and journalled: the source notifies every
    in-flight rebuild of inserts, removals and flushes that land mid-build,
    and the journal is replayed in arrival order after each slice.

    The target adopts the source's *entry objects*, not copies.  That keeps
    every identity-based consumer valid across the swap: the datapath's
    microflow cache validates via ``find_entry`` (object identity), the
    kernel mask cache holds entry references, and per-entry statistics
    (hits, last_used) keep accumulating on the one live object.  The only
    field :meth:`MegaflowStore.insert` would clobber — ``created_at`` — is
    saved and restored around the adoption.

    Lifecycle::

        rebuild = BackendRebuild(store, "tuplechain")
        while not rebuild.done:
            rebuild.step(max_entries=512)   # bounded work per call
        target = rebuild.finish()           # verify + detach + stats carry
    """

    def __init__(
        self,
        source: MegaflowStore,
        target_kind: str,
        slice_size: int = 512,
        **target_kwargs,
    ):
        if not isinstance(source, MegaflowStore):
            raise ClassifierError(
                f"rebuild source must be a MegaflowStore, got {type(source).__name__}"
            )
        if slice_size <= 0:
            raise ClassifierError(f"slice_size must be positive, got {slice_size}")
        self.source = source
        self.target_kind = target_kind
        self.slice_size = slice_size
        self.target = make_megaflow_backend(
            target_kind, check_invariants=source.check_invariants, **target_kwargs
        )
        # Snapshot of the entry *objects* at rebuild start.  Entries removed
        # after the snapshot are skipped at copy time (``find_entry`` says
        # they left the truth store) and the journal covers everything else.
        self._snapshot: list[MegaflowEntry] = list(source.entries())
        self._cursor = 0
        self._journal: list[tuple[str, MegaflowEntry | None]] = []
        self.entries_copied = 0
        self.journal_replayed = 0
        self._detached = False
        source._rebuild_journals.append(self)

    # -- journal feed (called by the source store) ---------------------------
    def note_insert(self, entry: MegaflowEntry) -> None:
        self._journal.append(("insert", entry))

    def note_remove(self, entry: MegaflowEntry) -> None:
        self._journal.append(("remove", entry))

    def note_flush(self) -> None:
        self._journal.append(("flush", None))

    # -- progress ------------------------------------------------------------
    @property
    def progress(self) -> float:
        """Fraction of the snapshot copied (1.0 for an empty snapshot)."""
        if not self._snapshot:
            return 1.0
        return self._cursor / len(self._snapshot)

    @property
    def done(self) -> bool:
        """True when the snapshot is exhausted and the journal is drained."""
        return self._cursor >= len(self._snapshot) and not self._journal

    # -- the build -----------------------------------------------------------
    def _adopt(self, entry: MegaflowEntry) -> None:
        """Install the source's entry *object* into the target.

        ``insert`` stamps ``created_at = now``; passing ``now=last_used``
        keeps ``last_used`` exact and the saved ``created_at`` is restored
        after.  If the target already holds the object (journal replay after
        the snapshot copy reached it), insert's refresh path returns the
        existing object with ``last_used`` untouched — a harmless no-op.
        """
        created = entry.created_at
        stored = self.target.insert(entry, now=entry.last_used)
        if stored is entry:
            entry.created_at = created

    def _drain_journal(self) -> None:
        # Replaying an insert can itself be observed by *other* rebuilds,
        # never by this one (notifications come from the source store only).
        # A run of consecutive removals is one bulk removal.
        while self._journal:
            ops, self._journal = self._journal, []
            self.journal_replayed += len(ops)
            for op, run in groupby(ops, key=itemgetter(0)):
                if op == "insert":
                    for _, entry in run:
                        self._adopt(entry)
                elif op == "remove":
                    self.target.remove_entries(entry for _, entry in run)
                else:  # flush (a run of them is one)
                    self.target.flush()

    def step(self, max_entries: int | None = None) -> int:
        """Copy up to ``max_entries`` snapshot entries, then drain the journal.

        Returns the number of snapshot entries *visited* (copied or
        skipped), 0 once the snapshot is exhausted.  Bounded work per call
        is the point: the caller interleaves steps with live traffic.
        """
        budget = self.slice_size if max_entries is None else max_entries
        visited = 0
        # One index burst per slice: the target's accelerator appends
        # amortise across the copied entries (insert_batch's discipline).
        with self.target.index_burst():
            while visited < budget and self._cursor < len(self._snapshot):
                entry = self._snapshot[self._cursor]
                self._cursor += 1
                visited += 1
                # Entries that left the truth store since the snapshot
                # (removed, evicted, flushed) are skipped; the journal
                # already reflects whatever replaced them.
                if self.source.find_entry(entry):
                    self._adopt(entry)
                    self.entries_copied += 1
            self._drain_journal()
        return visited

    def detach(self) -> None:
        """Stop observing the source (idempotent)."""
        if not self._detached:
            self._detached = True
            try:
                self.source._rebuild_journals.remove(self)
            except ValueError:
                pass

    def finish(self) -> MegaflowStore:
        """Complete the rebuild, verify it, and return the target backend.

        Verifies entry and mask counts against the source — the rebuild is
        structurally lossless (entries dropped ≡ 0) or it refuses to hand
        the target over.  Carries ``stats_hits`` / ``stats_misses`` so the
        operator-visible hit statistics survive the swap; scan/probe
        counters stay at zero because their units are backend-native.
        """
        while not self.done:
            self.step()
        self.detach()
        if (
            self.target.n_entries != self.source.n_entries
            or self.target.n_masks != self.source.n_masks
        ):
            raise ClassifierError(
                f"rebuild to {self.target_kind!r} diverged from the truth store: "
                f"target {self.target.n_entries} entries/{self.target.n_masks} masks, "
                f"source {self.source.n_entries} entries/{self.source.n_masks} masks"
            )
        self.target.stats_hits = self.source.stats_hits
        self.target.stats_misses = self.source.stats_misses
        return self.target

    def __repr__(self) -> str:
        state = "done" if self.done else f"{self.progress:.0%}"
        return (
            f"BackendRebuild({type(self.source).__name__} -> "
            f"{self.target_kind}, {state})"
        )
