"""Tuple Space Search megaflow backend (the paper's Algorithm 1).

The cache is an unordered set of key/mask pairs ``C = {(K, M)}`` organised
as the TSS scheme of Srinivasan–Suri–Varghese: a list of distinct masks (the
"tuple space") plus one hash table per mask storing the keys under that
mask.  Lookup applies each mask to the packet header in turn and probes the
mask's hash; thanks to the Independence invariant (Inv(2), §3.2) it may
early-exit on the first hit.

The number of masks inspected by each lookup is reported back to the caller
— that figure *is* the attack surface: time complexity grows as O(|masks|)
(Observation 1), which the TSE attack drives into the thousands.

Implementation note: the semantic model is exactly the per-mask hash-table
scan above, and the per-mask dictionaries remain the source of truth (they
live in :class:`~repro.classifier.backend.MegaflowStore`, the shared base
every megaflow backend builds on).  On top of them sits a vectorised
accelerator (numpy): every entry is indexed by a salted 64-bit hash of its
masked key, so one lookup ANDs the key against the whole mask matrix,
hashes row-wise, and binary-searches the sorted entry-hash array — turning
the O(|M|) Python probe loop into a few array operations while reporting
the same ``masks_inspected`` the sequential scan would (candidates are
confirmed against the authoritative dicts, so hash collisions cannot change
semantics).  A small memo additionally short-circuits repeated lookups of
identical keys between cache mutations, since attack traces are replayed in
loops.

Batch pipeline.  :meth:`TupleSpaceSearch.batch_scanner` plans N keys per
call the way real software switches do (OVS/DPDK process ~32-packet
batches).  The keys' column matrix is the join of the packed rows the keys
carry (``classifier.kernel.keys_to_matrix``: a replayed key is packed
once, not once per burst); a scan kernel computes the salted compound of
every (key, mask) pair over the *non-wildcarded* mask columns only (most
of the 15-column hash collapses away) and tests each against the
membership filter, a cache-resident bit array indexed by the *top* bits of
the compound (its layout belongs to ``classifier.kernel``; this module
only decides how large it is — see "Candidate filter sizing").  The
kernels refine filter hits against the exact compound set, and what
survives is confirmed against the authoritative dicts exactly like
sequential candidates — a dict probe with the packet's own masked key per
hit — so a false positive costs a binary search or a dict probe, never a
wrong verdict.  Batch results are verdict-for-verdict identical to
sequential ``lookup`` — same entries, same ``masks_inspected``, same
statistics (property-tested in ``tests/test_batch.py``).

Accelerator invariants:

* the per-mask dicts are the single source of truth; the accelerator is a
  pure accelerator — rebuilding it from the dicts at any point must never
  change observable behaviour;
* inserts are O(1) amortised: new entry hashes go to an unsorted pending
  buffer (plus a filter bit) and are merged into the sorted compound
  array only when the pending buffer outgrows an eighth of it, replacing
  the old O(n)-copy-per-insert ``np.insert`` scheme that turned a
  detonating attack into quadratic work;
* per-mask hash salts are append-only: growth of the salt buffer
  explicitly preserves already-issued salts, because a salt change would
  orphan every compound computed under it (entries installed but
  unfindable by the accelerator);
* the scan kernel's mask-side operands (active columns, compacted mask
  matrix, weights, salts — ``ScanKernel.prepare``) depend only on the mask
  list and are cached across plans; the snapshot is dropped wherever the
  mask buffer is written, replaced or its order invalidated, and rebuilt
  by the next plan.  It is never updated in place: a live plan may still
  hold pointers into it;
* under :meth:`MegaflowStore.index_burst` (the datapath wraps every
  ``process_batch`` in one) accelerator appends are *deferred*: inserts
  mutate the authoritative dicts immediately but queue their accelerator
  work, which drains as one vectorised append (one column-matrix build,
  one hash pass, at most one pending merge) before the next accelerator
  read or at burst exit — one accelerator append/resort per burst instead
  of per upcall.  Deferral is invisible to lookups because every
  accelerator read path drains first, and the batch scanner's mid-burst
  coherence check never reads the accelerator: it probes the truth dicts
  for the key's own megaflow, and a deferred mask's scan position is
  recorded in ``_mask_index`` the moment its append is deferred.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.classifier.backend import (
    ENTRY_BYTES,
    MASK_BYTES,
    MegaflowEntry,
    MegaflowStore,
    TssLookupResult,
)

# The column layout, the packed row a key carries and the hash weights live
# in ``classifier.kernel`` (they double as the shared-memory transport's wire
# format); the underscore names are kept as aliases for existing call sites.
from repro.classifier.kernel import (
    N_COLUMNS as _N_COLUMNS,
    U64 as _U64,
    WEIGHTS as _WEIGHTS,
    ScanOperands,
    filter_alloc,
    filter_set,
    filter_test,
    keys_to_matrix as _keys_to_matrix,
    make_scan_kernel,
    row_hash as _row_hash,
    to_column_matrix as _to_column_matrix,
    to_columns as _to_columns,
)
from repro.exceptions import CacheInvariantError
from repro.packet.fields import FlowKey, FlowMask

__all__ = [
    "MegaflowEntry",
    "TssLookupResult",
    "TupleSpaceSearch",
    "ENTRY_BYTES",
    "MASK_BYTES",
]

# Candidate filter sizing (the bit layout itself is ``classifier.kernel``'s):
# 2**log2 one-bit slots, grown 4x whenever the entry count reaches 1/256 of
# the slot count, so a cache holds 256-1,024 slots per entry and a probe
# finds a false candidate ~0.1-0.4 % of the time (each costs the kernel one
# exact binary search, none reaches Python).  8 KiB when empty, 512 KiB at
# the 8,721 entries of a detonated SipSpDp cache, 2 MiB at most.  The load
# was picked by sweeping the slot count at that cache size (C scan of the
# warm replay's 4,000 keys, best of 3 runs x 7 passes, us/key): 2**16 61.8,
# 2**18 26.4, 2**20 14.6, 2**21 13.4, 2**22 12.7 (kept), 2**23 14.0, 2**24
# 17.9.  Fewer slots pay in false candidates, more stop fitting the cache
# level the random probes land in.  One *byte* per slot loses at any size:
# 2**19 26.2, 2**20 23.9, 2**24 (the layout this replaced) 37.0.
_FILTER_MIN_LOG2 = 16
_FILTER_MAX_LOG2 = 24
_FILTER_LOAD_LOG2 = 8


class TupleSpaceSearch(MegaflowStore):
    """The TSS megaflow backend: mask list + per-mask hash tables.

    Args:
        check_invariants: when True, every insert verifies Inv(2)
            (disjointness) against the whole cache — O(|C|) per insert, used
            by the test suite to prove the slow path correct.
        scan_kernel: which :mod:`repro.classifier.kernel` implementation
            computes the batch scan plan — ``"auto"`` (compiled cffi kernel
            when the toolchain allows, numpy otherwise), ``"numpy"`` or
            ``"cffi"``.  Kernels are pure accelerators: every candidate is
            confirmed against the dicts, so the choice can never change a
            verdict (``tests/test_kernel.py``).
    """

    # Probe-cost surface: TSS is the identity case of the probe-native
    # cost plane — one native probe unit is one mask-table probe
    # (``probe_unit_cost() == 1.0``) and a full scan probes every mask
    # (``expected_scan_cost() == max(n_masks, 1)``), both inherited from
    # :class:`MegaflowStore`.  Every mask-count-anchored consumer
    # therefore prices TSS exactly as before the probe refactor.

    name = "tss"

    def __init__(self, check_invariants: bool = False, scan_kernel: str = "auto"):
        super().__init__(check_invariants=check_invariants)
        self._scan_kernel = make_scan_kernel(scan_kernel)
        self.scan_kernel_name = self._scan_kernel.name
        # Vectorised accelerator state.  Inserts update it incrementally
        # (the hot path while an attack detonates); removals and reorders
        # mark it dirty for a lazy rebuild.
        self._acc_dirty = True
        self._acc_capacity = 0
        self._acc_mask_buffer: np.ndarray = np.empty((0, _N_COLUMNS), dtype=np.uint64)
        self._acc_salt_buffer: np.ndarray = np.empty(0, dtype=np.uint64)
        self._acc_salt_rng = np.random.default_rng(0xACCE1)
        self._acc_compounds: np.ndarray = np.empty(0, dtype=np.uint64)
        # Amortised insert path: fresh compounds accumulate unsorted here
        # (plus a set for membership and a filter bit) and merge into the
        # sorted array periodically.
        self._acc_pending: list[int] = []
        self._acc_pending_set: set[int] = set()
        self._acc_filter = filter_alloc(_FILTER_MIN_LOG2)
        self._acc_filter_shift = 64 - _FILTER_MIN_LOG2
        self._acc_entries: dict[int, list[tuple[int, MegaflowEntry]]] = {}
        self._mask_index: dict[FlowMask, int] = {}
        # ``ScanKernel.prepare`` over the mask/salt buffer prefix, shared by
        # every plan until the buffer changes (see "Accelerator invariants").
        self._acc_operands: ScanOperands | None = None
        # Burst-deferred accelerator appends (see module docstring): while
        # a burst is open, (entry, new_mask) pairs queue here and drain
        # vectorised before the next accelerator read.
        self._burst_depth = 0
        self._burst_buf: list[tuple[MegaflowEntry, bool]] = []

    # -- store hooks -------------------------------------------------------------
    def _index_invalidate(self) -> None:
        self._acc_dirty = True
        self._acc_operands = None
        # The lazy rebuild re-indexes everything from the dicts, deferred
        # appends included.
        self._burst_buf.clear()

    def _index_insert(self, entry: MegaflowEntry, new_mask: bool) -> None:
        if self._acc_dirty:
            return
        if self._burst_depth:
            if new_mask:
                # The position is known now (the truth-side ``_mask_order``
                # append already happened); only the column/salt work waits.
                self._mask_index[entry.mask] = len(self._mask_order) - 1
            self._burst_buf.append((entry, new_mask))
            return
        if new_mask:
            self._acc_append_mask(entry.mask)
        self._acc_append_entry(entry.mask, entry)

    @contextmanager
    def index_burst(self):
        """Defer accelerator appends for the duration of one batch."""
        self._burst_depth += 1
        try:
            yield self
        finally:
            self._burst_depth -= 1
            if self._burst_depth == 0:
                self._burst_drain()

    # -- accelerator maintenance ----------------------------------------------
    def _acc_grow(self, needed: int) -> None:
        if needed <= self._acc_capacity:
            return
        self._acc_operands = None
        old = self._acc_capacity
        capacity = max(64, old * 2, needed)
        masks = np.zeros((capacity, _N_COLUMNS), dtype=np.uint64)
        masks[:old] = self._acc_mask_buffer[:old]
        self._acc_mask_buffer = masks
        # Salts are append-only: already-issued salts are copied over and
        # only the new tail is drawn, so compounds computed under earlier
        # salts stay valid.  (Regenerating the whole buffer — even from a
        # fixed seed — silently bets on numpy keeping prefix-stable
        # generation; a salt change strands every installed entry.)
        salts = np.empty(capacity, dtype=np.uint64)
        salts[:old] = self._acc_salt_buffer[:old]
        salts[old:] = self._acc_salt_rng.integers(
            0, 1 << 63, size=capacity - old, dtype=np.uint64
        )
        self._acc_salt_buffer = salts
        self._acc_capacity = capacity

    def _acc_append_mask(self, mask: FlowMask) -> None:
        index = len(self._mask_order) - 1  # mask already appended to order
        self._acc_grow(index + 1)
        self._acc_mask_buffer[index] = _to_columns(mask.values)
        self._mask_index[mask] = index
        self._acc_operands = None

    def _burst_drain(self) -> None:
        """Fold deferred inserts into the accelerator in one pass.

        Equivalent to having run :meth:`_acc_append_mask` /
        :meth:`_acc_append_entry` per entry at insert time — same mask
        positions (recorded in ``_mask_index`` at defer time), same
        compounds — but the per-entry column derive and hash collapse into
        one matrix build, and the pending-merge threshold is checked once
        per burst.
        """
        buf = self._burst_buf
        if not buf:
            return
        self._burst_buf = []
        if self._acc_dirty:
            return  # the lazy rebuild covers these entries
        new_masks = [entry.mask for entry, new_mask in buf if new_mask]
        # Bursts defer every append, so the masks with columns are exactly
        # the order prefix and the k-th deferred one sits right behind it.
        first = len(self._mask_index) - len(new_masks)
        if new_masks:
            self._acc_operands = None
        self._acc_grow(len(self._mask_index))
        for k, mask in enumerate(new_masks):
            index = self._mask_index[mask]
            if self.check_invariants and index != first + k:
                raise CacheInvariantError(
                    f"deferred mask recorded at scan position {index}, "
                    f"drain assigns {first + k}"
                )
            self._acc_mask_buffer[index] = _to_columns(mask.values)
        rows = _to_column_matrix([entry.key for entry, _ in buf])
        indices = np.fromiter(
            (self._mask_index[entry.mask] for entry, _ in buf),
            dtype=np.intp,
            count=len(buf),
        )
        hashes = (rows * _WEIGHTS).sum(axis=1, dtype=np.uint64)
        compounds = hashes ^ self._acc_salt_buffer[indices]
        filter_set(self._acc_filter, self._acc_filter_shift, compounds)
        for (entry, _), index, compound in zip(
            buf, indices.tolist(), compounds.tolist()
        ):
            self._acc_pending.append(compound)
            self._acc_pending_set.add(compound)
            self._acc_entries.setdefault(compound, []).append((index, entry))
        if len(self._acc_pending) >= max(64, len(self._acc_compounds) >> 3):
            self._acc_merge_pending()

    def _acc_append_entry(self, mask: FlowMask, entry: MegaflowEntry) -> None:
        index = self._mask_index[mask]
        compound = (_row_hash(_to_columns(entry.key)) ^ int(self._acc_salt_buffer[index])) & _U64
        self._acc_pending.append(compound)
        self._acc_pending_set.add(compound)
        filter_set(
            self._acc_filter,
            self._acc_filter_shift,
            np.array([compound], dtype=np.uint64),
        )
        self._acc_entries.setdefault(compound, []).append((index, entry))
        if len(self._acc_pending) >= max(64, len(self._acc_compounds) >> 3):
            self._acc_merge_pending()

    def _acc_indexed(self) -> np.ndarray:
        """Every indexed compound: the sorted array, then the pending backlog."""
        return np.concatenate(
            [self._acc_compounds, np.asarray(self._acc_pending, dtype=np.uint64)]
        )

    def _acc_merge_pending(self) -> None:
        """Fold the pending buffer into the sorted compound array.

        Runs every O(n/8) inserts, so each compound is touched O(log n)
        times over the cache's lifetime — amortised O(1)-ish per insert
        versus the O(n) copy a per-insert ``np.insert`` would pay.
        """
        if self._acc_pending:
            merged = self._acc_indexed()
            merged.sort()
            self._acc_compounds = merged
            self._acc_pending.clear()
            self._acc_pending_set.clear()
        self._acc_filter_maybe_grow()

    def _acc_filter_maybe_grow(self) -> None:
        total = len(self._acc_compounds) + len(self._acc_pending)
        log2 = 64 - self._acc_filter_shift
        if total << _FILTER_LOAD_LOG2 >= (1 << log2) and log2 < _FILTER_MAX_LOG2:
            self._acc_filter_rebuild(min(_FILTER_MAX_LOG2, log2 + 2))

    def _acc_filter_rebuild(self, log2: int) -> None:
        self._acc_filter = filter_alloc(log2)
        self._acc_filter_shift = 64 - log2
        filter_set(self._acc_filter, self._acc_filter_shift, self._acc_indexed())

    def _acc_candidates(self, compounds: np.ndarray) -> np.ndarray:
        """Exact membership of ``compounds`` in the entry-hash set.

        Binary search over the sorted main array; pending (unmerged)
        compounds are found by filter-gather prefilter plus a set probe
        per surviving position, so inserts never force a sort here.
        Used by the sequential scan, where the per-lookup vector is only
        |M| wide.
        """
        main = self._acc_compounds
        if len(main):
            positions = np.searchsorted(main, compounds)
            np.clip(positions, 0, len(main) - 1, out=positions)
            hits = main[positions] == compounds
        else:
            hits = np.zeros(compounds.shape, dtype=bool)
        if self._acc_pending:
            maybe = filter_test(self._acc_filter, self._acc_filter_shift, compounds)
            maybe &= ~hits
            if maybe.any():
                pending = self._acc_pending_set
                for index in np.flatnonzero(maybe).tolist():
                    if int(compounds[index]) in pending:
                        hits[index] = True
        return hits

    def _scan_operands(self) -> ScanOperands:
        """The kernel's operands for the current mask list (cached)."""
        cached = self._acc_operands
        if cached is not None and not self.check_invariants:
            return cached
        n = len(self._mask_order)
        fresh = self._scan_kernel.prepare(
            self._acc_mask_buffer[:n], self._acc_salt_buffer[:n]
        )
        if cached is None:
            self._acc_operands = cached = fresh
        elif not cached.equals(fresh):
            raise CacheInvariantError(
                f"cached scan operands are stale against the {n}-mask buffer"
            )
        return cached

    def _check_filter(self) -> None:
        """``check_invariants``: the filter holds every indexed compound."""
        indexed = self._acc_indexed()
        found = filter_test(self._acc_filter, self._acc_filter_shift, indexed)
        if not found.all():
            raise CacheInvariantError(
                f"membership filter misses {int((~found).sum())} of "
                f"{len(indexed)} indexed compounds (a false negative hides an entry)"
            )

    def _rebuild_accelerator(self) -> None:
        self._burst_buf.clear()  # superseded: everything re-indexed from truth
        self._acc_operands = None
        n = len(self._mask_order)
        self._acc_grow(max(n, 1))
        self._acc_entries = {}
        self._mask_index = {mask: i for i, mask in enumerate(self._mask_order)}
        compounds: list[int] = []
        for index, mask in enumerate(self._mask_order):
            self._acc_mask_buffer[index] = _to_columns(mask.values)
            salt = int(self._acc_salt_buffer[index])
            for entry in self._tables[mask].values():
                compound = (_row_hash(_to_columns(entry.key)) ^ salt) & _U64
                compounds.append(compound)
                self._acc_entries.setdefault(compound, []).append((index, entry))
        self._acc_compounds = np.sort(np.asarray(compounds, dtype=np.uint64))
        self._acc_pending.clear()
        self._acc_pending_set.clear()
        log2 = 64 - self._acc_filter_shift
        while len(compounds) << _FILTER_LOAD_LOG2 >= (1 << log2) and log2 < _FILTER_MAX_LOG2:
            log2 = min(_FILTER_MAX_LOG2, log2 + 2)
        self._acc_filter_rebuild(log2)
        self._acc_dirty = False

    # -- core scan -------------------------------------------------------------
    def _scan(self, key: FlowKey, key_values: tuple[int, ...], now: float) -> TssLookupResult:
        """Algorithm 1: scan masks, probe each hash, early-exit on hit."""
        n = len(self._mask_order)
        if n == 0:
            self._register_miss()
            return TssLookupResult(entry=None, masks_inspected=0)
        if self._acc_dirty:
            self._rebuild_accelerator()
        elif self._burst_buf:
            self._burst_drain()
        if not len(self._acc_compounds) and not self._acc_pending:
            self._register_miss()
            return TssLookupResult(entry=None, masks_inspected=n)
        row = _keys_to_matrix((key,))[0]
        masked = self._acc_mask_buffer[:n] & row
        hashes = (masked * _WEIGHTS).sum(axis=1, dtype=np.uint64)
        compounds = hashes ^ self._acc_salt_buffer[:n]
        candidates = self._acc_candidates(compounds)
        for index in np.flatnonzero(candidates):
            # Confirm against the authoritative dicts: 64-bit collisions
            # are possible, just rare, and must not change semantics.
            for entry_index, entry in self._acc_entries.get(int(compounds[index]), ()):
                if entry_index == index and entry.covers(key):
                    self._register_hit(entry, now)
                    return TssLookupResult(entry=entry, masks_inspected=int(index) + 1)
        self._register_miss()
        return TssLookupResult(entry=None, masks_inspected=n)

    # -- batched lookup --------------------------------------------------------
    def batch_scanner(
        self, keys: list[FlowKey], now: float = 0.0, rows=None, spawn=None
    ) -> "_BatchScanner":
        """A consume-in-order batch scanner (the datapath's level-3 engine).

        The (N x M) mask/hash work runs in the scan kernel, planned ahead;
        the caller drives the scanner one key at a time and may mutate the
        cache between keys (slow-path installs), and the scanner keeps its
        plan coherent — see :class:`_BatchScanner`'s coherence rules.
        ``rows`` optionally
        supplies ``keys``' column matrix for a caller that already holds
        it (the shm worker, whose keys were rebuilt from it); otherwise
        planning joins the keys' packed rows.  ``spawn(i)`` names the
        megaflow the slow path generates for ``keys[i]`` (anything with
        ``.mask`` and ``.key``): a caller that installs nothing but such
        megaflows mid-batch passes it and gets an O(1) coherence probe;
        without it the scanner replans whenever an insert could matter.
        """
        return _BatchScanner(self, keys, now, rows=rows, spawn=spawn)

    def _acc_confirm(
        self, compound: int, index: int, key_values: tuple[int, ...]
    ) -> MegaflowEntry | None:
        """Authoritative-dict confirmation of one (compound, mask) candidate:
        the candidate sits at this mask index, its table is live, and the
        packet's own masked key finds exactly it there (Algorithm 1's probe)."""
        for entry_index, entry in self._acc_entries.get(compound, ()):
            if entry_index == index:
                mask = entry.mask
                table = self._tables.get(mask)
                if table is None:
                    continue
                if table.get(self._reduce(mask, key_values)) is entry:
                    return entry
        return None


class _BatchScanner:
    """Vectorised scan plan over a key sequence, consumed in order.

    The scanner precomputes, for a contiguous chunk of keys, the full
    (keys x masks) compound matrix and its filter-candidate bitmap, then
    serves per-key results with sequential-identical bookkeeping.  Three
    coherence rules keep it honest while the caller mutates the cache
    between keys:

    * a scan-order change (removal, shuffle, flush) bumps the
      cache's ``_order_seq``; the scanner replans from the current key;
    * inserts since the plan snapshot (``n_entries`` moved; removals fall
      under the first rule) matter only on a plan *miss* — under Inv(2) a
      snapshot hit can never be preempted by a newer entry.  A plan-missed
      key ``k`` is then settled by an **identity probe of the truth
      dicts**: one ``get_entry(mask, k & mask)`` for the megaflow
      ``spawn`` says the slow path generates for ``k``.  Three premises
      make that probe complete: (1) the filter has no false negatives and
      candidates are dict-confirmed, so a plan miss means no pre-snapshot
      entry covers ``k``; (2) every entry installed since was generated
      by the caller's slow path (``Datapath.process_batch`` is the only
      mid-burst installer); (3) generated entries that overlap are
      identical (``slowpath.py``'s tested correctness property), so the
      only such entry that can cover ``k`` is ``(mask, k & mask)``
      itself.  A caller that cannot name the megaflow passes no ``spawn``
      and the scanner replans from the current key instead;
    * filter candidates are confirmed against the authoritative dicts, so
      filter false positives degrade to a few dict probes.
    """

    # Compound-matrix budget per planning chunk (uint64 elements): caps the
    # plan at ~32 MB while letting an OVS-sized rx burst plan in one go
    # even against a fully detonated (8k+ mask) tuple space.
    CHUNK_ELEMS = 4_000_000

    def __init__(
        self,
        tss: TupleSpaceSearch,
        keys: list[FlowKey],
        now: float,
        rows=None,
        spawn=None,
    ):
        self.tss = tss
        self.keys = keys
        self.now = now
        self._rows = rows  # precomputed column matrix for ALL keys, or None
        self._spawn = spawn  # i -> the megaflow generated for keys[i], or None
        self._start = 0
        self._end = 0
        self._order_seq = -1
        self._n_entries = 0  # entry count at the plan snapshot
        self._plan = None  # the kernel-built ScanPlan for keys[start:end]

    def result(self, i: int, now: float | None = None) -> TssLookupResult:
        """The lookup result for key ``i`` (call with non-decreasing ``i``)."""
        tss = self.tss
        if now is not None:
            self.now = now
        key_values = self.keys[i].values
        memoised = tss._memo_consult(key_values, self.now)
        if memoised is not None:
            return memoised
        result = self._scan_key(tss, i, key_values)
        tss._account_scan(result)
        tss._memo_store(key_values, result)
        return result

    def _scan_key(
        self, tss: TupleSpaceSearch, i: int, key_values: tuple[int, ...]
    ) -> TssLookupResult:
        n_now = len(tss._mask_order)
        if n_now == 0:
            tss._register_miss()
            return TssLookupResult(None, 0)
        if tss._acc_dirty:
            tss._rebuild_accelerator()
        if tss._order_seq != self._order_seq or not (self._start <= i < self._end):
            self._build_plan(i)
        found = self._plan_hit(tss, i, key_values)
        if found is None and tss._n_entries != self._n_entries:
            # Plan says miss, but entries were installed after the snapshot.
            if self._spawn is None:
                self._build_plan(i)
                found = self._plan_hit(tss, i, key_values)
            else:
                spawned = self._spawn(i)
                hit = tss.get_entry(spawned.mask, spawned.key)
                if hit is not None:
                    found = TssLookupResult(hit, tss._mask_index[hit.mask] + 1)
        if found is None:
            tss._register_miss()
            return TssLookupResult(None, n_now)
        tss._register_hit(found.entry, self.now)
        return found

    def _plan_hit(
        self, tss: TupleSpaceSearch, i: int, key_values: tuple[int, ...]
    ) -> TssLookupResult | None:
        """The plan's dict-confirmed hit for key ``i`` — the entry and the
        probes the sequential scan spends reaching it — or None on a miss."""
        j = i - self._start
        plan = self._plan
        if not plan.has[j]:
            return None
        index = plan.first[j]
        hit = tss._acc_confirm(plan.first_compound[j], index, key_values)
        while hit is None:
            # Filter false positive: resume the scan past the failed
            # index and confirm the next candidate.
            nxt = plan.next_hit(j, index)
            if nxt is None:
                return None
            index, compound = nxt
            hit = tss._acc_confirm(int(compound), index, key_values)
        return TssLookupResult(hit, index + 1)

    def _build_plan(self, start: int) -> None:
        """Kernel-computed compound/candidate plan for keys[start:end]."""
        tss = self.tss
        n = len(tss._mask_order)
        chunk = max(32, self.CHUNK_ELEMS // max(n, 1))
        end = min(len(self.keys), start + chunk)
        if self._rows is not None:
            rows = self._rows[start:end]
        else:
            rows = _keys_to_matrix(self.keys[start:end])
        if tss._burst_buf:
            # Deferred burst appends must reach the accelerator before the
            # plan snapshots it: the entry count recorded below tells the
            # miss path that nothing is newer than this plan.
            tss._burst_drain()
        if tss._acc_pending:
            # The kernels refine filter candidates against the sorted
            # compound set; fold the unsorted insert backlog in first so
            # the snapshot is complete (amortised: once per plan).
            tss._acc_merge_pending()
        if tss.check_invariants:
            tss._check_filter()
        self._plan = tss._scan_kernel.build_plan(
            rows,
            tss._scan_operands(),
            tss._acc_filter,
            tss._acc_filter_shift,
            tss._acc_compounds,
        )
        self._start = start
        self._end = end
        self._order_seq = tss._order_seq
        self._n_entries = tss._n_entries

    def plan_misses(self, start: int) -> list[int]:
        """Key indices ``>= start`` guaranteed to miss the plan snapshot.

        The filter has no false negatives, so a key with no plan candidate
        cannot hit any entry installed before the batch — the upcall
        coalescer uses this as its burst of soon-to-miss keys.  Only
        entries installed *mid-batch* can still serve some of them (which
        is fine: megaflow generation is pure, so speculatively generating
        for a key that ends up hitting changes nothing).  When no plan
        covers ``start`` (empty tuple space: the scan early-exits before
        planning), every remaining key is a guaranteed miss.
        """
        plan = self._plan
        if (
            plan is None
            or self.tss._order_seq != self._order_seq
            or not (self._start <= start < self._end)
        ):
            return list(range(start, len(self.keys)))
        has = plan.has
        offset = self._start
        return [j for j in range(start, self._end) if not has[j - offset]]
