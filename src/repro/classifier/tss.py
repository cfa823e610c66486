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
every megaflow backend builds on).  On top of them sits an accelerator.
Every entry gets an append-only **slot** holding the entry, its masked
packed row and its mask's scan position, and is indexed by a salted 64-bit
hash of that row (its *compound*) in a sorted array behind a membership
filter.  A scan kernel (``classifier.kernel``) hashes a key under every
mask in scan order, probes the filter and decides a hit **only by exact row
equality** against a slot, so it stops at the entry the sequential scan
would find, at the same ``masks_inspected``, and Python maps the slot to
its entry with one list index (a dict confirm runs only under
``check_invariants``).  A small memo
additionally short-circuits repeated lookups of identical keys between
cache mutations, since attack traces are replayed in loops.

Batch pipeline.  :meth:`TupleSpaceSearch.batch_scanner` plans N keys per
call the way real software switches do (OVS/DPDK process ~32-packet
batches), and ``lookup`` is its one-key case: there is one scan engine.
The keys' column matrix is the join of the packed rows the keys carry
(``classifier.kernel.keys_to_matrix``: a replayed key is packed once, not
once per burst); the kernel computes the salted compound of every (key,
mask) pair over the *non-wildcarded* mask columns only (most of the
15-column hash collapses away), tests each against the membership filter
(its bit layout belongs to ``classifier.kernel``; this module only decides
how large it is — see "Candidate filter sizing") and settles each filter
hit by comparing rows, so a filter false positive or a compound collision
costs a binary search, never a wrong verdict.  The scanner then settles a
run of consecutive hits per call (:meth:`_BatchScanner.hits`).  Results are
verdict-for-verdict identical to Algorithm 1 over the dicts — same entries,
same ``masks_inspected``, same statistics (checked key by key against the
pure-Python walk in ``tests/scan_oracle.py``).

Accelerator invariants:

* the per-mask dicts are the single source of truth; the accelerator
  decides a hit only by exact row equality and stays rebuildable from the
  dicts — rebuilding it at any point must never change observable
  behaviour.  Under ``check_invariants`` every plan checks the slot table
  and the filter against the dicts, and every plan hit is dict-confirmed;
* slots are append-only between rebuilds, so the slots a plan returns stay
  valid until the scan order changes (which rebuilds the index and makes
  every scanner replan);
* inserts are O(1) amortised: a new entry's slot and compound are appended
  unsorted (plus a filter bit) and merged into the sorted compound array —
  compounds and their slots permuted together by one argsort — only when
  the unsorted tail outgrows an eighth of it, or before a plan reads it,
  replacing the old O(n)-copy-per-insert ``np.insert`` scheme that turned
  a detonating attack into quadratic work;
* per-mask hash salts are append-only: growth of the salt buffer
  explicitly preserves already-issued salts, because a salt change would
  orphan every compound computed under it (entries installed but
  unfindable by the accelerator);
* the scan kernel's mask-side operands (active columns, compacted mask
  matrix, weights, salts — ``ScanKernel.prepare``) depend only on the mask
  list and are cached across plans.  An append of masks that constrain no
  new column replaces the snapshot with ``ScanKernel.extend`` of it (the
  old rows plus the new ones); an append that does, or a buffer replaced
  or reordered, drops it, and the next plan prepares afresh.  A snapshot
  is never updated in place, and under ``check_invariants`` every plan
  compares it with a fresh ``prepare``;
* every accelerator append goes through one drain, and the accelerator
  may lag the dicts by a bounded backlog: under
  :meth:`MegaflowStore.index_burst` (the datapath wraps every
  ``process_batch`` in one) inserts mutate the authoritative dicts
  immediately but queue their accelerator work, and a burst's exit drains
  the queue only once it reaches the merge cadence (an eighth of the sorted
  compound array, at least 64 — :meth:`TupleSpaceSearch._acc_due`) or a
  key of the burst was served from it, so a trickle of small cold bursts
  pays one append per cadence, not one per burst, and a replay that
  re-reads the backlog pays for it in one burst only.  Outside a burst an
  insert drains at once (with any backlog).  A drain is one vectorised
  append — one column-matrix build for the new masks' rows and one for
  the entries', over only the fields the backlog's masks constrain (any
  other column is zero in those masks, so the AND zeroes it anyway); one
  hash pass; at most one pending merge.  The
  reference derive stays full-width: ``check_invariants`` re-derives new
  slots' rows and their masks' rows over every field.  Deferral is
  invisible to lookups: a reader with no coherence probe (a scanner built
  without ``spawn``, so ``lookup`` and ``process``; the rebuild) drains
  first, and a scanner built with ``spawn`` plans over the indexed prefix
  only — its mask operands span the indexed masks, its entry-count
  snapshot counts only indexed entries — so a key whose megaflow is still
  queued is a plan miss settled by the mid-burst coherence probe of the
  truth dicts, at the scan position recorded in ``_mask_index`` the moment
  the append was deferred.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from operator import and_, itemgetter

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
    WEIGHTS as _WEIGHTS,
    ScanOperands,
    filter_alloc,
    filter_set,
    filter_test,
    keys_to_matrix as _keys_to_matrix,
    make_scan_kernel,
    to_column_matrix as _to_column_matrix,
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

# A NamedTuple's generated ``__new__`` is a Python-level call; records built
# per entry or per miss take ``tuple.__new__`` (every field given).
_new = tuple.__new__


def _grown(array: np.ndarray, capacity: int) -> np.ndarray:
    """``array`` copied into the head of a zeroed ``capacity``-row buffer."""
    out = np.zeros((capacity, *array.shape[1:]), dtype=array.dtype)
    out[: len(array)] = array
    return out


class TupleSpaceSearch(MegaflowStore):
    """The TSS megaflow backend: mask list + per-mask hash tables.

    Args:
        check_invariants: when True, every insert verifies Inv(2)
            (disjointness) against the whole cache — O(|C|) per insert, used
            by the test suite to prove the slow path correct — and every
            plan checks the accelerator against the dicts.
        scan_kernel: which :mod:`repro.classifier.kernel` implementation
            computes the scan plan — ``"auto"`` (compiled cffi kernel when
            the toolchain allows, numpy otherwise), ``"numpy"`` or
            ``"cffi"``.  Both decide hits by the same exact row comparison,
            so the choice can never change a verdict (``tests/test_kernel.py``).
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
        # Accelerator state.  Inserts update it incrementally (the hot path
        # while an attack detonates); removals and reorders mark it dirty
        # for a lazy rebuild.
        self._acc_dirty = True
        self._acc_capacity = 0
        self._acc_mask_buffer: np.ndarray = np.empty((0, _N_COLUMNS), dtype=np.uint64)
        self._acc_salt_buffer: np.ndarray = np.empty(0, dtype=np.uint64)
        self._acc_salt_rng = np.random.default_rng(0xACCE1)
        self._mask_index: dict[FlowMask, int] = {}
        # Masks with rows in the buffer: the indexed prefix of the scan
        # order (masks past it wait in the backlog).
        self._acc_n_masks = 0
        # The slot table: slot s holds an indexed entry's lookup result (the
        # entry and its mask's scan position + 1: what a plan hit on it
        # returns), its masked packed row, its mask's scan position and its
        # compound (arrays grown by doubling; ``len(_slot_results)`` slots
        # are live).
        self._slot_results: list[TssLookupResult] = []
        self._slot_rows: np.ndarray = np.empty((0, _N_COLUMNS), dtype=np.uint64)
        self._slot_masks: np.ndarray = np.empty(0, dtype=np.int64)
        self._slot_compounds: np.ndarray = np.empty(0, dtype=np.uint64)
        self._slots_checked = 0  # slots ``_check_slots`` has re-derived
        # The sorted compound array and each compound's slot.  Slots past
        # its length are the insert backlog, merged in periodically.
        self._acc_compounds: np.ndarray = np.empty(0, dtype=np.uint64)
        self._acc_compound_slots: np.ndarray = np.empty(0, dtype=np.int64)
        self._acc_filter = filter_alloc(_FILTER_MIN_LOG2)
        self._acc_filter_shift = 64 - _FILTER_MIN_LOG2
        # ``ScanKernel.prepare`` over the mask/salt buffer prefix (or an
        # ``extend`` of it), shared by every plan until the buffer changes
        # (see "Accelerator invariants").
        self._acc_operands: ScanOperands | None = None
        # Deferred accelerator appends (see module docstring): while a burst
        # is open, entries queue here and drain vectorised at a burst exit
        # (at the merge cadence, or once the probe served a key from them)
        # or before a read with no coherence probe; outside a burst they
        # drain at once.  The masks they bring are the scan order past
        # ``_acc_n_masks``.
        self._burst_depth = 0
        self._burst_buf: list[MegaflowEntry] = []
        # Set when the coherence probe serves a key from an unindexed entry:
        # the backlog is being re-read, and every re-read pays a generation
        # a plan hit would not, so the burst's exit drains it.
        self._backlog_served = False

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
        if new_mask:
            # The position is known now (the truth-side ``_mask_order``
            # append already happened); only the column/salt work waits.
            self._mask_index[entry.mask] = len(self._mask_order) - 1
        self._burst_buf.append(entry)
        if not self._burst_depth:
            self._burst_drain()  # outside a burst: a burst of one

    @contextmanager
    def index_burst(self):
        """Defer accelerator appends for the duration of one batch.

        The exit drains the backlog once it reaches the merge cadence
        (:meth:`_acc_due`) or once the coherence probe has served a key from
        it; otherwise it carries over to later bursts until one of those
        happens, or until a reader with no coherence probe drains it.
        """
        self._burst_depth += 1
        try:
            yield self
        finally:
            self._burst_depth -= 1
            if self._burst_depth == 0 and (
                self._backlog_served or self._acc_due(len(self._burst_buf))
            ):
                self._burst_drain()

    # -- accelerator maintenance ----------------------------------------------
    def _acc_grow(self, needed: int) -> None:
        if needed <= self._acc_capacity:
            return
        old = self._acc_capacity
        capacity = max(64, old * 2, needed)
        self._acc_mask_buffer = _grown(self._acc_mask_buffer[:old], capacity)
        # Salts are append-only: already-issued salts are copied over and
        # only the new tail is drawn, so compounds computed under earlier
        # salts stay valid.  (Regenerating the whole buffer — even from a
        # fixed seed — silently bets on numpy keeping prefix-stable
        # generation; a salt change strands every installed entry.)
        salts = _grown(self._acc_salt_buffer[:old], capacity)
        salts[old:] = self._acc_salt_rng.integers(
            0, 1 << 63, size=capacity - old, dtype=np.uint64
        )
        self._acc_salt_buffer = salts
        self._acc_capacity = capacity

    @staticmethod
    def _fields_of_masks(masks) -> list[int]:
        """The field indices some mask in ``masks`` constrains, in order:
        the non-zero fields of the masks' OR."""
        columns = zip(*[mask.values for mask in masks])
        return [i for i, column in enumerate(columns) if any(column)]

    def _slot_append(
        self, entries: list[MegaflowEntry], indices: np.ndarray, fields: list[int]
    ) -> None:
        """Index ``entries`` (under the masks at ``indices``) in new slots.

        ``fields`` covers every field those masks constrain: the entries'
        rows convert only those columns, the rest of a masked row is zero
        whatever the key holds there.
        """
        rows = _to_column_matrix([entry.key for entry in entries], fields)
        rows &= self._acc_mask_buffer[indices]
        # uint64 matmul wraps mod 2**64 like the kernels' sums (bit for bit)
        # and needs no (entries x columns) product temporary.
        compounds = (rows @ _WEIGHTS) ^ self._acc_salt_buffer[indices]
        first = len(self._slot_results)
        end = first + len(entries)
        if end > len(self._slot_masks):
            capacity = max(64, 2 * len(self._slot_masks), end)
            self._slot_rows = _grown(self._slot_rows, capacity)
            self._slot_masks = _grown(self._slot_masks, capacity)
            self._slot_compounds = _grown(self._slot_compounds, capacity)
        self._slot_results.extend(
            [_new(TssLookupResult, hit) for hit in zip(entries, (indices + 1).tolist())]
        )
        self._slot_rows[first:end] = rows
        self._slot_masks[first:end] = indices
        self._slot_compounds[first:end] = compounds
        filter_set(self._acc_filter, self._acc_filter_shift, compounds)
        if self._acc_due(end - len(self._acc_compounds)):
            self._acc_merge_pending()

    def _burst_drain(self) -> None:
        """Fold deferred inserts into the accelerator in one pass.

        Every append goes through here (outside a burst, right away), so
        each new mask's row and each entry's masked row is derived once,
        by one column-matrix build apiece over the fields the burst's masks
        constrain — the positions are the ones recorded in ``_mask_index``
        at defer time — and the pending-merge threshold is checked once
        per drain.
        """
        self._backlog_served = False
        buf = self._burst_buf
        if not buf:
            return
        self._burst_buf = []
        if self._acc_dirty:
            return  # the lazy rebuild covers these entries
        mask_index = self._mask_index
        indices = np.fromiter(
            [mask_index[entry.mask] for entry in buf], dtype=np.int64, count=len(buf)
        )
        fields = self._fields_of_masks([entry.mask for entry in buf])
        # Every append is deferred, so the masks with rows are exactly the
        # order prefix and the queued ones the rest of it (``_check_slots``
        # holds that, and ``_mask_index``, to the order).
        first, end = self._acc_n_masks, len(self._mask_order)
        if end > first:
            self._acc_grow(end)
            mask_rows = _to_column_matrix(
                [mask.values for mask in self._mask_order[first:]], fields
            )
            self._acc_mask_buffer[first:end] = mask_rows
            # The cached operands cover the masks before ``first``: extend
            # them by the new rows (None if those add a column: the next
            # plan prepares afresh).
            cached = self._acc_operands
            if cached is not None:
                self._acc_operands = self._scan_kernel.extend(
                    cached, mask_rows, self._acc_salt_buffer[first:end]
                )
            self._acc_n_masks = end
        self._slot_append(buf, indices, fields)

    def _acc_backlog(self) -> int:
        """Slots indexed since the last merge (their compounds unsorted)."""
        return len(self._slot_results) - len(self._acc_compounds)

    def _acc_due(self, backlog: int) -> bool:
        """Whether ``backlog`` appends have reached the merge cadence: an
        eighth of the sorted compound array, at least 64.  Both backlogs
        keep it — the drain's queue at burst exit and the slots' unsorted
        tail — so a cadence-sized drain also merges."""
        return backlog >= max(64, len(self._acc_compounds) >> 3)

    def _acc_merge_pending(self) -> None:
        """Fold the slot backlog into the sorted compound array.

        Runs every O(n/8) inserts (and before a plan reads the array), so
        each compound is touched O(log n) times over the cache's lifetime —
        amortised O(1)-ish per insert versus the O(n) copy a per-insert
        ``np.insert`` would pay.  A stable argsort of a sorted prefix plus
        a short tail is near-linear, and permutes each compound's slot
        with it.
        """
        merged, end = len(self._acc_compounds), len(self._slot_results)
        if end > merged:
            compounds = np.concatenate(
                [self._acc_compounds, self._slot_compounds[merged:end]]
            )
            slots = np.concatenate(
                [self._acc_compound_slots, np.arange(merged, end, dtype=np.int64)]
            )
            order = np.argsort(compounds, kind="stable")
            self._acc_compounds = compounds[order]
            self._acc_compound_slots = slots[order]
        self._acc_filter_maybe_grow()

    def _acc_filter_maybe_grow(self) -> None:
        total = len(self._slot_results)
        log2 = 64 - self._acc_filter_shift
        if total << _FILTER_LOAD_LOG2 >= (1 << log2) and log2 < _FILTER_MAX_LOG2:
            self._acc_filter_rebuild(min(_FILTER_MAX_LOG2, log2 + 2))

    def _acc_filter_rebuild(self, log2: int) -> None:
        self._acc_filter = filter_alloc(log2)
        self._acc_filter_shift = 64 - log2
        filter_set(
            self._acc_filter,
            self._acc_filter_shift,
            self._slot_compounds[: len(self._slot_results)],
        )

    def _scan_operands(self) -> ScanOperands:
        """The kernel's operands for the indexed masks (cached)."""
        cached = self._acc_operands
        if cached is not None and not self.check_invariants:
            return cached
        n = self._acc_n_masks
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
        indexed = self._slot_compounds[: len(self._slot_results)]
        found = filter_test(self._acc_filter, self._acc_filter_shift, indexed)
        if not found.all():
            raise CacheInvariantError(
                f"membership filter misses {int((~found).sum())} of "
                f"{len(indexed)} indexed compounds (a false negative hides an entry)"
            )

    def _check_slots(self) -> None:
        """``check_invariants``: the slot table indexes exactly the dicts
        minus the backlog.

        Its slots hold the dicts' entries that are not queued in
        ``_burst_buf``, each once; the masks the queued entries bring are the
        scan order past the indexed prefix; the mask index agrees with the scan order;
        every slot appended since the last check carries the scan position
        (in its result, too), masked row and compound a rebuild would derive
        (a slot is never rewritten, so once is enough); the sorted array
        holds the merged slots' compounds, in order.
        """
        results, order, buf = self._slot_results, self._mask_order, self._burst_buf
        n, checked = len(results), self._slots_checked
        # Whole-table checks run on every plan (built from C-level maps: a
        # per-key lookup plans once per key).
        indexed = set(map(id, map(itemgetter(0), results)))
        pending = set(map(id, buf))
        truth = set(map(id, chain.from_iterable(map(dict.values, self._tables.values()))))
        if (
            len(indexed) != n
            or len(pending) != len(buf)
            or not indexed.isdisjoint(pending)
            or indexed | pending != truth
        ):
            raise CacheInvariantError(
                f"the slot table's {n} entries and the {len(buf)} queued are not "
                f"the dicts' {len(truth)}"
            )
        if len(self._mask_index) != len(order) or list(
            map(self._mask_index.get, order)
        ) != list(range(len(order))):
            raise CacheInvariantError("mask scan positions are stale against the mask order")
        n_masks = self._acc_n_masks
        queued = {entry.mask for entry in buf if self._mask_index[entry.mask] >= n_masks}
        if queued != set(order[n_masks:]):
            raise CacheInvariantError("the queued entries' new masks are not the unindexed scan order")
        fresh = [result.entry for result in results[checked:]]
        indices = np.fromiter(
            (self._mask_index[entry.mask] for entry in fresh), dtype=np.int64, count=len(fresh)
        )
        # The reference derive is full-width over every field, so the drain's
        # restricted one is checked against it, not against itself (a new
        # mask's row is checked with its first entry's slot).
        masks = _to_column_matrix([entry.mask.values for entry in fresh])
        rows = _to_column_matrix([entry.key for entry in fresh]) & masks
        compounds = (rows @ _WEIGHTS) ^ self._acc_salt_buffer[indices]
        merged = self._acc_compound_slots
        if not (
            [result.masks_inspected for result in results[checked:]] == (indices + 1).tolist()
            and np.array_equal(self._acc_mask_buffer[indices], masks)
            and np.array_equal(self._slot_masks[checked:n], indices)
            and np.array_equal(self._slot_rows[checked:n], rows)
            and np.array_equal(self._slot_compounds[checked:n], compounds)
            and np.array_equal(np.sort(merged), np.arange(len(merged)))
            and np.array_equal(self._slot_compounds[merged], self._acc_compounds)
            and bool((self._acc_compounds[1:] >= self._acc_compounds[:-1]).all())
        ):
            raise CacheInvariantError("the slot table's rows, masks or compounds are stale")
        self._slots_checked = n

    def _rebuild_accelerator(self) -> None:
        self._burst_buf.clear()  # superseded: everything re-indexed from truth
        self._acc_operands = None
        order = self._mask_order
        self._acc_grow(max(len(order), 1))
        self._mask_index = {mask: i for i, mask in enumerate(order)}
        self._acc_n_masks = len(order)
        fields = self._fields_of_masks(order)
        if order:
            self._acc_mask_buffer[: len(order)] = _to_column_matrix(
                [mask.values for mask in order], fields
            )
        entries = [entry for mask in order for entry in self._tables[mask].values()]
        self._slot_results = []
        self._slots_checked = 0
        self._acc_compounds = np.empty(0, dtype=np.uint64)
        self._acc_compound_slots = np.empty(0, dtype=np.int64)
        log2 = 64 - self._acc_filter_shift
        while len(entries) << _FILTER_LOAD_LOG2 >= (1 << log2) and log2 < _FILTER_MAX_LOG2:
            log2 = min(_FILTER_MAX_LOG2, log2 + 2)
        self._acc_filter_rebuild(log2)
        if entries:
            self._slot_append(
                entries,
                np.repeat(
                    np.arange(len(order), dtype=np.int64),
                    [len(self._tables[mask]) for mask in order],
                ),
                fields,
            )
        self._acc_merge_pending()
        self._acc_dirty = False

    # -- the scan --------------------------------------------------------------
    def batch_scanner(
        self, keys: list[FlowKey], now: float = 0.0, rows=None, spawn=None
    ) -> "_BatchScanner":
        """A consume-in-order batch scanner (the datapath's level-3 engine,
        and ``lookup``'s, one key at a time).

        The (N x M) mask/hash work runs in the scan kernel, planned ahead;
        the caller drives the scanner in order — a run of hits per
        :meth:`_BatchScanner.hits` call, or one key per ``result`` — and may
        mutate the cache between calls (slow-path installs), and the
        scanner keeps its plan coherent — see :class:`_BatchScanner`'s
        coherence rules.  ``rows`` optionally supplies ``keys``' column
        matrix for a caller that already holds it (the shm worker, whose
        keys were rebuilt from it); otherwise planning joins the keys'
        packed rows.  ``spawn(i)`` names the megaflow the slow path
        generates for ``keys[i]`` (anything with ``.mask`` and ``.key``): a
        caller that installs nothing but such megaflows mid-batch passes it
        and gets an O(1) coherence probe; without it the scanner replans
        whenever an insert could matter.
        """
        return _BatchScanner(self, keys, now, rows=rows, spawn=spawn)


class _BatchScanner:
    """A kernel scan plan over a key sequence, consumed in order.

    The scanner has the kernel plan a contiguous chunk of keys — per key
    the first mask holding an exact match and that entry's slot — and
    settles results from it with sequential-identical bookkeeping.  Three
    coherence rules keep it honest while the caller mutates the cache
    between calls:

    * a scan-order change (removal, shuffle, flush) bumps the cache's
      ``_order_seq``; the scanner replans from the current key (the index
      rebuild behind such a change is the only thing that renumbers slots);
    * entries the plan snapshot does not index (``n_entries`` moved past
      the indexed count: installs since the plan, and with ``spawn`` the
      accelerator's queued backlog from earlier bursts; removals fall under
      the first rule) matter only on a plan *miss* — under Inv(2) a
      snapshot hit can never be preempted by another entry.  A plan-missed
      key ``k`` is then settled by an **identity probe of the truth
      dicts**: one ``get_entry(mask, k & mask)`` for the megaflow
      ``spawn`` says the slow path generates for ``k``.  Three premises
      make that probe complete: (1) the filter has no false negatives and
      hits are decided by exact row equality, so a plan miss means no
      indexed entry covers ``k``; (2) every unindexed entry was generated
      under the current flow table — ``Datapath.process_batch`` is the
      only mid-burst installer and installs nothing else, sibling shards'
      re-mapped megaflows and rebuild copies were generated so too, and a
      flow-table change flushes the cache; (3) generated entries that
      overlap are identical (``slowpath.py``'s tested correctness
      property), so the only such entry that can cover ``k`` is
      ``(mask, k & mask)`` itself, at the scan position ``_mask_index``
      recorded for it.  Serving a key so costs a generation a plan hit
      would not, so a burst whose probe did drains the backlog at exit.  A
      caller that cannot name the megaflow passes no ``spawn``; its plans
      drain the backlog first and it replans from the current key after an
      install instead;
    * a plan hit is final (see ``classifier.kernel``): Python maps its slot
      to the entry and, under ``check_invariants``, dict-confirms it.
    """

    # Compound-matrix budget per planning chunk (uint64 elements): caps the
    # numpy kernel's plan at ~32 MB while letting an OVS-sized rx burst plan
    # in one go even against a fully detonated (8k+ mask) tuple space.
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
        self._n_entries = 0  # indexed entry count at the plan snapshot
        # The plan for keys[start:end]: per key the first matching mask
        # index (-1: none) and the matched entry's slot.
        self._first: list[int] = []
        self._slot: list[int] = []

    def result(self, i: int) -> TssLookupResult:
        """The lookup result for key ``i`` (call with non-decreasing ``i``)."""
        return self.hits(i, i + 1)[0]

    def hits(self, i: int, stop: int) -> list[TssLookupResult]:
        """Settle keys ``i``, ``i + 1``, ... while they hit, up to ``stop``.

        Returns their results, in order: hits, except possibly the last,
        which is the miss that ended the run (settled like any key).  The
        memo, the statistics and the entries' ``hits`` / ``last_used`` end
        up exactly as ``result`` key by key leaves them, but the run's hits
        reach the funnels once (:meth:`MegaflowStore._register_hits`,
        :meth:`MegaflowStore._account_hit_scans`), not once per key.
        """
        tss = self.tss
        memo, keys = tss._memo, self.keys
        start = end = 0  # the plan is read at the first memo miss: a run of memo hits needs none
        run: list[TssLookupResult] = []
        served: list[MegaflowEntry] = []
        scans = probes = 0
        try:
            for j in range(i, stop):
                values = keys[j].values
                result = memo.get(values)
                if result is not None:
                    entry = result.entry
                    if entry is None:
                        tss._register_miss()
                        run.append(result)
                        break
                else:
                    if j >= end:
                        start, end, first, slots, indexed = self._plan_at(j)
                        check, limit = tss.check_invariants, tss.MEMO_LIMIT
                    index = first[j - start]
                    if index < 0 and self._spawn is None and tss._n_entries != self._n_entries:
                        # Installs since the plan: replan from key j.
                        self._build_plan(j)
                        start, end, first, slots, indexed = self._plan_at(j)
                        index = first[0]
                    if index < 0:
                        result = self._settle_miss(j, values)
                        run.append(result)
                        if result.entry is None:
                            break
                        continue
                    result = indexed[slots[j - start]]
                    entry = result.entry
                    if check:
                        self._confirm(result, index, values)
                    scans += 1
                    probes += index + 1
                    if len(memo) < limit:
                        memo[values] = result
                served.append(entry)
                run.append(result)
        finally:
            if served:
                tss._register_hits(served, self.now)
            if scans:
                tss._account_hit_scans(scans, probes)
        return run

    def _confirm(self, result: TssLookupResult, index: int, values: tuple[int, ...]) -> None:
        """``check_invariants``: a plan hit is the dicts' entry for the key,
        at its mask's scan position."""
        tss = self.tss
        entry = result.entry
        table = tss._tables.get(entry.mask)
        if (
            table is None
            or table.get(tuple(map(and_, values, entry.mask.values))) is not entry
            or tss._mask_index.get(entry.mask) != index
            or result.masks_inspected != index + 1
        ):
            raise CacheInvariantError(
                f"plan hit {entry!r} at mask {index} is not the dicts' entry for the key"
            )

    def _settle_miss(self, j: int, values: tuple[int, ...]) -> TssLookupResult:
        """Settle key ``j``, which the current plan misses (or, with
        entries the plan does not index, whose own megaflow ``spawn``
        names)."""
        tss = self.tss
        hit = None
        if tss._n_entries != self._n_entries:
            spawned = self._spawn(j)
            hit = tss.get_entry(spawned.mask, spawned.key)
        if hit is None:
            tss._register_miss()
            result = _new(TssLookupResult, (None, len(tss._mask_order)))
        else:
            tss._register_hits((hit,), self.now)
            tss._backlog_served = True
            result = _new(TssLookupResult, (hit, tss._mask_index[hit.mask] + 1))
        tss._account_scan(result)
        tss._memo_store(values, result)
        return result

    def _plan_at(self, j: int) -> tuple:
        """``(start, end, first, slot, slot results)`` of a current plan
        covering key ``j``: the one in hand, or a fresh one from ``j``."""
        tss = self.tss
        if tss._order_seq != self._order_seq or not self._start <= j < self._end:
            self._build_plan(j)
        return self._start, self._end, self._first, self._slot, tss._slot_results

    def _build_plan(self, start: int) -> None:
        """The kernel's plan for keys[start:end], over a current index.

        With ``spawn`` the plan covers the indexed prefix and leaves the
        deferred appends queued: the indexed entry count it records below
        sends every plan miss to the truth-dict probe, which finds a queued
        megaflow.  Without ``spawn`` it drains them first, so that count is
        the cache's and a plan miss is final.
        """
        tss = self.tss
        if tss._acc_dirty:
            tss._rebuild_accelerator()
        elif tss._burst_buf and self._spawn is None:
            tss._burst_drain()
        if tss._acc_backlog():
            # The kernels search the sorted compound array only; fold the
            # unsorted insert backlog in first (amortised: once per plan).
            tss._acc_merge_pending()
        n = tss._acc_n_masks
        end = min(len(self.keys), start + max(32, self.CHUNK_ELEMS // max(n, 1)))
        if not n:
            self._first = self._slot = [-1] * (end - start)
        else:
            if tss.check_invariants:
                tss._check_filter()
                tss._check_slots()
            if self._rows is not None:
                rows = self._rows[start:end]
            else:
                rows = _keys_to_matrix(self.keys[start:end])
            self._first, self._slot = tss._scan_kernel.build_plan(
                rows,
                tss._scan_operands(),
                tss._acc_filter,
                tss._acc_filter_shift,
                tss._acc_compounds,
                tss._acc_compound_slots,
                tss._slot_rows,
                tss._slot_masks,
            )
        self._start = start
        self._end = end
        self._order_seq = tss._order_seq
        self._n_entries = len(tss._slot_results)

    def plan_misses(self, start: int) -> list[int]:
        """Key indices ``>= start`` guaranteed to miss the plan snapshot.

        The filter has no false negatives, so a key with no plan hit cannot
        hit any entry the plan indexes — the upcall coalescer uses this as
        its burst of soon-to-miss keys.  Only entries it does not index
        (installed *mid-batch*, or queued in the accelerator's backlog) can
        still serve some of them (which is fine: megaflow generation is
        pure, so speculatively generating for a key that ends up hitting
        changes nothing).  When no plan covers ``start``, every remaining
        key is reported.
        """
        if self.tss._order_seq != self._order_seq or not (
            self._start <= start < self._end
        ):
            return list(range(start, len(self.keys)))
        first, offset = self._first, self._start
        return [j for j in range(start, self._end) if first[j - offset] < 0]
