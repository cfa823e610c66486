"""TupleChain-style grouped megaflow backend: chained lookup over mask groups.

The TSE attack is an attack on one algorithm: the O(|masks|) sequential
scan of Tuple Space Search.  TupleChain (arXiv:2408.04390) observes that
the masks a real tuple space accumulates are far from arbitrary — they
cluster into *groups* of compatible masks (same constrained fields,
different prefix depths), and within a group lookups can be *chained*:
instead of probing every mask's hash table, walk a shared structure in
which each step hashes the packet under one more refinement of the group's
mask shape.  Scan cost then grows with the number of groups and the depth
of their chains, not with the raw mask count — exactly the property that
defuses a detonation that multiplies masks inside one group.

:class:`TupleChainSearch` realises that idea over the shared
:class:`~repro.classifier.backend.MegaflowStore` truth store.  The index is
a **group trie** over the canonical field order: level *d* of the trie
refines field *d*.  A node holds one hash table per *sub-mask variant* —
the distinct per-field masks the installed tuples use at that level — and
each table maps the packet's masked field value to the child node (or, at
the last level, to the megaflow entry).  Masks sharing a (sub-mask, value)
path share chain steps, so the 8,192-mask SipSpDp staircase collapses into
one group whose chains are probed ~a few dozen times per lookup: one probe
per sub-mask variant per visited node (e.g. the ≤33 ip_src prefix depths),
instead of one probe per mask.

``masks_inspected`` is therefore reported in **chain-probe units** — the
number of per-variant hash probes the walk performed — the backend-native
analogue of TSS's mask-tables-scanned.  Verdicts, installed entries and
statistics are identical to TSS (differential-tested in
``tests/test_backend.py``); only the cost figure is measured in the
backend's own currency.  The probe-cost surface normalises that currency
for the rest of the stack: one chain probe is one hash-table probe
(``probe_unit_cost() == 1.0``) and :meth:`TupleChainSearch.expected_scan_cost`
reports the expected walk cost — an EMA of observed scans, structurally
estimated before any traffic — which is what makes the grouped defense
visible to the hypervisor's throughput time series instead of being
priced at the (exploded) mask count.

Invariants:

* **Dicts are the source of truth.**  The trie is a pure index: every hit
  it proposes is confirmed against the per-mask dicts before it becomes a
  verdict, and the trie is rebuilt from the dicts after any removal or
  flush (inserts update it incrementally — the hot path while an attack
  detonates).
* **Batch ≡ sequential** holds trivially: the batch path performs live
  per-key lookups against the same dicts (no precomputed plan to go
  stale).
* **Inv(2) (disjointness) makes the walk order-independent.**  At most one
  installed entry covers any key, so the first confirmed chain hit is
  *the* hit regardless of traversal order — the same property the TSS
  batch scanner already relies on.  If overlapping entries are force-fed
  past invariant checking, the walk still returns a deterministic
  (insertion-ordered) match.
"""

from __future__ import annotations

from repro.classifier.backend import (
    MegaflowEntry,
    MegaflowStore,
    TssLookupResult,
)
from repro.packet.fields import FIELD_ORDER, FlowKey

__all__ = ["TupleChainSearch"]

_NFIELDS = len(FIELD_ORDER)
_LAST = _NFIELDS - 1

# A trie node is a plain dict: {field_submask: {masked_value: child}}.
# Children are nodes for levels 0.._NFIELDS-2 and MegaflowEntry objects at
# the last level.  Plain dicts keep the per-probe cost at two dict hops,
# which is the whole point of chaining.
_Node = dict


class TupleChainSearch(MegaflowStore):
    """Grouped-TSS megaflow backend with chained (trie) lookup.

    Args:
        check_invariants: verify Inv(2) on every insert (tests).
    """

    name = "tuplechain"

    def __init__(self, check_invariants: bool = False):
        super().__init__(check_invariants=check_invariants)
        self._root: _Node = {}
        self._trie_dirty = False
        # Probe-cost estimators: an exponential moving average of observed
        # full (miss) chain walks (reset when the structure shrinks or is
        # rebuilt) and a cached structural walk cost (recomputed lazily).
        self._ema_probes: float | None = None
        self._structural_cost: float | None = None

    #: EMA weight: each new scan moves the estimate 1/8 of the way — smooth
    #: enough to ignore one shallow walk, fast enough to track a detonation.
    EMA_WEIGHT = 8.0

    # -- group introspection -------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Distinct mask groups (masks sharing a constrained-field set).

        The figure the grouped design bounds: chain probes per lookup grow
        with the group count and chain depth, not with :attr:`n_masks`.
        """
        return len({tuple(bool(m) for m in mask.values) for mask in self._mask_order})

    # -- probe-cost surface ----------------------------------------------------
    def _account_scan(self, result: TssLookupResult) -> None:
        super()._account_scan(result)
        # Only *misses* feed the estimator: a miss traverses every matching
        # branch, so its probe count is the full-scan cost the calibrated
        # curves take.  Hit walks terminate early (their position discount
        # is already embedded in the curve fit — counting them here would
        # discount twice and deflate the estimate below what a fresh flow
        # actually pays).
        if result.entry is None:
            probes = float(result.masks_inspected)
            if self._ema_probes is None:
                self._ema_probes = probes
            else:
                self._ema_probes += (probes - self._ema_probes) / self.EMA_WEIGHT

    def structural_scan_cost(self) -> float:
        """Mean per-entry chain-walk cost implied by the trie structure.

        For each installed entry, sum the sub-mask variant probes the walk
        performs at every node along the entry's own path; average over
        entries.  Traffic-independent (usable on scratch caches that have
        never served a lookup), O(entries x fields) and cached until the
        next mutation.  A lower-bound estimate: the DFS may also descend
        side branches that match the packet, but for the staircase shapes
        a TSE carves the hit path dominates.
        """
        if self._structural_cost is None:
            if self._trie_dirty:
                self._rebuild_trie()
            total = 0
            count = 0
            for table in self._tables.values():
                for entry in table.values():
                    node = self._root
                    for index in range(_LAST):
                        total += len(node)
                        node = node[entry.mask.values[index]][entry.key[index]]
                    total += len(node)
                    count += 1
            self._structural_cost = total / count if count else 1.0
        return self._structural_cost

    def expected_scan_cost(self) -> float:
        """Expected *full* chain-walk cost now, in normalised probe units.

        Prefers the observed EMA of actual miss scans — full traversals,
        "priced from the actual verdicts" — and falls back to the
        structural walk estimate on a cache whose structure has not been
        miss-scanned since it last changed.  Clamped to >= 1: even an
        empty cache costs one probe to dismiss, matching the TSS
        convention ``max(n_masks, 1)``.
        """
        estimate = self._ema_probes
        if estimate is None:
            estimate = self.structural_scan_cost()
        return max(1.0, self.probe_unit_cost() * estimate)

    # -- store hooks -----------------------------------------------------------
    def _index_invalidate(self) -> None:
        self._trie_dirty = True
        # The structure changed shape (removal / flush / reorder): observed
        # means no longer describe it, and the cached walk cost is stale.
        self._ema_probes = None
        self._structural_cost = None

    def _index_insert(self, entry: MegaflowEntry, new_mask: bool) -> None:
        if not self._trie_dirty:
            self._trie_add(entry)
        # Inserts deepen chains without invalidating observed scans: keep
        # the EMA (it adapts), drop only the cached structural walk.
        self._structural_cost = None

    def _trie_add(self, entry: MegaflowEntry) -> None:
        node = self._root
        mask_values = entry.mask.values
        key_values = entry.key  # already masked: key[i] & mask[i] == key[i]
        for index in range(_LAST):
            table = node.get(mask_values[index])
            if table is None:
                table = {}
                node[mask_values[index]] = table
            child = table.get(key_values[index])
            if child is None:
                child = {}
                table[key_values[index]] = child
            node = child
        table = node.get(mask_values[_LAST])
        if table is None:
            table = {}
            node[mask_values[_LAST]] = table
        table[key_values[_LAST]] = entry

    def _rebuild_trie(self) -> None:
        self._root = {}
        for table in self._tables.values():
            for entry in table.values():
                self._trie_add(entry)
        self._trie_dirty = False

    # -- the chained scan -------------------------------------------------------
    def _scan(self, key: FlowKey, key_values: tuple[int, ...], now: float) -> TssLookupResult:
        """Walk the group trie: one hash probe per sub-mask variant per node.

        Depth-first over the (at most one per chain step) children whose
        masked value matches the packet; a terminal match is confirmed
        against the authoritative dicts before it becomes the verdict.
        """
        if self._trie_dirty:
            self._rebuild_trie()
        if not self._mask_order:
            self._register_miss()
            return TssLookupResult(entry=None, masks_inspected=0)
        probes = 0
        stack: list[tuple[int, _Node]] = [(0, self._root)]
        while stack:
            depth, node = stack.pop()
            value = key_values[depth]
            if depth == _LAST:
                for submask, table in node.items():
                    probes += 1
                    entry = table.get(value & submask)
                    if entry is not None and self.find_entry(entry):
                        self._register_hits((entry,), now)
                        return TssLookupResult(entry=entry, masks_inspected=probes)
                continue
            for submask, table in node.items():
                probes += 1
                child = table.get(value & submask)
                if child is not None:
                    stack.append((depth + 1, child))
        self._register_miss()
        return TssLookupResult(entry=None, masks_inspected=probes)

    def __repr__(self) -> str:
        return (
            f"TupleChainSearch({self.n_masks} masks in {self.n_groups} groups, "
            f"{self.n_entries} entries)"
        )
