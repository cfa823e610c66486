"""Slow-path megaflow generation: how flow-table lookups spawn MFC entries.

This module implements the construction at the centre of the paper (§3.2,
§4): given a packet that missed the megaflow cache, consult the ordered flow
table and emit a megaflow entry that

* **covers** the packet (Inv(1)), and
* is **disjoint** from every entry any other packet can spawn (Inv(2)),

while un-wildcarding as few bits as possible.  All the strategies the paper
discusses are instances of one *chunked decision procedure*:

Walk rules in priority order.  For each rule, examine its constrained
fields in canonical field order; each field's constrained bits are split
MSB-first into ``k`` chunks.  Un-wildcard chunks one at a time: if the
packet agrees with the rule on the chunk, continue; at the first
disagreeing chunk stop — the mismatch is proven and the remaining bits stay
wildcarded.  If every constrained bit agrees the rule matches: emit
``(packet & mask, mask, rule.action)``.

* ``k = width`` (one-bit chunks) is the paper's **wildcarding strategy**:
  for a single exact-match allow rule it yields the prefix-shaped cache of
  Fig. 3 (w masks, w+1 entries), and for multi-field ACLs the
  multiplicative mask explosion of Fig. 5 / Theorem 4.2.
* ``k = 1`` (one chunk of all bits) is the **exact-match strategy** of
  Fig. 2: a single mask, exponentially many keys.
* intermediate ``k`` realises the O(k) time / O(k·2^(w/k)) space trade-off
  of Theorem 4.1, which the ``theorem41`` experiment sweeps.

Correctness argument (tested property, not just prose): the bits a packet
un-wildcards pin down its entire decision path — agreeing chunks are pinned
to the rule's values and the first disagreeing chunk is pinned to the
packet's value, which disagrees with the rule for *every* packet matching
the emitted entry.  Hence any packet matching an entry reproduces the exact
path that created it, so overlapping entries are identical, which is
Inv(2).

Batched generation.  :meth:`MegaflowGenerator.generate_batch` produces the
same results as per-key :meth:`MegaflowGenerator.generate` — same masks,
actions, ``rules_examined`` — but walks each *decision path* once instead
of walking the rule table once per key.  Per key it is memo → trie walk →
in-place extension, all scalar:

* the decision procedure is compiled once per flow-table version into a
  flat *program* — per rule, one ``(field, value, chunk)`` test per chunk,
  in field/chunk order;
* proven decision paths are memoised in a **chunk-decision trie**: each
  node re-runs one chunk test, each edge is an agree/disagree outcome, and
  each leaf carries the path-determined mask/action/``rules_examined``.
  The correctness argument above is exactly what makes this sound — the
  branch taken at every node depends only on the chunk agreement bits, so
  any key reaching a proven leaf reproduces the scalar walk bit for bit,
  and only the emitted masked key differs per packet;
* a key whose path runs off the proven part extends the trie where it
  stands, with the same ``(key[field] ^ value) & chunk`` test the walk
  uses: the missing node (the next program position) or leaf is created
  and the walk continues through it.  There is no per-call set-up, so a
  1-packet tick and a 256-packet rx burst pay the same per-key price;
* the trie (plus an exact-key memo in front of it) is a pure accelerator:
  it is rebuilt from the flow table and discarded whenever the table's
  version changes (any rule insert/remove/flush), honouring the
  dicts-as-truth invariant — the ordered flow table remains the single
  source of truth for classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, NamedTuple, Sequence

from repro.classifier.actions import DENY, Action
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.classifier.tss import MegaflowEntry
from repro.exceptions import StrategyError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey, FlowMask

__all__ = [
    "StrategyConfig",
    "WILDCARDING",
    "EXACT_MATCH",
    "OVS_DEFAULT",
    "MegaflowGenerator",
    "SlowPathResult",
]

_INDEX = {name: i for i, name in enumerate(FIELD_ORDER)}


class _TrieNode:
    """One chunk test of the decision procedure; edges are its outcomes.

    ``rule``/``test`` name the program position the node stands at — where
    an unproven edge resumes.  ``agree``/``disagree`` are ``None`` (path
    not yet proven), another node, or a :class:`_TrieLeaf`.
    """

    __slots__ = ("field", "value", "chunk", "rule", "test", "agree", "disagree")

    def __init__(self, field: int, value: int, chunk: int, rule: int, test: int):
        self.field = field
        self.value = value
        self.chunk = chunk
        self.rule = rule
        self.test = test
        self.agree = None
        self.disagree = None


class _TrieLeaf:
    """A proven decision path: everything but the emitted key is pinned."""

    __slots__ = ("mask", "action", "rule", "rules_examined", "source_rule")

    def __init__(
        self,
        mask: FlowMask,
        action: Action,
        rule: FlowRule | None,
        rules_examined: int,
        source_rule: str,
    ):
        self.mask = mask
        self.action = action
        self.rule = rule
        self.rules_examined = rules_examined
        self.source_rule = source_rule


@dataclass(frozen=True)
class StrategyConfig:
    """Tuple-space construction strategy (the ``k`` of Theorems 4.1/4.2).

    Attributes:
        default_chunks: number of chunks each constrained field is split
            into.  ``None`` means one chunk **per bit** (``k = w``), the
            paper's wildcarding strategy; ``1`` collapses the whole field
            into a single chunk, the exact-match strategy.
        field_chunks: per-field overrides, e.g. ``{"ipv6_src": 1}``.
        wide_field_threshold: when set, any constrained field wider than
            this many bits is forced to one chunk.  This models the OVS
            behaviour of §5.4 where IPv6 addresses are exact-matched (few
            masks, entry explosion) while ports are still bit-wildcarded.
    """

    default_chunks: int | None = None
    field_chunks: Mapping[str, int] = dc_field(default_factory=dict)
    wide_field_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.default_chunks is not None and self.default_chunks < 1:
            raise StrategyError(f"default_chunks must be >= 1, got {self.default_chunks}")
        for name, k in self.field_chunks.items():
            if name not in FIELDS:
                raise StrategyError(f"unknown field {name!r} in field_chunks")
            if k < 1:
                raise StrategyError(f"{name}: chunk count must be >= 1, got {k}")
        if self.wide_field_threshold is not None and self.wide_field_threshold < 1:
            raise StrategyError("wide_field_threshold must be >= 1")

    def chunks_for(self, field_name: str) -> int | None:
        """Chunk count for ``field_name`` (None = per-bit)."""
        if field_name in self.field_chunks:
            return self.field_chunks[field_name]
        width = FIELDS[field_name].width
        if self.wide_field_threshold is not None and width > self.wide_field_threshold:
            return 1
        return self.default_chunks


#: The paper's "wildcarding" strategy — what OVS usually does (§4.1).
WILDCARDING = StrategyConfig(default_chunks=None)

#: The paper's "exact-match" strategy — one mask, exponential keys (Fig. 2).
EXACT_MATCH = StrategyConfig(default_chunks=1)

#: OVS-as-observed: bit-level wildcarding, except IPv6 addresses are
#: exact-matched (the §5.4 memory blow-up quirk).
OVS_DEFAULT = StrategyConfig(default_chunks=None, wide_field_threshold=64)


class SlowPathResult(NamedTuple):
    """Outcome of one slow-path invocation (one per upcall: a tuple).

    Attributes:
        entry: the generated megaflow (always covers the packet).
        rule: the flow-table rule that matched (None on table miss).
        rules_examined: how many rules the linear scan visited.
    """

    entry: MegaflowEntry
    rule: FlowRule | None
    rules_examined: int


class MegaflowGenerator:
    """Generates megaflow entries from flow-table lookups.

    Args:
        table: the ordered flow table (slow-path classifier).
        strategy: tuple-space construction strategy.
    """

    def __init__(self, table: FlowTable, strategy: StrategyConfig = WILDCARDING):
        self.table = table
        self.strategy = strategy
        # (field, rule mask) -> chunk masks, precomputed per rule constraint.
        self._chunk_cache: dict[tuple[str, int], tuple[int, ...]] = {}
        # Batched-generation accelerator state (see module docstring): the
        # compiled test program, the chunk-decision trie and the exact-key
        # memo are all derived from the flow table at one version and
        # discarded wholesale when the table mutates.
        self._program: list[tuple[FlowRule, list[tuple[int, int, int]]]] | None = None
        self._trie_version: int = -1
        self._trie_root: _TrieNode | _TrieLeaf | None = None
        self._key_memo: dict[tuple[int, ...], _TrieLeaf] = {}

    # -- chunk computation ------------------------------------------------------
    def _chunks(self, field_name: str, rule_mask: int) -> tuple[int, ...]:
        """Split a rule's constrained bits into the strategy's chunk masks."""
        cached = self._chunk_cache.get((field_name, rule_mask))
        if cached is not None:
            return cached
        width = FIELDS[field_name].width
        # Constrained bit positions, MSB first.
        positions = [p for p in range(width) if rule_mask & (1 << (width - 1 - p))]
        k = self.strategy.chunks_for(field_name)
        if k is None or k >= len(positions):
            groups = [[p] for p in positions]
        else:
            # Split into k nearly-equal contiguous groups (first groups get
            # the remainder), mirroring numpy.array_split semantics.
            n = len(positions)
            base, extra = divmod(n, k)
            groups = []
            start = 0
            for i in range(k):
                size = base + (1 if i < extra else 0)
                groups.append(positions[start : start + size])
                start += size
        chunk_masks = tuple(
            sum(1 << (width - 1 - p) for p in group) for group in groups if group
        )
        self._chunk_cache[(field_name, rule_mask)] = chunk_masks
        return chunk_masks

    # -- the decision procedure ---------------------------------------------------
    def generate(self, key: FlowKey) -> SlowPathResult:
        """Run the chunked decision procedure for ``key`` (see module doc)."""
        mask_values = [0] * len(FIELD_ORDER)
        key_values = key.values
        rules_examined = 0
        for rule in self.table.rules_by_priority():
            rules_examined += 1
            matched = True
            for field_name, rule_value, rule_mask in rule.match.constraints():
                idx = _INDEX[field_name]
                key_value = key_values[idx]
                for chunk in self._chunks(field_name, rule_mask):
                    mask_values[idx] |= chunk
                    if (key_value ^ rule_value) & chunk:
                        matched = False
                        break
                if not matched:
                    break
            if matched:
                return self._emit(key, mask_values, rule.action, rule, rules_examined)
        # Table miss: OpenFlow table-miss defaults to drop.  Every examined
        # bit stays in the mask so the miss entry remains disjoint from the
        # rule-matching entries.
        return self._emit(key, mask_values, DENY, None, rules_examined)

    # -- batched generation -------------------------------------------------------
    def generate_batch(self, keys: Sequence[FlowKey]) -> list[SlowPathResult]:
        """Run the decision procedure for a burst of missed keys.

        Result-for-result identical to ``[self.generate(k) for k in keys]``
        — same masks, actions, matched rules and ``rules_examined``.  Each
        key resolves through the exact-key memo or one scalar trie walk
        that extends the trie where the key's decision path is not yet
        proven; a burst costs its keys and nothing per call.
        """
        self._sync_trie()
        memo = self._key_memo
        results = []
        for key in keys:
            values = key.values
            leaf = memo.get(values)
            if leaf is None:
                leaf = memo[values] = self._trie_walk(values)
            results.append(self._emit_leaf(key, leaf))
        return results

    def _sync_trie(self) -> None:
        """(Re)compile the program and reset the trie on table mutation."""
        if self._program is not None and self._trie_version == self.table.version:
            return
        self._program = [
            (
                rule,
                [
                    (_INDEX[field_name], rule_value, chunk)
                    for field_name, rule_value, rule_mask in rule.match.constraints()
                    for chunk in self._chunks(field_name, rule_mask)
                ],
            )
            for rule in self.table.rules_by_priority()
        ]
        self._trie_version = self.table.version
        self._key_memo = {}
        self._trie_root = self._trie_position(0, 0, [0] * len(FIELD_ORDER))

    def _trie_position(
        self, r: int, t: int, mask_values: list[int]
    ) -> _TrieNode | _TrieLeaf:
        """Node or leaf for program position (rule ``r``, test ``t``).

        ``mask_values`` is the chunk accumulation along the path reaching
        the position — a leaf freezes it (the mask is path-determined).
        """
        program = self._program
        if r == len(program):
            return _TrieLeaf(
                FlowMask.from_values(tuple(mask_values)), DENY, None, r, "<table-miss>"
            )
        rule, tests = program[r]
        if t < len(tests):
            return _TrieNode(*tests[t], r, t)
        return _TrieLeaf(
            FlowMask.from_values(tuple(mask_values)), rule.action, rule, r + 1, rule.name
        )

    def _trie_walk(self, key_values: tuple[int, ...]) -> _TrieLeaf:
        """Follow ``key_values``' decision path to its leaf.

        Each step is the scalar chunk test of :meth:`generate`.  Where the
        path runs off the proven part of the trie the missing node or leaf
        — the next program position — is created in place and the walk
        continues through it, so the first key down a path proves it for
        every later one.
        """
        mask_values = [0] * len(FIELD_ORDER)
        node = self._trie_root
        while type(node) is not _TrieLeaf:
            field = node.field
            chunk = node.chunk
            mask_values[field] |= chunk
            if (key_values[field] ^ node.value) & chunk:
                nxt = node.disagree
                if nxt is None:
                    nxt = node.disagree = self._trie_position(
                        node.rule + 1, 0, mask_values
                    )
            else:
                nxt = node.agree
                if nxt is None:
                    nxt = node.agree = self._trie_position(
                        node.rule, node.test + 1, mask_values
                    )
            node = nxt
        return node

    def _emit_leaf(self, key: FlowKey, leaf: _TrieLeaf) -> SlowPathResult:
        # Once per generated key: positional construction throughout.
        mask = leaf.mask
        entry = MegaflowEntry(mask, key.masked(mask), leaf.action, leaf.source_rule)
        return SlowPathResult(entry, leaf.rule, leaf.rules_examined)

    def _emit(
        self,
        key: FlowKey,
        mask_values: list[int],
        action: Action,
        rule: FlowRule | None,
        rules_examined: int,
    ) -> SlowPathResult:
        mask = FlowMask.from_values(tuple(mask_values))
        entry = MegaflowEntry(
            mask=mask,
            key=key.masked(mask),
            action=action,
            source_rule=rule.name if rule is not None else "<table-miss>",
        )
        return SlowPathResult(entry, rule, rules_examined)

    def classify(self, key: FlowKey) -> Action:
        """Reference classification (ignores caches): flow-table semantics."""
        rule = self.table.lookup(key)
        return rule.action if rule is not None else DENY
