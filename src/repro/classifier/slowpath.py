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

The compiled program.  Per field the procedure has a closed form: the
first disagreeing chunk is the one holding the top set bit of
``(key ^ value) & rule_mask`` — chunks are contiguous MSB-first groups of
the constrained bits, so every chunk before it holds only agreeing bits.
The table is therefore compiled once per flow-table version into a
*field-level program*: per rule, one ``(field, value, rule mask, through)``
step per constraint, where ``through[b]`` is the OR of every chunk up to
and including the one holding bit ``b - 1``.  A step is

* ``diff = (key[field] ^ value) & rule_mask``;
* ``diff`` non-zero: the field's mask gains ``through[diff.bit_length()]``
  and the rule fails;
* otherwise the field's mask gains ``rule_mask`` and the rule continues.

:meth:`MegaflowGenerator.generate` and
:meth:`MegaflowGenerator.generate_batch` run that one program.  Each
distinct outcome — mask, action, rule, ``rules_examined`` — is interned
once as a leaf record, by its decision path and then by its mask's own
value tuple (so a leaf keeps no key of its own), and each distinct mask
once, so only the emitted masked key differs per packet, and
``generate_batch`` keeps an exact-key memo in front of the program.
Program, leaves and memo are a pure accelerator: derived from the flow
table at one version and discarded whenever the version changes (any rule
insert/remove/flush), honouring the dicts-as-truth invariant — the
ordered flow table remains the single source of truth for classification.
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


class _Leaf(NamedTuple):
    """One decision outcome: everything but the emitted key is pinned."""

    mask: FlowMask
    action: Action
    rule: FlowRule | None
    rules_examined: int
    source_rule: str


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
        # (field, rule mask) -> ``through`` table, precomputed per constraint.
        self._through_cache: dict[tuple[str, int], tuple[int, ...]] = {}
        # Accelerator state (see module docstring): the compiled program,
        # the interned leaf records and masks and the exact-key memo, all
        # derived from the flow table at ``_version`` and dropped when the
        # table mutates.
        self._program: list[tuple[FlowRule, tuple[tuple[int, int, int, tuple[int, ...]], ...]]] = []
        self._version: int = -1
        # Leaves by decision path (``rules_examined``, one's complement on a
        # table miss), then by their mask's own value tuple.
        self._leaves: dict[int, dict[tuple[int, ...], _Leaf]] = {}
        self._masks: dict[tuple[int, ...], FlowMask] = {}
        self._key_memo: dict[tuple[int, ...], _Leaf] = {}

    # -- chunk computation ------------------------------------------------------
    def _chunks(self, field_name: str, rule_mask: int) -> tuple[int, ...]:
        """Split a rule's constrained bits into the strategy's chunk masks."""
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
        return tuple(sum(1 << (width - 1 - p) for p in group) for group in groups if group)

    def _through(self, field_name: str, rule_mask: int) -> tuple[int, ...]:
        """``through[b]``: every chunk up to the one holding bit ``b - 1``.

        Indexed by ``diff.bit_length()`` for a non-zero ``diff`` inside
        ``rule_mask``; slots of unconstrained bits are never read.
        """
        cached = self._through_cache.get((field_name, rule_mask))
        if cached is not None:
            return cached
        through = [0] * (FIELDS[field_name].width + 1)
        examined = 0
        for chunk in self._chunks(field_name, rule_mask):
            examined |= chunk
            bits = chunk
            while bits:
                low = bits & -bits
                through[low.bit_length()] = examined
                bits ^= low
        cached = self._through_cache[(field_name, rule_mask)] = tuple(through)
        return cached

    # -- the decision procedure ---------------------------------------------------
    def generate(self, key: FlowKey) -> SlowPathResult:
        """Run the chunked decision procedure for ``key`` (see module doc)."""
        self._sync()
        return self._emit(key, self._decide(key.values))

    def generate_batch(self, keys: Sequence[FlowKey]) -> list[SlowPathResult]:
        """Run the decision procedure for a burst of missed keys.

        Result-for-result identical to ``[self.generate(k) for k in keys]``
        — same masks, actions, matched rules and ``rules_examined``.  Each
        key resolves through the exact-key memo or one run of the compiled
        program; a burst costs its keys and nothing per call.
        """
        self._sync()
        memo = self._key_memo
        results = []
        for key in keys:
            values = key.values
            leaf = memo.get(values)
            if leaf is None:
                leaf = memo[values] = self._decide(values)
            results.append(self._emit(key, leaf))
        return results

    def _sync(self) -> None:
        """(Re)compile the program and drop leaves and memo on table mutation."""
        if self._version == self.table.version:
            return
        self._program = [
            (
                rule,
                tuple(
                    (_INDEX[field_name], rule_value, rule_mask, self._through(field_name, rule_mask))
                    for field_name, rule_value, rule_mask in rule.match.constraints()
                ),
            )
            for rule in self.table.rules_by_priority()
        ]
        self._version = self.table.version
        self._leaves = {}
        self._masks = {}
        self._key_memo = {}

    def _decide(self, key_values: tuple[int, ...]) -> _Leaf:
        """Run the program over ``key_values``: one step per constraint."""
        mask_values = [0] * len(FIELD_ORDER)
        rules_examined = 0
        matched = None
        for rule, steps in self._program:
            rules_examined += 1
            for field, rule_value, rule_mask, through in steps:
                diff = (key_values[field] ^ rule_value) & rule_mask
                if diff:
                    mask_values[field] |= through[diff.bit_length()]
                    break
                mask_values[field] |= rule_mask
            else:
                matched = rule
                break
        # A table miss keeps every examined bit in the mask, so the miss
        # entry stays disjoint from the rule-matching entries.  A match on
        # the last rule and a miss failing on its last chunk can share mask
        # and ``rules_examined``: the path key tells them apart.
        path = rules_examined if matched is not None else ~rules_examined
        leaves = self._leaves.get(path)
        if leaves is None:
            leaves = self._leaves[path] = {}
        values = tuple(mask_values)
        leaf = leaves.get(values)
        if leaf is None:
            # Leaves on different paths share a mask (and its value tuple,
            # which keys the leaf).
            mask = self._masks.get(values)
            if mask is None:
                mask = self._masks[values] = FlowMask.from_values(values)
            if matched is None:
                # OpenFlow table-miss defaults to drop.
                leaf = _Leaf(mask, DENY, None, rules_examined, "<table-miss>")
            else:
                leaf = _Leaf(mask, matched.action, matched, rules_examined, matched.name)
            leaves[mask.values] = leaf
        return leaf

    def _emit(self, key: FlowKey, leaf: _Leaf) -> SlowPathResult:
        # Once per generated key: positional construction throughout.
        mask = leaf.mask
        entry = MegaflowEntry(mask, key.masked(mask), leaf.action, leaf.source_rule)
        return SlowPathResult(entry, leaf.rule, leaf.rules_examined)

    def classify(self, key: FlowKey) -> Action:
        """Reference classification (ignores caches): flow-table semantics."""
        rule = self.table.lookup(key)
        return rule.action if rule is not None else DENY
