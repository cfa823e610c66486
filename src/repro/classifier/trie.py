"""Hierarchical tries: the classic trie-of-tries classifier (§7, [31]).

One binary trie per dimension: the first-dimension trie is walked along the
packet's bits; every visited node that terminates some rule's prefix hangs
a next-dimension trie, which is searched recursively (backtracking).  The
deepest/highest-priority match wins.

Why it resists TSE: the structure depends only on the *rule set* — lookup
cost is bounded by ``O(w^d)`` trie nodes regardless of what traffic arrived
before, so adversarial packets cannot inflate later lookups.  The §7
``comparison`` experiment shows exactly that: flat cost under attack while the
TSS cache's scan length explodes.

Rules must constrain fields with MSB-anchored prefix masks (exact matches
are full-length prefixes); arbitrary masks are rejected at build time.
"""

from __future__ import annotations

from repro.classifier.actions import DENY
from repro.classifier.base import ClassifierResult, PacketClassifier
from repro.classifier.rule import FlowRule
from repro.exceptions import ClassifierError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey

__all__ = ["HierarchicalTrieClassifier", "prefix_length"]


def prefix_length(mask: int, width: int) -> int:
    """Length of an MSB-anchored prefix mask; raises on non-prefix masks."""
    if mask == 0:
        return 0
    plen = mask.bit_count()
    if mask != (((1 << plen) - 1) << (width - plen)):
        raise ClassifierError(f"mask {mask:#x} is not an MSB prefix on {width} bits")
    return plen


class _TrieNode:
    """One binary trie node."""

    __slots__ = ("children", "next_dim", "rules")

    def __init__(self) -> None:
        self.children: list[_TrieNode | None] = [None, None]
        self.next_dim: _Trie | None = None
        self.rules: list[tuple[int, int, FlowRule]] | None = None  # last dim only


class _Trie:
    """A binary trie over one field's prefixes."""

    __slots__ = ("root", "width")

    def __init__(self, width: int):
        self.root = _TrieNode()
        self.width = width

    def insert(self, value: int, plen: int) -> _TrieNode:
        node = self.root
        for position in range(plen):
            bit = (value >> (self.width - 1 - position)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node

    def node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(child for child in node.children if child is not None)
        return count


class HierarchicalTrieClassifier(PacketClassifier):
    """Trie-of-tries over the fields the rule set constrains.

    Args:
        rules: the rule list (priorities honoured; insertion order breaks
            ties, matching the flow-table semantics).  The dimensions are
            the fields any rule constrains, in canonical order.
    """

    name = "hierarchical-tries"

    def __init__(self, rules: list[FlowRule]):
        used = {f for rule in rules for f in rule.match.fields}
        fields = tuple(name for name in FIELD_ORDER if name in used)
        if not fields and any(not r.match.is_catchall for r in rules):
            raise ClassifierError("no dimensions derivable from the rule set")
        self.fields = fields
        self._widths = [FIELDS[name].width for name in fields]
        self._root = _Trie(self._widths[0]) if fields else None
        self._catchalls: list[tuple[int, int, FlowRule]] = []
        for sequence, rule in enumerate(rules):
            self._insert(rule, sequence)

    # -- construction -----------------------------------------------------------
    def _insert(self, rule: FlowRule, sequence: int) -> None:
        entry = (-rule.priority, sequence, rule)
        if self._root is None or rule.match.is_catchall:
            self._catchalls.append(entry)
            self._catchalls.sort()
            return
        trie = self._root
        node: _TrieNode | None = None
        for dim, name in enumerate(self.fields):
            constraint = rule.match.constraint(name)
            if constraint is None:
                value, plen = 0, 0
            else:
                value, mask = constraint
                plen = prefix_length(mask, self._widths[dim])
            node = trie.insert(value, plen)
            if dim == len(self.fields) - 1:
                if node.rules is None:
                    node.rules = []
                node.rules.append(entry)
                node.rules.sort()
            else:
                if node.next_dim is None:
                    node.next_dim = _Trie(self._widths[dim + 1])
                trie = node.next_dim

    # -- lookup ------------------------------------------------------------------
    def classify(self, key: FlowKey) -> ClassifierResult:
        best: tuple[int, int, FlowRule] | None = None
        cost = 0

        def search(trie: _Trie, dim: int) -> None:
            nonlocal best, cost
            value = key[self.fields[dim]]
            width = self._widths[dim]
            node: _TrieNode | None = trie.root
            position = 0
            while node is not None:
                cost += 1
                if dim == len(self.fields) - 1:
                    if node.rules:
                        cost += 1  # bucket peek
                        candidate = node.rules[0]
                        if best is None or candidate < best:
                            best = candidate
                elif node.next_dim is not None:
                    search(node.next_dim, dim + 1)
                if position >= width:
                    break
                bit = (value >> (width - 1 - position)) & 1
                node = node.children[bit]
                position += 1

        if self._root is not None:
            search(self._root, 0)
        for candidate in self._catchalls:
            cost += 1
            if best is None or candidate < best:
                best = candidate
            break  # catchalls are sorted; the first is the best

        if best is None:
            return ClassifierResult(action=DENY, cost=cost)
        _nprio, _seq, rule = best
        return ClassifierResult(action=rule.action, cost=cost, rule_name=rule.name)

    def memory_units(self) -> int:
        """Total trie nodes (all dimensions)."""
        if self._root is None:
            return len(self._catchalls)

        def count(trie: _Trie) -> int:
            total = 0
            stack = [trie.root]
            while stack:
                node = stack.pop()
                total += 1
                stack.extend(child for child in node.children if child is not None)
                if node.next_dim is not None:
                    total += count(node.next_dim)
            return total

        return count(self._root) + len(self._catchalls)
