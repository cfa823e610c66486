"""HaRP: hashing round-down prefixes (§7, [58]) — simplified two-stage form.

HaRP hashes rule prefixes after rounding them *down* to a small set of
"tread" lengths, so a lookup probes one hash bucket per tread instead of
walking a trie.  We implement the single-field LPM stage over a designated
primary field (treads every ``STRIDE`` bits); each bucket holds the rules
whose rounded prefix lands there, and rules that do not constrain the
primary field live in an always-scanned residual list.

Lookup cost = number of treads probed + rules checked in the hit buckets +
the residual list — all functions of the *rule set*, not of past traffic,
which is what makes the scheme TSE-resistant and worth comparing in §7.
"""

from __future__ import annotations

from collections import defaultdict

from repro.classifier.actions import DENY
from repro.classifier.base import ClassifierResult, PacketClassifier
from repro.classifier.rule import FlowRule
from repro.classifier.trie import prefix_length
from repro.exceptions import ClassifierError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey

__all__ = ["HarpClassifier"]

STRIDE = 8  # tread spacing in bits: treads at 0, 8, 16, …


class HarpClassifier(PacketClassifier):
    """Hash round-down prefixes over a primary field.

    Args:
        rules: rule list (priorities honoured).
        primary_field: the field whose prefixes are hashed; defaults to the
            most-constrained field across the rule set.
    """

    name = "harp"

    def __init__(self, rules: list[FlowRule], primary_field: str | None = None):
        if primary_field is None:
            counts: dict[str, int] = defaultdict(int)
            for rule in rules:
                for name in rule.match.fields:
                    counts[name] += 1
            primary_field = max(
                (name for name in FIELD_ORDER if name in counts),
                key=lambda name: counts[name],
                default="",
            )
        if primary_field and primary_field not in FIELDS:
            raise ClassifierError(f"unknown primary field {primary_field!r}")
        self.primary_field = primary_field
        self._width = FIELDS[primary_field].width if primary_field else 0
        self.treads = (
            sorted({min(t, self._width) for t in range(0, self._width + STRIDE, STRIDE)})
            if primary_field
            else [0]
        )
        # tread length -> rounded prefix value -> sorted rule entries
        self._buckets: dict[int, dict[int, list[tuple[int, int, FlowRule]]]] = {
            tread: {} for tread in self.treads
        }
        self._residual: list[tuple[int, int, FlowRule]] = []
        for sequence, rule in enumerate(rules):
            self._insert(rule, sequence)

    def _insert(self, rule: FlowRule, sequence: int) -> None:
        entry = (-rule.priority, sequence, rule)
        constraint = rule.match.constraint(self.primary_field) if self.primary_field else None
        if constraint is None:
            self._residual.append(entry)
            self._residual.sort()
            return
        value, mask = constraint
        plen = prefix_length(mask, self._width)
        # Round down to the nearest tread <= plen.
        tread = max(t for t in self.treads if t <= plen)
        rounded = value & (((1 << tread) - 1) << (self._width - tread) if tread else 0)
        bucket = self._buckets[tread].setdefault(rounded, [])
        bucket.append(entry)
        bucket.sort()

    def classify(self, key: FlowKey) -> ClassifierResult:
        cost = 0
        best: tuple[int, int, FlowRule] | None = None
        if self.primary_field:
            value = key[self.primary_field]
            for tread in self.treads:
                cost += 1  # one hash probe per tread
                rounded = value & (((1 << tread) - 1) << (self._width - tread) if tread else 0)
                for entry in self._buckets[tread].get(rounded, ()):
                    cost += 1
                    if entry[2].matches(key):
                        if best is None or entry < best:
                            best = entry
                        break  # bucket is priority-sorted
        for entry in self._residual:
            cost += 1
            if entry[2].matches(key):
                if best is None or entry < best:
                    best = entry
                break
        if best is None:
            return ClassifierResult(action=DENY, cost=cost)
        _nprio, _seq, rule = best
        return ClassifierResult(action=rule.action, cost=cost, rule_name=rule.name)

    def memory_units(self) -> int:
        """Stored rule references across buckets plus the residual list."""
        stored = sum(
            len(bucket) for table in self._buckets.values() for bucket in table.values()
        )
        return stored + len(self._residual)
