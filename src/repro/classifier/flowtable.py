"""The ordered flow table: the slow-path classifier of §2.1.

An ordered set of :class:`~repro.classifier.rule.FlowRule` with priorities.
Lookup returns the highest-priority matching rule (insertion order breaks
ties), exactly the order-dependent semantics the paper describes.  The table
also exposes the structural queries used by the analysis and attack-trace
modules (overlap detection, order-independence checks).
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator

from repro.classifier.actions import DENY, Action
from repro.classifier.rule import FlowRule, Match
from repro.exceptions import ClassifierError, RuleError
from repro.packet.fields import FlowKey

__all__ = ["FlowTable"]


class FlowTable:
    """An ordered, priority-aware flow table.

    The table keeps rules sorted by (priority descending, insertion order
    ascending); :meth:`lookup` scans that order and returns the first match,
    which is the reference semantics every cached classifier in this library
    must agree with.

    Change notifications: components holding derived state (megaflow caches,
    compiled classifiers) can subscribe with :meth:`subscribe` and rebuild
    when rules change — this is how the simulated switch revalidates its
    caches when a tenant injects a new ACL mid-experiment (Fig. 8c).  The
    table never keeps a subscriber alive, so a dropped datapath and its
    caches are freed by reference counting.
    """

    def __init__(self, rules: list[FlowRule] | None = None, name: str = "flowtable"):
        self.name = name
        self._rules: list[FlowRule] = []
        self._sequence = 0
        self._ordered: list[tuple[int, int, FlowRule]] = []  # (-prio, seq, rule)
        self._subscribers: list[weakref.WeakMethod] = []
        self.version = 0
        for rule in rules or []:
            self.add(rule)

    # -- mutation ----------------------------------------------------------------
    def add(self, rule: FlowRule) -> None:
        """Insert a rule, keeping priority order."""
        if not isinstance(rule, FlowRule):
            raise RuleError(f"expected FlowRule, got {type(rule).__name__}")
        self._rules.append(rule)
        self._ordered.append((-rule.priority, self._sequence, rule))
        self._sequence += 1
        self._ordered.sort(key=lambda item: (item[0], item[1]))
        self._notify()

    def add_rule(
        self,
        match: Match,
        action: Action,
        priority: int = 0,
        name: str = "",
    ) -> FlowRule:
        """Convenience: build and insert a rule, returning it."""
        rule = FlowRule(match=match, action=action, priority=priority, name=name)
        self.add(rule)
        return rule

    def add_default_deny(self) -> FlowRule:
        """Append the lowest-priority match-all deny rule of the paper's ACLs."""
        return self.add_rule(Match.any(), DENY, priority=0, name="default-deny")

    def remove(self, rule: FlowRule) -> None:
        """Remove a previously added rule."""
        try:
            self._rules.remove(rule)
        except ValueError:
            raise RuleError(f"rule not in table: {rule!r}") from None
        self._ordered = [item for item in self._ordered if item[2] is not rule]
        self._notify()

    def clear(self) -> None:
        """Remove every rule."""
        self._rules.clear()
        self._ordered.clear()
        self._notify()

    def extend(self, rules: list[FlowRule]) -> None:
        """Insert several rules (single change notification)."""
        for rule in rules:
            if not isinstance(rule, FlowRule):
                raise RuleError(f"expected FlowRule, got {type(rule).__name__}")
            self._rules.append(rule)
            self._ordered.append((-rule.priority, self._sequence, rule))
            self._sequence += 1
        self._ordered.sort(key=lambda item: (item[0], item[1]))
        self._notify()

    def apply_delta(
        self, add: list[FlowRule] | tuple[FlowRule, ...] = (), remove: list[FlowRule] | tuple[FlowRule, ...] = ()
    ) -> None:
        """Apply a batch of removals and insertions as **one** change.

        This is the replica-synchronisation primitive of the parallel
        execution engine: a worker process holding a flow-table replica
        applies each delta message from the control plane with a single
        change notification, so its shards revalidate (flush) exactly once
        per original table change — the same cadence a serial shard sees.

        ``remove`` is matched by object identity (callers pass the table's
        own rule objects — the worker resolves delta rule-ids to its local
        objects first), so value-equal duplicate rules (e.g. two identical
        default-deny entries) can never desynchronise ``_rules`` from the
        lookup order.
        """
        for rule in remove:
            for index, existing in enumerate(self._rules):
                if existing is rule:
                    del self._rules[index]
                    break
            else:
                raise RuleError(f"rule not in table: {rule!r}")
            self._ordered = [item for item in self._ordered if item[2] is not rule]
        for rule in add:
            if not isinstance(rule, FlowRule):
                raise RuleError(f"expected FlowRule, got {type(rule).__name__}")
            self._rules.append(rule)
            self._ordered.append((-rule.priority, self._sequence, rule))
            self._sequence += 1
        if add:
            self._ordered.sort(key=lambda item: (item[0], item[1]))
        self._notify()

    def _notify(self) -> None:
        self.version += 1
        for ref in self._subscribers:
            callback = ref()
            if callback is not None:
                callback()

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a bound method fired after every rule change.

        The table holds it weakly: it fires after every change for as long
        as its object lives, and the subscription ends with that object.
        Anything but a bound method (a function, a lambda) has no owner to
        end it and raises :class:`~repro.exceptions.ClassifierError`.
        """
        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:
            raise ClassifierError(
                f"subscribe takes a bound method, got {type(callback).__name__}"
            ) from None
        self._subscribers = [old for old in self._subscribers if old() is not None]
        self._subscribers.append(ref)

    # -- queries -----------------------------------------------------------------
    def lookup(self, key: FlowKey) -> FlowRule | None:
        """The highest-priority rule matching ``key`` (reference semantics)."""
        for _nprio, _seq, rule in self._ordered:
            if rule.matches(key):
                return rule
        return None

    def classify(self, key: FlowKey) -> Action:
        """Like :meth:`lookup` but defaulting to DENY when nothing matches."""
        rule = self.lookup(key)
        return rule.action if rule is not None else DENY

    def rules_by_priority(self) -> list[FlowRule]:
        """Rules in lookup order (priority desc, insertion asc)."""
        return [rule for _nprio, _seq, rule in self._ordered]

    def __iter__(self) -> Iterator[FlowRule]:
        return iter(self.rules_by_priority())

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"FlowTable({self.name!r}, {len(self._rules)} rules)"

    def format_table(self) -> str:
        """Human-readable rendering in the style of the paper's Fig. 6."""
        lines = [f"FlowTable {self.name!r}:"]
        for rule in self.rules_by_priority():
            label = rule.name or "-"
            lines.append(f"  [prio={rule.priority:>4}] {label:<20} {rule.match!r} -> {rule.action}")
        return "\n".join(lines)
