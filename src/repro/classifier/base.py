"""Common interface for the packet classifiers compared in §7.

Every classifier in this library — the TSS-cached datapath and the
"long-term mitigation" alternatives (hierarchical tries, HyperCuts, HaRP,
linear search) — implements :class:`PacketClassifier`: classify a flow key
and report how much work the lookup did, in classifier-specific *cost
units* (mask tables probed, trie nodes visited, tree depth plus bucket
scans, hash probes).  The ``comparison`` experiment tabulates those costs
under TSE attack traffic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.classifier.actions import Action
from repro.packet.fields import FlowKey

__all__ = ["ClassifierResult", "PacketClassifier"]


@dataclass(frozen=True)
class ClassifierResult:
    """Outcome of one classification.

    Attributes:
        action: the decision (DENY when nothing matched).
        cost: lookup work in the classifier's own units; comparable across
            packets for one classifier, not across classifiers.
        rule_name: name of the matched rule ("" on miss).
    """

    action: Action
    cost: int
    rule_name: str = ""


class PacketClassifier(abc.ABC):
    """Abstract classifier over an ordered rule list."""

    name: str = "classifier"

    @abc.abstractmethod
    def classify(self, key: FlowKey) -> ClassifierResult:
        """Classify ``key``, reporting the decision and the lookup cost."""

    @abc.abstractmethod
    def memory_units(self) -> int:
        """Rough structure size (nodes/entries) for space comparisons."""
