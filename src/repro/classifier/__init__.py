"""Packet classification substrates: flow tables, megaflow backends, alternatives.

* **Megaflow backends** — subclasses of
  :class:`~repro.classifier.backend.MegaflowStore` that can serve as a
  datapath's level-3 cache (``DatapathConfig(megaflow_backend=...)``):
  ``"tss"`` (the paper's Tuple Space Search) and ``"tuplechain"``
  (grouped/chained lookup à la TupleChain, arXiv:2408.04390), built by
  name with :func:`make_megaflow_backend`.
* **§7 comparison classifiers** — :func:`section7_registry` maps the
  comparison lineup's names to factories over a rule list: one cached
  datapath per megaflow backend, plus the traffic-independent
  alternatives (linear search, hierarchical tries, HyperCuts, HaRP).
  :func:`section7_classifiers` builds the full lineup; the ``comparison``
  experiment and ``examples/classifier_comparison.py`` consume it.
"""

from typing import Callable

from repro.classifier.actions import ALLOW, DENY, Action, ActionKind
from repro.classifier.backend import (
    ENTRY_BYTES,
    MASK_BYTES,
    MegaflowEntry,
    MegaflowStore,
    TssLookupResult,
    make_megaflow_backend,
    megaflow_backend_names,
)
from repro.classifier.base import ClassifierResult, PacketClassifier
from repro.classifier.flowtable import FlowTable
from repro.classifier.harp import HarpClassifier
from repro.classifier.hypercuts import HyperCutsClassifier
from repro.classifier.linear import LinearSearchClassifier
from repro.classifier.trie import HierarchicalTrieClassifier, prefix_length
from repro.classifier.microflow import MicroflowCache
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import (
    EXACT_MATCH,
    OVS_DEFAULT,
    WILDCARDING,
    MegaflowGenerator,
    SlowPathResult,
    StrategyConfig,
)
from repro.classifier.tss import TupleSpaceSearch
from repro.classifier.tuplechain import TupleChainSearch

__all__ = [
    "Action",
    "ActionKind",
    "ALLOW",
    "DENY",
    "Match",
    "FlowRule",
    "FlowTable",
    "MegaflowStore",
    "TupleSpaceSearch",
    "TupleChainSearch",
    "MegaflowEntry",
    "TssLookupResult",
    "ENTRY_BYTES",
    "MASK_BYTES",
    "make_megaflow_backend",
    "megaflow_backend_names",
    "MicroflowCache",
    "MegaflowGenerator",
    "SlowPathResult",
    "StrategyConfig",
    "WILDCARDING",
    "EXACT_MATCH",
    "OVS_DEFAULT",
    "PacketClassifier",
    "ClassifierResult",
    "LinearSearchClassifier",
    "HierarchicalTrieClassifier",
    "HyperCutsClassifier",
    "HarpClassifier",
    "prefix_length",
    "section7_registry",
    "section7_classifiers",
]


def _cached(backend: str) -> Callable[[list], PacketClassifier]:
    def build(rules: list) -> PacketClassifier:
        # Imported lazily: the adapter pulls in the switch layer, which
        # imports back into this package at module-import time.
        from repro.classifier.adapter import TssCachedClassifier

        return TssCachedClassifier(rules, backend=backend)

    return build


def section7_registry() -> dict[str, Callable[[list], PacketClassifier]]:
    """The §7 comparison lineup: classifier name -> factory over a rule list.

    One ``"<backend>-cache"`` datapath per megaflow backend, then the
    traffic-independent long-term-mitigation alternatives.
    """
    lineup: dict[str, Callable[[list], PacketClassifier]] = {
        f"{name}-cache": _cached(name) for name in megaflow_backend_names()
    }
    lineup.update(
        {
            "linear": LinearSearchClassifier,
            "hierarchical-tries": HierarchicalTrieClassifier,
            "hypercuts": HyperCutsClassifier,
            "harp": HarpClassifier,
        }
    )
    return lineup


def section7_classifiers(rules: list) -> tuple[PacketClassifier, ...]:
    """Build the §7 comparison lineup over ``rules``."""
    return tuple(build(list(rules)) for build in section7_registry().values())
