"""Adapter exposing a megaflow-cached datapath through the classifier interface.

Used by the §7 comparison: the other classifiers are traffic-independent,
while a cached datapath's per-lookup cost (megaflow probe units, plus the
slow-path rule scan on misses) depends on what the traffic history did to
its cache.  For the TSS backend that cost explodes as attack traffic
detonates the tuple space; for the TupleChain-style grouped backend it
stays bounded — the ``comparison`` experiment shows exactly that contrast, by
running one adapter instance per megaflow backend.
"""

from __future__ import annotations

from repro.classifier.backend import MegaflowStore
from repro.classifier.base import ClassifierResult, PacketClassifier
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.packet.fields import FlowKey
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken

__all__ = ["TssCachedClassifier"]


class TssCachedClassifier(PacketClassifier):
    """A datapath-backed classifier (microflow + megaflow cache + slow path).

    Args:
        rules: the rule list (loaded into a private flow table).  The
            datapath runs without a microflow cache, so the comparison
            measures the megaflow lookup itself.
        backend: which megaflow cache backs the datapath — a backend name
            (``"tss"``, ``"tuplechain"``) or an injected pre-built
            :class:`~repro.classifier.backend.MegaflowStore` instance.
            The classifier's reported name becomes ``"<backend name>-cache"``.
    """

    name = "tss-cache"

    def __init__(self, rules: list[FlowRule], backend: str | MegaflowStore = "tss"):
        table = FlowTable(rules=list(rules), name="cache-adapter")
        if isinstance(backend, str):
            self.datapath = Datapath(table, DatapathConfig(microflow_capacity=0, megaflow_backend=backend))
        else:
            self.datapath = Datapath(table, DatapathConfig(microflow_capacity=0), megaflows=backend)
        self.name = f"{self.datapath.megaflows.name}-cache"
        self._clock = 0.0

    def classify(self, key: FlowKey) -> ClassifierResult:
        self._clock += 1e-6  # keep entry timestamps monotonic
        verdict = self.datapath.process(key, now=self._clock)
        cost = max(verdict.masks_inspected, 1)
        if verdict.path is PathTaken.SLOW_PATH:
            cost += verdict.rules_examined
        name = verdict.installed.source_rule if verdict.installed is not None else ""
        return ClassifierResult(action=verdict.action, cost=cost, rule_name=name)

    def memory_units(self) -> int:
        """Megaflow entries cached plus the backing rule list."""
        return self.datapath.n_megaflows + len(self.datapath.flow_table)

    def churn(self, seed: int = 0) -> None:
        """Randomise the mask scan order (steady-state model, see TSS)."""
        self.datapath.megaflows.shuffle_masks(seed)

    @property
    def n_masks(self) -> int:
        return self.datapath.n_masks
