"""HyperCuts: a multi-dimensional decision-tree classifier (§7, [10]).

Each internal node cuts the search space along one or two dimensions into
equal-width intervals; rules are replicated into every child cell they
intersect; leaves hold small rule buckets scanned linearly.  Lookup walks
from the root computing the child cell from the packet's field values —
``O(depth + binth)`` work, independent of prior traffic, which is why the
paper lists HyperCuts among the classifiers "not vulnerable to the TSE
attack".

Rules must be prefix-compatible (each constrained field an MSB prefix), so
they map to axis-aligned ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifier.actions import DENY
from repro.classifier.base import ClassifierResult, PacketClassifier
from repro.classifier.rule import FlowRule
from repro.classifier.trie import prefix_length
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey

__all__ = ["HyperCutsClassifier"]

BINTH = 8  # maximum bucket size before a node is cut further
MAX_CUTS = 16  # maximum children per node


@dataclass(frozen=True)
class _RuleBox:
    """A rule as an axis-aligned box: per-dimension [lo, hi] ranges."""

    ranges: tuple[tuple[int, int], ...]
    order: tuple[int, int]  # (-priority, sequence)
    rule: FlowRule

    def intersects(self, region: tuple[tuple[int, int], ...]) -> bool:
        return all(lo <= rhi and hi >= rlo for (lo, hi), (rlo, rhi) in zip(self.ranges, region))

    def contains_point(self, point: tuple[int, ...]) -> bool:
        return all(lo <= v <= hi for (lo, hi), v in zip(self.ranges, point))


class _Node:
    __slots__ = ("dim", "n_cuts", "lo", "width_per_cut", "children", "bucket")

    def __init__(self) -> None:
        self.dim: int | None = None
        self.n_cuts = 0
        self.lo = 0
        self.width_per_cut = 0
        self.children: list["_Node | None"] = []
        self.bucket: list[_RuleBox] | None = None


class HyperCutsClassifier(PacketClassifier):
    """The HyperCuts decision tree.

    Args:
        rules: rule list (priority + insertion order honoured); the
            dimensions are the fields they constrain, in canonical order.
    """

    name = "hypercuts"

    def __init__(self, rules: list[FlowRule]):
        used = {f for rule in rules for f in rule.match.fields}
        self.fields = tuple(name for name in FIELD_ORDER if name in used)
        self._widths = [FIELDS[name].width for name in self.fields]
        boxes = [self._box(rule, seq) for seq, rule in enumerate(rules)]
        region = tuple((0, (1 << w) - 1) for w in self._widths)
        self._node_count = 0
        self._root = self._build(boxes, region, depth=0)

    def _box(self, rule: FlowRule, sequence: int) -> _RuleBox:
        ranges = []
        for name, width in zip(self.fields, self._widths):
            constraint = rule.match.constraint(name)
            if constraint is None:
                ranges.append((0, (1 << width) - 1))
            else:
                value, mask = constraint
                plen = prefix_length(mask, width)
                span = 1 << (width - plen)
                ranges.append((value, value + span - 1))
        return _RuleBox(ranges=tuple(ranges), order=(-rule.priority, sequence), rule=rule)

    # -- construction -----------------------------------------------------------
    def _build(
        self, boxes: list[_RuleBox], region: tuple[tuple[int, int], ...], depth: int
    ) -> _Node:
        node = _Node()
        self._node_count += 1
        if len(boxes) <= BINTH or depth >= 24 or not self.fields:
            node.bucket = sorted(boxes, key=lambda b: b.order)
            return node

        dim = self._pick_dimension(boxes, region)
        if dim is None:
            node.bucket = sorted(boxes, key=lambda b: b.order)
            return node

        lo, hi = region[dim]
        span = hi - lo + 1
        n_cuts = min(MAX_CUTS, span)
        # Round down to a power of two so child indexing is a shift.
        n_cuts = 1 << (n_cuts.bit_length() - 1)
        width_per_cut = span // n_cuts

        node.dim = dim
        node.n_cuts = n_cuts
        node.lo = lo
        node.width_per_cut = width_per_cut
        node.children = []
        progress = False
        for index in range(n_cuts):
            child_lo = lo + index * width_per_cut
            child_hi = child_lo + width_per_cut - 1
            child_region = tuple(
                (child_lo, child_hi) if d == dim else r for d, r in enumerate(region)
            )
            child_boxes = [box for box in boxes if box.intersects(child_region)]
            if len(child_boxes) < len(boxes):
                progress = True
            node.children.append((child_boxes, child_region))  # type: ignore[arg-type]
        if not progress:
            node.dim = None
            node.children = []
            node.bucket = sorted(boxes, key=lambda b: b.order)
            return node
        node.children = [
            self._build(child_boxes, child_region, depth + 1)
            for child_boxes, child_region in node.children  # type: ignore[misc]
        ]
        return node

    def _pick_dimension(
        self, boxes: list[_RuleBox], region: tuple[tuple[int, int], ...]
    ) -> int | None:
        """The dimension with the most distinct range projections."""
        best_dim: int | None = None
        best_distinct = 1
        for dim, (lo, hi) in enumerate(region):
            if hi == lo:
                continue
            distinct = len({box.ranges[dim] for box in boxes})
            if distinct > best_distinct:
                best_distinct = distinct
                best_dim = dim
        return best_dim

    # -- lookup ------------------------------------------------------------------
    def classify(self, key: FlowKey) -> ClassifierResult:
        point = tuple(key[name] for name in self.fields)
        node = self._root
        cost = 0
        while node.bucket is None:
            cost += 1
            index = (point[node.dim] - node.lo) // node.width_per_cut  # type: ignore[index]
            index = min(index, node.n_cuts - 1)
            node = node.children[index]  # type: ignore[assignment]
        best: _RuleBox | None = None
        for box in node.bucket:
            cost += 1
            if box.contains_point(point):
                best = box
                break  # bucket is priority-sorted
        if best is None:
            return ClassifierResult(action=DENY, cost=cost)
        return ClassifierResult(action=best.rule.action, cost=cost, rule_name=best.rule.name)

    def memory_units(self) -> int:
        """Tree nodes built (replication included via bucket sizes)."""
        return self._node_count
