"""Co-located TSE: adversarial packet traces against a *known* ACL (§5.1).

The generator walks the flow table's decision structure and emits, for every
reachable decision path, one flow key exercising it:

* **single header** — the paper's bit-inversion method: one packet matching
  the allow rule, then one per constrained bit with exactly that bit
  inverted (higher bits kept at the allowed value).  Against the Fig. 1
  ACL this yields HYP ∈ {001, 101, 011, 000} — precisely the four MFC
  entries / three masks of Fig. 3.
* **multiple headers** — the outer product of the per-rule inversion lists
  (§5.1 "Multiple Headers"), pruned so that combinations shadowed by a
  higher-priority match are emitted once.  Against Fig. 4 this yields the
  13 packets / 13 masks the paper computes (``3*4 + 1``).

The implementation handles the general ACL family (multi-field rules,
shared fields across rules) by tracking, per field, the bits each path has
pinned so far and skipping contradictory paths; for the paper's
disjoint-field family the enumeration is exact and minimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.classifier.slowpath import WILDCARDING, MegaflowGenerator
from repro.exceptions import ExperimentError
from repro.packet.builder import PacketBuilder
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey
from repro.packet.packet import Packet
from repro.packet.pcap import write_pcap

__all__ = ["AdversarialTrace", "ColocatedTraceGenerator"]

_INDEX = {name: i for i, name in enumerate(FIELD_ORDER)}


@dataclass
class AdversarialTrace:
    """A generated attack trace.

    Attributes:
        keys: adversarial flow keys, in send order.
        use_case: optional label for reports.
        rules: the crafted-against table's rules in lookup order, as they
            were when the trace was generated (empty for a random trace).

    ``expected_masks`` — the masks these keys spawn in a bit-wildcarding
    MFC, the co-located ceiling — is counted on first read, by one
    ``generate_batch`` pass over ``keys`` against ``rules``, and cached:
    a table mutated after generation does not change it.  A random trace
    reads 0 (:func:`repro.core.analysis.expected_masks` predicts its count).
    """

    keys: list[FlowKey]
    use_case: str = ""
    rules: tuple[FlowRule, ...] = field(default=(), repr=False)

    @cached_property
    def expected_masks(self) -> int:
        if not self.rules:
            return 0
        generator = MegaflowGenerator(FlowTable(list(self.rules)), WILDCARDING)
        return len({result.entry.mask for result in generator.generate_batch(self.keys)})

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[FlowKey]:
        return iter(self.keys)

    def packets(self) -> list[Packet]:
        """Materialize concrete packets (with microflow-thrashing noise)."""
        builder = PacketBuilder()
        return [builder.from_flow_key(key, noise=True) for key in self.keys]

    def to_pcap(self, path: str | Path, rate_pps: float = 1000.0) -> int:
        """Write the trace as a replayable pcap; returns the packet count."""
        return write_pcap(path, self.packets(), rate_pps=rate_pps)


class ColocatedTraceGenerator:
    """Generates the minimal adversarial trace for a known flow table.

    Args:
        table: the targeted ACL.
        base: field values applied to every packet (e.g. the destination
            address of the attacker's own co-located service, the IP
            protocol).  Fields the decision paths constrain override the
            base values.  Checked here: an unknown field or a value that
            does not fit its width raises :class:`~repro.exceptions.FieldError`.
        include_allow_paths: also emit packets for allow-rule decision
            paths that create no *new* masks (reproduces every entry of
            Fig. 5 instead of only every mask).
    """

    def __init__(
        self,
        table: FlowTable,
        base: Mapping[str, int] | None = None,
        include_allow_paths: bool = True,
    ):
        self.table = table
        self.base = dict(base or {})
        self._base_key = FlowKey(**self.base)
        self.include_allow_paths = include_allow_paths

    def generate(self, use_case: str = "") -> AdversarialTrace:
        """Enumerate decision paths and emit one flow key per path.

        Fields given in ``base`` are *pinned*: every attack packet carries
        them (they must reach the attacker's service), so decision paths
        requiring a different value there are unreachable and pruned.
        That is why tenant scoping (exact ``ip_dst``/``ip_proto`` on every
        rule) does not multiply masks: the attacker cannot vary those
        fields, and the slow path un-wildcards them identically everywhere.

        No key is classified here: the trace keeps a snapshot of the
        table's rules, and its ``expected_masks`` is counted against that
        snapshot when first read.

        The walk is depth-first over the rules in lookup order, keeping
        one value and one pinned-bits word per field and undoing each
        branch's merge on the way back.  At rule ``i`` a path either
        *matches* it (a key, unless it is an allow path and those are
        left out; lower rules are shadowed) or *mismatches* it at one
        constrained bit, examined in canonical field order, MSB-first —
        the slow path's order — and continues at rule ``i + 1``.  The
        mismatching key carries the rule's value with exactly that bit
        inverted, the paper's bit-inversion method: the first difference
        lands on that bit and the lower bits keep the allowed value (the
        Fig. 1 trace comes out literally as {001, 101, 011, 000}).  A
        path off the end of the table is a table-miss key.  A merge that
        contradicts bits already pinned prunes the path, except that an
        inverted value clashing with pinned bits (a base-pinned ``ip_dst``
        examined by another tenant's rule) retries pinning only what the
        decision needs: agreement above the bit and difference at it.
        Keys are deduplicated in first-reached order.
        """
        rules = self.table.rules_by_priority()
        if not rules:
            raise ExperimentError("cannot generate a trace for an empty flow table")
        program = []
        for index, rule in enumerate(rules):
            steps = []
            for name, value, mask in rule.match.constraints():
                width = FIELDS[name].width
                branches = []
                for position in range(width):
                    bit = 1 << (width - 1 - position)
                    if mask & bit:
                        above = mask & ~((bit << 1) - 1)
                        branches.append(
                            (value ^ bit, (value & above) | ((value ^ bit) & bit), above | bit)
                        )
                steps.append((_INDEX[name], value, mask, tuple(branches)))
            emit = self.include_allow_paths or rule.action.is_drop or index == len(rules) - 1
            program.append((emit, tuple(steps)))

        values = list(self._base_key.values)
        pinned = [0] * len(FIELD_ORDER)
        for name in self.base:
            pinned[_INDEX[name]] = FIELDS[name].full_mask
        found: dict[tuple[int, ...], None] = {}
        _walk(program, 0, values, pinned, found)
        return AdversarialTrace(
            keys=[FlowKey.from_values(key) for key in found],
            use_case=use_case,
            rules=tuple(rules),
        )


def _walk(program: list, index: int, values: list[int], pinned: list[int], found: dict) -> None:
    """Every decision path from rule ``index`` on, its keys added to ``found``.

    ``program[i]`` is rule ``i``'s ``(emit, steps)``: whether its match path
    is a key, and per constraint ``(field index, value, mask, branches)``
    with one ``(inverted value, retry value, retry bits)`` per constrained
    bit, MSB-first.  ``values`` / ``pinned`` hold the path's value and
    pinned bits per field; every merge is undone before returning.
    """
    if index == len(program):
        found[tuple(values)] = None  # fell off the table: a table miss
        return
    emit, steps = program[index]
    if emit:  # the rule matches: every constraint merges
        matched = values.copy()
        for field_index, value, mask, _branches in steps:
            have = pinned[field_index]
            if (matched[field_index] ^ value) & have & mask:
                break
            matched[field_index] |= value & ~have
        else:
            found[tuple(matched)] = None
    undo = []
    for field_index, value, mask, branches in steps:
        old_value, old_bits = values[field_index], pinned[field_index]
        for inverted, retry_value, retry_bits in branches:
            if not (old_value ^ inverted) & old_bits & mask:
                values[field_index] = old_value | (inverted & ~old_bits)
                pinned[field_index] = old_bits | mask
            elif not (old_value ^ retry_value) & old_bits & retry_bits:
                values[field_index] = old_value | (retry_value & ~old_bits)
                pinned[field_index] = old_bits | retry_bits
            else:
                continue
            _walk(program, index + 1, values, pinned, found)
        # To examine the next field, this whole field must have agreed.
        undo.append((field_index, old_value, old_bits))
        if (old_value ^ value) & old_bits & mask:
            break  # the rule can never match along this path
        values[field_index] = old_value | (value & ~old_bits)
        pinned[field_index] = old_bits | mask
    for field_index, old_value, old_bits in reversed(undo):
        values[field_index], pinned[field_index] = old_value, old_bits
