"""The trace-construction oracles: the recursive enumerator and the per-call draw.

:class:`~repro.core.tracegen.ColocatedTraceGenerator` walks the decision
paths with per-field value/bits arrays and undo on backtrack, and
:class:`~repro.core.general.GeneralTraceGenerator` draws a burst's random
chunks in one columnar call.  This module keeps the literal spellings they
replaced, as the references the differential tests hold them against:

* :func:`colocated_keys` — the depth-first enumeration through nested
  generators over immutable partial assignments, deduplicated by a set of
  built keys;
* :class:`PerCallDraw` — one ``rng.integers(0, 1 << take)`` call per
  32-bit chunk of every randomized field of every key;
* :func:`bit_inversion_list` — the paper's single-header trace for one
  field, also used by tests as a source of keys that differ in one bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.packet.fields import FIELDS, FlowKey


def bit_inversion_list(value: int, width: int, mask: int | None = None) -> list[int]:
    """The paper's single-header trace: allowed value, then each bit flipped.

    ``[value, value ^ msb, value ^ next_bit, ...]`` over the bits of
    ``mask`` (the full field by default) — for the Fig. 1 ACL (value
    ``001`` on 3 bits) this is ``[001, 101, 011, 000]``.
    """
    if mask is None:
        mask = (1 << width) - 1
    values = [value]
    for position in range(width):
        bit = 1 << (width - 1 - position)
        if mask & bit:
            values.append(value ^ bit)
    return values


@dataclass(frozen=True)
class _Assignment:
    """Partial bit assignment along one decision path: field -> (value, bits)."""

    fields: tuple[tuple[str, int, int], ...] = ()

    def merge(self, name: str, value: int, bits: int) -> "_Assignment | None":
        """Merge a new constraint; None when contradictory."""
        merged: list[tuple[str, int, int]] = []
        done = False
        for fname, fvalue, fbits in self.fields:
            if fname != name:
                merged.append((fname, fvalue, fbits))
                continue
            common = fbits & bits
            if (fvalue & common) != (value & common):
                return None
            merged.append((fname, fvalue | (value & ~fbits), fbits | bits))
            done = True
        if not done:
            merged.append((name, value, bits))
        return _Assignment(tuple(merged))

    def to_key(self, base: Mapping[str, int]) -> FlowKey:
        values = dict(base)
        for name, value, _bits in self.fields:
            values[name] = value  # path bits dominate the base packet
        return FlowKey(**values)


def _paths(
    rules: list[FlowRule], index: int, assignment: _Assignment, include_allow_paths: bool
) -> Iterator[_Assignment]:
    """Depth-first enumeration of decision paths from rule ``index``."""
    if index >= len(rules):
        yield assignment  # fell off the table: the table-miss path
        return
    rule = rules[index]

    # Path A: this rule matches; lower-priority rules are shadowed.
    matched = assignment
    contradictory = False
    for fname, value, mask in rule.match.constraints():
        merged = matched.merge(fname, value, mask)
        if merged is None:
            contradictory = True
            break
        matched = merged
    if not contradictory:
        if include_allow_paths or rule.action.is_drop or index == len(rules) - 1:
            yield matched

    # Path B: mismatch at each constrained bit, MSB-first in canonical
    # field order; a clash with pinned bits retries with only the bits the
    # decision needs (agreement above the bit, difference at it).
    prefix = assignment
    for fname, value, mask in rule.match.constraints():
        width = FIELDS[fname].width
        for position in range(width):
            bit = 1 << (width - 1 - position)
            if not mask & bit:
                continue
            branched = prefix.merge(fname, value ^ bit, mask)
            if branched is None:
                above = mask & ~((bit << 1) - 1)
                branched = prefix.merge(
                    fname, (value & above) | ((value ^ bit) & bit), above | bit
                )
            if branched is not None:
                yield from _paths(rules, index + 1, branched, include_allow_paths)
        merged = prefix.merge(fname, value, mask)
        if merged is None:
            return  # the rule can never match along this path
        prefix = merged


def colocated_keys(
    table: FlowTable, base: Mapping[str, int] | None = None, include_allow_paths: bool = True
) -> list[FlowKey]:
    """The co-located trace's keys, in send order, by the recursive walk."""
    base = dict(base or {})
    seed = _Assignment()
    for name, value in base.items():
        seed = seed.merge(name, value, FIELDS[name].full_mask)
    keys: list[FlowKey] = []
    seen: set[FlowKey] = set()
    for assignment in _paths(table.rules_by_priority(), 0, seed, include_allow_paths):
        key = assignment.to_key(base)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


class PerCallDraw:
    """Random keys drawn one ``rng.integers`` call per 32-bit chunk.

    Same seed, fields and base as a
    :class:`~repro.core.general.GeneralTraceGenerator`; successive
    :meth:`keys` calls continue one stream, as the generator's do.
    """

    def __init__(self, fields: Sequence[str], base: Mapping[str, int] | None = None, seed: int = 0):
        self.fields = tuple(fields)
        self.base = dict(base or {})
        self._rng = np.random.default_rng(seed)

    def _random_value(self, name: str) -> int:
        width = FIELDS[name].width
        value = 0
        remaining = width
        while remaining > 0:
            take = min(remaining, 32)
            value = (value << take) | int(self._rng.integers(0, 1 << take))
            remaining -= take
        return value

    def keys(self, n: int) -> list[FlowKey]:
        keys = []
        for _ in range(n):
            values = dict(self.base)
            for name in self.fields:
                values[name] = self._random_value(name)
            keys.append(FlowKey(**values))
        return keys
