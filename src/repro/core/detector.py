"""Detection of TSE attack patterns in a megaflow cache (Alg. 2, line 5).

MFCGuard's ``lookPatternInMFC(rule)`` needs to decide, per flow-table rule,
whether the cache contains the entry pattern a TSE attack would generate
(§4): families of *deny* megaflows whose masks un-wildcard strict MSB
prefixes of the bits the rule constrains — the staircase the bit-inversion
trace (or enough random traffic) carves into the tuple space.

The detector is deliberately conservative: an entry is only attributed to a
rule when every partially-constrained field in its mask is a strict prefix
of that rule's constrained bits, and the prefix *disproves* the rule (the
entry's key differs from the rule's value at the last prefix bit).  Benign
traffic — which matches allow rules — never produces such entries, which is
how MFCGuard honours requirement (i) of §8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifier.backend import MegaflowEntry, MegaflowStore
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.packet.fields import FIELD_ORDER, FIELDS

__all__ = [
    "TsePattern",
    "entry_matches_pattern",
    "find_tse_entries",
    "tse_mask_fraction",
    "tse_scan_cost_dilution",
]

_INDEX = {name: i for i, name in enumerate(FIELD_ORDER)}


@dataclass(frozen=True)
class TsePattern:
    """Summary of the TSE evidence found for one rule."""

    rule: FlowRule
    entries: tuple[MegaflowEntry, ...]

    @property
    def mask_count(self) -> int:
        return len({entry.mask for entry in self.entries})


def _is_strict_msb_prefix(partial: int, full: int, width: int) -> bool:
    """True when ``partial`` is a non-empty strict MSB prefix of ``full``."""
    if partial == 0 or partial == full:
        return False
    if partial & ~full:
        return False
    # A prefix of the constrained positions: the set bits of `partial` must
    # be the leading run of `full`'s set bits.
    remaining = full & ~partial
    if remaining == 0:
        return False
    lowest_partial = partial & -partial
    highest_remaining_pos = remaining.bit_length()
    return lowest_partial.bit_length() > highest_remaining_pos


def _first_diff_signature(entry_key: int, rule_value: int, prefix: int) -> bool:
    """Agree on the prefix above its last bit, differ exactly at it."""
    last_bit = prefix & -prefix
    above = prefix & ~last_bit
    agrees_above = (entry_key & above) == (rule_value & above)
    differs_at = (entry_key & last_bit) != (rule_value & last_bit)
    return agrees_above and differs_at


def entry_matches_pattern(entry: MegaflowEntry, rule: FlowRule) -> bool:
    """Would a TSE attack against ``rule`` generate ``entry``?

    Mimics the slow path's decision walk: the rule's constrained fields
    are examined in canonical order; fields before the rejection must be
    fully un-wildcarded *and agree* with the rule (they were passed), and
    the rejection field must carry the first-diff signature — an MSB
    prefix of the rule's bits whose last bit disagrees with the rule's
    value while everything above agrees.  Deny entries produced by benign
    traffic (which matches allow rules) never carry this signature.
    """
    if not entry.action.is_drop:
        return False
    for fname, rule_value, rule_mask in rule.match.constraints():
        idx = _INDEX[fname]
        entry_mask = entry.mask.values[idx]
        entry_key = entry.key[idx]
        width = FIELDS[fname].width
        overlap = entry_mask & rule_mask
        if overlap == rule_mask:
            if (entry_key & rule_mask) == rule_value:
                continue  # field passed; the rejection is further along
            # Fully un-wildcarded but disagreeing: TSE iff the entry
            # disproves the rule exactly at the last bit (prefix = width).
            return _first_diff_signature(entry_key, rule_value, rule_mask)
        if _is_strict_msb_prefix(overlap, rule_mask, width):
            return _first_diff_signature(entry_key, rule_value, overlap)
        return False  # partial non-prefix coverage: not a TSE shape
    return False  # every field agreed: the rule matches; not a rejection


def find_tse_entries(cache: MegaflowStore, table: FlowTable) -> list[TsePattern]:
    """Alg. 2's per-rule pattern scan over the whole cache."""
    patterns: list[TsePattern] = []
    entries = list(cache.entries())
    for rule in table.rules_by_priority():
        if rule.match.is_catchall:
            continue
        matched = tuple(e for e in entries if entry_matches_pattern(e, rule))
        if matched:
            patterns.append(TsePattern(rule=rule, entries=matched))
    return patterns


def tse_mask_fraction(cache: MegaflowStore, table: FlowTable) -> float:
    """Fraction of cache masks attributable to TSE patterns (a health metric).

    Masks are the *composition* metric (how much of the tuple space the
    attack carved), backend-independent by construction; what scanning
    that composition costs is :func:`tse_scan_cost_dilution`'s question.
    """
    n_masks = cache.n_masks
    if n_masks == 0:
        return 0.0
    suspicious: set = set()
    for pattern in find_tse_entries(cache, table):
        suspicious.update(entry.mask for entry in pattern.entries)
    return len(suspicious) / n_masks


def tse_scan_cost_dilution(cache: MegaflowStore, table: FlowTable) -> float:
    """How much TSE-attributed entries inflate the cache's scan cost (>= 1).

    The probe-native dilution ratio: the cache's structural full-scan cost
    divided by the structural cost of the same backend holding only the
    non-TSE entries.  For TSS this is the mask-count ratio (every mask is
    one probe), reproducing the old ``n_masks``-anchored dilution; for
    grouped backends it is computed in their own chain-probe currency and
    stays near 1 even when :func:`tse_mask_fraction` approaches 1 — the
    staircase shares chain steps, so the attack dilutes the *mask list*
    without diluting the *scan*.  That contrast is exactly what a
    chain-aware MFCGuard keys on.
    """
    patterns = find_tse_entries(cache, table)
    suspicious = {id(entry) for pattern in patterns for entry in pattern.entries}
    clean = type(cache)()
    for entry in cache.entries():
        if id(entry) not in suspicious:
            clean.insert(MegaflowEntry(mask=entry.mask, key=entry.key, action=entry.action))
    dirty_cost = cache.probe_unit_cost() * cache.structural_scan_cost()
    clean_cost = clean.probe_unit_cost() * clean.structural_scan_cost()
    return dirty_cost / clean_cost
