"""Space–time trade-off calculators for Theorems 4.1 and 4.2.

Theorem 4.1: for an ACL with one exact-match allow rule on a ``w``-bit
field plus DefaultDeny, any TSS construction with lookup time ``O(k)``
(``k`` masks) needs ``Omega(k * 2^(w/k))`` space, ``1 <= k <= w``.

Theorem 4.2: with ``n`` single-field allow rules the bounds multiply per
field: time ``O(prod k_i)`` and space ``O(prod k_i * (2^(w_i/k_i) - 1))``.

This module evaluates the bounds, computes the *constructive* cost of the
chunked strategy of :mod:`repro.classifier.slowpath` (its masks and entry
counts in closed form), and verifies that construction meets the bound —
the ``theorem41`` / ``theorem42`` experiments sweep ``k`` to draw the
trade-off curves the theorems describe, and the tests check the
constructive numbers against a real cache populated by exhaustive traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ExperimentError

__all__ = [
    "TradeoffPoint",
    "chunk_sizes",
    "theorem41_bound",
    "constructive_cost_single",
    "theorem42_bound",
    "constructive_cost_multi",
]


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of a space–time trade-off curve.

    Attributes:
        k: masks (lookup time units).
        time: worst-case masks inspected per lookup.
        space: megaflow entries needed to cover the full header space.
    """

    k: int
    time: int
    space: int

    @property
    def product(self) -> int:
        """The time × space figure of merit."""
        return self.time * self.space


def chunk_sizes(width: int, k: int) -> list[int]:
    """Sizes of the ``k`` nearly-equal chunks a ``width``-bit field splits into."""
    if not 1 <= k <= width:
        raise ExperimentError(f"k={k} outside 1..{width}")
    base, extra = divmod(width, k)
    return [base + 1 if i < extra else base for i in range(k)]


def theorem41_bound(width: int, k: int) -> TradeoffPoint:
    """The Theorem 4.1 lower bound at ``k`` masks: space >= k·(2^(w/k) - 1).

    Computed with the real-valued exponent ``w/k`` (the geometric-mean
    argument of the proof), so constructions with integral chunk sizes sit
    on or above it.
    """
    if not 1 <= k <= width:
        raise ExperimentError(f"k={k} outside 1..{width}")
    space = k * (2.0 ** (width / k) - 1.0)
    return TradeoffPoint(k=k, time=k, space=int(space))


def constructive_cost_single(width: int, k: int) -> TradeoffPoint:
    """Masks/entries of the chunked strategy on a single exact-match rule.

    With chunk sizes ``b_1..b_k``: mask ``i`` handles "first mismatching
    chunk = i" with ``2^(b_i) - 1`` deny keys; the allow entry shares the
    ``k``-th mask.  Total: ``k`` masks, ``sum(2^b_i - 1) + 1`` entries —
    for even chunks exactly the ``k * (2^(w/k) - 1)`` of the bound.
    """
    sizes = chunk_sizes(width, k)
    entries = sum((1 << b) - 1 for b in sizes) + 1
    return TradeoffPoint(k=k, time=k, space=entries)


def theorem42_bound(widths: Sequence[int], ks: Sequence[int]) -> TradeoffPoint:
    """The Theorem 4.2 multi-field lower bound for per-field ``k_i``."""
    if len(widths) != len(ks):
        raise ExperimentError("widths and ks must have equal length")
    time = 1
    space = 1.0
    for width, k in zip(widths, ks):
        point = theorem41_bound(width, k)
        time *= point.time
        space *= k * (2.0 ** (width / k) - 1.0)
    return TradeoffPoint(k=time, time=time, space=int(space))


def constructive_cost_multi(widths: Sequence[int], ks: Sequence[int]) -> TradeoffPoint:
    """Masks/entries of the chunked strategy on the multi-field ACL family.

    Deny masks are the Cartesian product of per-field chunk choices
    (``prod k_i``); deny entries multiply the per-field per-chunk key
    counts.  Allow-rule masks/entries add the lower-order terms (the
    ``+1``-style corrections of §4.2).
    """
    if len(widths) != len(ks):
        raise ExperimentError("widths and ks must have equal length")
    m = len(widths)
    per_field_masks = list(ks)
    per_field_entries: list[int] = []
    for width, k in zip(widths, ks):
        sizes = chunk_sizes(width, k)
        per_field_entries.append(sum((1 << b) - 1 for b in sizes))

    time = 1
    for k in per_field_masks:
        time *= k

    # Deny entries: product over fields of per-field deny keys.
    space = 1
    for count in per_field_entries:
        space *= count

    # Allow entries via rule i: prefix fields mismatch (product of their
    # deny-key counts), field i exact (1 key), later fields wildcarded.
    masks = time
    prefix_masks = 1
    prefix_entries = 1
    for i in range(m):
        space += prefix_entries
        if i < m - 1:
            masks += prefix_masks
        prefix_masks *= per_field_masks[i]
        prefix_entries *= per_field_entries[i]
    return TradeoffPoint(k=masks, time=masks, space=space)

