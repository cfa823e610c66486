"""Analytic model of the tuple space: Eq. 1, Eq. 2 and the §11.3 convolution.

The ACL family under analysis is the paper's: ``m`` allow rules, rule ``i``
exact-matching a distinct header field of width ``w_i`` (priority order
``w_1`` highest), in front of a DefaultDeny.  Under bit-level wildcarding
the megaflow cache contains:

* **deny entries** — one per prefix-length combination
  ``(l_1, …, l_m), 1 <= l_i <= w_i``: field ``i`` agrees with the allowed
  value on ``l_i - 1`` leading bits and differs at bit ``l_i``.  A random
  packet spawns that entry with probability ``prod(2^-l_i)``.
* **allow entries via rule i** — fields before ``i`` mismatch with some
  prefix pattern, field ``i`` matches exactly, later fields are
  wildcarded.

Eq. 1 of the paper gives the probability that at least one of ``n`` random
packets spawns an entry with ``k`` wildcarded bits; Eq. 2 sums over the
entry census ``C_k``.  This module computes the expected number of
distinct *entries* (Eq. 2 literally) and of distinct *masks* (what Fig. 9b
plots), the latter by a convolution over the wildcard census (§11.3).
The test suite holds that convolution against exact enumeration over
prefix combinations (``tests/masks_oracle.py``) and against Monte Carlo
simulation of the real cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ExperimentError

__all__ = [
    "AclSpec",
    "spawn_probability",
    "eq1_probability",
    "attainable_masks",
    "attainable_entries",
    "entry_census",
    "mask_census",
    "expected_entries",
    "expected_masks",
    "expected_masks_curve",
]


@dataclass(frozen=True)
class AclSpec:
    """The analysed ACL family: allow-rule field widths in priority order."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.widths:
            raise ExperimentError("AclSpec needs at least one field width")
        if any(w < 1 for w in self.widths):
            raise ExperimentError(f"field widths must be >= 1: {self.widths}")

    @property
    def total_bits(self) -> int:
        return sum(self.widths)


def _spec(widths: Sequence[int] | AclSpec) -> AclSpec:
    return widths if isinstance(widths, AclSpec) else AclSpec(tuple(widths))


def spawn_probability(wildcarded_bits: int, total_bits: int) -> float:
    """Per-packet probability of spawning one specific entry (p_k of §6.1).

    An entry with ``k`` wildcarded bits is matched by ``2^k`` of the
    ``2^h`` possible headers: ``p_k = 2^(k - h)``.
    """
    if not 0 <= wildcarded_bits <= total_bits:
        raise ExperimentError(f"wildcarded bits {wildcarded_bits} outside 0..{total_bits}")
    return 2.0 ** (wildcarded_bits - total_bits)


def _hit_probability(p: float, n: int) -> float:
    """1 - (1-p)^n, computed stably for tiny p."""
    if p >= 1.0:
        return 1.0
    return float(-np.expm1(n * np.log1p(-p)))


def eq1_probability(wildcarded_bits: int, total_bits: int, n: int) -> float:
    """Eq. 1: probability that >= 1 of ``n`` random packets spawns the entry."""
    if n < 0:
        raise ExperimentError(f"n must be >= 0, got {n}")
    return _hit_probability(spawn_probability(wildcarded_bits, total_bits), n)


# ---------------------------------------------------------------------------
# Structure of the attainable tuple space (co-located ceiling)
# ---------------------------------------------------------------------------

def attainable_masks(widths: Sequence[int] | AclSpec) -> int:
    """Maximum distinct masks the ACL admits (the co-located ceiling).

    ``prod(w_i)`` deny masks, plus the allow-via-rule-``i`` masks for
    ``i < m`` (``prod_{j<i} w_j`` each — rule ``m``'s allow masks coincide
    with deny masks whose last prefix is full).  For Fig. 6 this evaluates
    to ``16*32*16 + 1 + 16 = 8209``, the paper's "~8200"; for Fig. 4 to
    ``3*4 + 1 = 13``.
    """
    spec = _spec(widths)
    total = 1
    for width in spec.widths:
        total *= width
    prefix_product = 1
    for i in range(len(spec.widths) - 1):
        total += prefix_product
        prefix_product *= spec.widths[i]
    return total


def attainable_entries(widths: Sequence[int] | AclSpec) -> int:
    """Maximum megaflow entries (deny combinations + one allow per rule path)."""
    spec = _spec(widths)
    total = 1
    for width in spec.widths:
        total *= width
    prefix_product = 1
    for i in range(len(spec.widths)):
        total += prefix_product
        prefix_product *= spec.widths[i]
    return total


def _deny_wildcard_census(widths: Sequence[int]) -> dict[int, int]:
    """Count prefix-length combinations by total wildcarded bits (§11.3).

    The convolution ``f_i(k) = sum_j f_{i-1}(k - j)`` of the paper's
    appendix, expressed over wildcard counts ``w_i - l_i``.
    """
    census: dict[int, int] = {0: 1}
    for width in widths:
        updated: dict[int, int] = {}
        for k, count in census.items():
            for length in range(1, width + 1):
                kk = k + (width - length)
                updated[kk] = updated.get(kk, 0) + count
        census = updated
    return census


def entry_census(widths: Sequence[int] | AclSpec) -> dict[int, int]:
    """``C_k`` over *entries*: the census Eq. 2 sums over.

    Deny entries contribute one per prefix combination; every rule ``i``
    contributes its allow entries (one per prefix combination of the
    fields before it, all later fields wildcarded).
    """
    spec = _spec(widths)
    census = _deny_wildcard_census(spec.widths)
    for i in range(len(spec.widths)):
        tail_bits = sum(spec.widths[i + 1 :])
        for k, count in _deny_wildcard_census(spec.widths[:i]).items():
            kk = k + tail_bits
            census[kk] = census.get(kk, 0) + count
    return census


def mask_census(widths: Sequence[int] | AclSpec) -> dict[int, int]:
    """``C_k`` over distinct *masks* with ``k`` wildcarded bits.

    Like :func:`entry_census` but the allow masks of the last rule are not
    counted (they coincide with the full-last-prefix deny masks).
    """
    spec = _spec(widths)
    census = _deny_wildcard_census(spec.widths)
    for i in range(len(spec.widths) - 1):
        tail_bits = sum(spec.widths[i + 1 :])
        for k, count in _deny_wildcard_census(spec.widths[:i]).items():
            kk = k + tail_bits
            census[kk] = census.get(kk, 0) + count
    return census


# ---------------------------------------------------------------------------
# Expected entries / masks after n random packets (Eq. 2)
# ---------------------------------------------------------------------------

def expected_entries(widths: Sequence[int] | AclSpec, n: int) -> float:
    """Eq. 2 literally: expected spawned entries after ``n`` random packets."""
    spec = _spec(widths)
    if n < 0:
        raise ExperimentError(f"n must be >= 0, got {n}")
    total_bits = spec.total_bits
    return float(
        sum(count * eq1_probability(k, total_bits, n) for k, count in entry_census(spec).items())
    )


def expected_masks(widths: Sequence[int] | AclSpec, n: int) -> float:
    """Expected distinct MFC *masks* after ``n`` uniformly random packets.

    A mask is present when at least one of its entries has been spawned.
    Every mask has exactly one entry except the shared masks (deny with a
    full last prefix + the last rule's allow entry), which have two.  The
    masks are grouped by (wildcarded bits, entry multiplicity) via the
    §11.3 convolution, which is exact for this ACL family.

    Args:
        widths: the ACL spec (attacked-field widths, priority order).
        n: number of random packets.
    """
    spec = _spec(widths)
    if n < 0:
        raise ExperimentError(f"n must be >= 0, got {n}")
    total_bits = spec.total_bits
    widths = spec.widths
    m = len(widths)
    expected = 0.0

    # Deny masks, split by whether the last field's prefix is full (those
    # masks carry the extra allow-via-last-rule entry: double probability).
    head = _deny_wildcard_census(widths[:-1])
    w_last = widths[-1]
    for k_head, count in head.items():
        for length in range(1, w_last + 1):
            k = k_head + (w_last - length)
            p = spawn_probability(k, total_bits)
            if length == w_last:
                p *= 2.0  # deny entry + exact-match allow entry share the mask
            expected += count * _hit_probability(p, n)

    # Allow-via-rule-i masks for i < m (single entry each).
    for i in range(m - 1):
        tail_bits = sum(widths[i + 1 :])
        for k_head, count in _deny_wildcard_census(widths[:i]).items():
            k = k_head + tail_bits
            expected += count * eq1_probability(k, total_bits, n)
    return expected


def expected_masks_curve(
    widths: Sequence[int] | AclSpec, packet_counts: Sequence[int]
) -> list[float]:
    """Expected-mask values for a sweep of packet counts (Fig. 9b's E lines)."""
    return [expected_masks(widths, n) for n in packet_counts]
