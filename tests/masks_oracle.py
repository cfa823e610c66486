"""The expected-masks oracle: Eq. 2 over masks by explicit enumeration.

``repro.core.analysis.expected_masks`` groups the masks of the paper's ACL
family by (wildcarded bits, entry multiplicity) and sums a convolution over
that census (§11.3).  This module is what it is held against: a recursive
walk over every prefix-length combination, one mask at a time, with the
shared masks (deny with a full last prefix + the last rule's allow entry)
spawned at twice the probability.  Exact for this ACL family, and too slow
to be anything but a test oracle.
"""

from __future__ import annotations

from repro.core.analysis import AclSpec, _hit_probability


def expected_masks_enumerate(widths, n: int) -> float:
    """Expected distinct masks after ``n`` random packets, mask by mask."""
    widths = widths.widths if isinstance(widths, AclSpec) else tuple(widths)
    m = len(widths)

    def deny(index: int, log2p: float) -> float:
        if index == m:
            return _hit_probability(2.0**log2p, n)
        total = 0.0
        for length in range(1, widths[index] + 1):
            if index == m - 1 and length == widths[index]:
                total += _hit_probability(2.0 ** (log2p - length) * 2.0, n)
            else:
                total += deny(index + 1, log2p - length)
        return total

    def allow(rule_index: int, index: int, log2p: float) -> float:
        if index == rule_index:
            return _hit_probability(2.0 ** (log2p - widths[rule_index]), n)
        return sum(
            allow(rule_index, index + 1, log2p - length)
            for length in range(1, widths[index] + 1)
        )

    return deny(0, 0.0) + sum(allow(i, 0, 0.0) for i in range(m - 1))
