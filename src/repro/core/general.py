"""General TSE: random adversarial traces against an *unknown* ACL (§6).

When the attacker has neither co-located resources nor knowledge of the
installed policies, she falls back to randomization: packets with uniformly
random values in the fields typical cloud ACLs match on (source IP, ports),
plus noise in unimportant fields to exhaust the microflow cache.  Each
random packet has some probability of landing on a yet-unspawned megaflow
entry (Eq. 1); :mod:`repro.core.analysis` predicts the expected mask count
(Eq. 2) that this module's traces realise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.tracegen import AdversarialTrace
from repro.exceptions import ExperimentError
from repro.packet.fields import FIELDS, FlowKey

__all__ = ["GeneralTraceGenerator"]


@dataclass
class GeneralTraceGenerator:
    """Uniformly random flow keys over a set of targeted fields.

    Attributes:
        fields: header fields to randomize (the use case's attacked
            fields, e.g. ``("ip_src", "tp_dst")`` for SipDp).
        base: fixed values for the remaining fields (destination address
            of the victim service, IP protocol, …).
        seed: RNG seed; traces are reproducible per seed.
    """

    fields: Sequence[str]
    base: Mapping[str, int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fields:
            raise ExperimentError("GeneralTraceGenerator needs at least one field")
        for name in self.fields:
            if name not in FIELDS:
                raise ExperimentError(f"unknown field {name!r}")
        overlap = set(self.fields) & set(self.base or {})
        if overlap:
            raise ExperimentError(f"fields {sorted(overlap)} are both randomized and fixed")
        self._rng = np.random.default_rng(self.seed)

    def _random_value(self, name: str) -> int:
        width = FIELDS[name].width
        value = 0
        remaining = width
        while remaining > 0:
            take = min(remaining, 32)
            value = (value << take) | int(self._rng.integers(0, 1 << take))
            remaining -= take
        return value

    def keys(self, n: int) -> Iterator[FlowKey]:
        """Yield ``n`` random flow keys (duplicates possible, as on the wire)."""
        if n < 0:
            raise ExperimentError(f"packet count must be >= 0, got {n}")
        base = dict(self.base or {})
        for _ in range(n):
            values = dict(base)
            for name in self.fields:
                values[name] = self._random_value(name)
            yield FlowKey(**values)

    def generate(self, n: int, use_case: str = "") -> AdversarialTrace:
        """A trace of ``n`` random packets (expected_masks left at 0 —
        use :func:`repro.core.analysis.expected_masks` for the analytic
        prediction)."""
        return AdversarialTrace(keys=list(self.keys(n)), expected_masks=0, use_case=use_case)
