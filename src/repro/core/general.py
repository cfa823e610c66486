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
from typing import Mapping, Sequence

import numpy as np

from repro.core.tracegen import AdversarialTrace
from repro.exceptions import ExperimentError
from repro.packet.fields import FIELD_ORDER, FIELDS, FlowKey

__all__ = ["GeneralTraceGenerator"]


@dataclass
class GeneralTraceGenerator:
    """Uniformly random flow keys over a set of targeted fields.

    Attributes:
        fields: header fields to randomize (the use case's attacked
            fields, e.g. ``("ip_src", "tp_dst")`` for SipDp).
        base: fixed values for the remaining fields (destination address
            of the victim service, IP protocol, …); an unknown field or a
            value that does not fit its width raises
            :class:`~repro.exceptions.FieldError` at construction.
        seed: RNG seed; traces are reproducible per seed.

    A field value is drawn MSB-first in chunks of up to 32 bits.  A
    ``take``-bit chunk is the top ``take`` bits of one uniform 32-bit
    word, which is exactly what ``Generator.integers(0, 1 << take)``
    returns from the one word it consumes, so :meth:`keys` draws every
    chunk of every key in one call and reproduces the one-call-per-chunk
    stream value for value.
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
        self._template = FlowKey(**(self.base or {})).values
        self._indexes = tuple(FIELD_ORDER.index(name) for name in self.fields)
        # Each randomized field's chunk widths, MSB first, and every
        # chunk's shift, in draw order.
        widths = [FIELDS[name].width for name in self.fields]
        self._chunks = [[min(32, width - offset) for offset in range(0, width, 32)] for width in widths]
        self._shifts = np.array([32 - take for chunks in self._chunks for take in chunks], dtype=np.int64)
        self._rng = np.random.default_rng(self.seed)

    def keys(self, n: int) -> list[FlowKey]:
        """``n`` random flow keys (duplicates possible, as on the wire)."""
        if n < 0:
            raise ExperimentError(f"packet count must be >= 0, got {n}")
        width = len(self._shifts)
        draws = self._rng.integers(0, 1 << 32, size=n * width).reshape(n, width)
        chunk_columns = iter((draws >> self._shifts).T.tolist())
        columns = []
        for chunks in self._chunks:
            column = next(chunk_columns)
            for take in chunks[1:]:
                column = [(high << take) | low for high, low in zip(column, next(chunk_columns))]
            columns.append(column)
        keys = []
        for row in zip(*columns):
            values = list(self._template)
            for index, value in zip(self._indexes, row):
                values[index] = value
            keys.append(FlowKey.from_values(tuple(values)))
        return keys

    def generate(self, n: int, use_case: str = "") -> AdversarialTrace:
        """A trace of ``n`` random packets (its ``expected_masks`` reads 0 —
        use :func:`repro.core.analysis.expected_masks` for the analytic
        prediction)."""
        return AdversarialTrace(keys=self.keys(n), use_case=use_case)
