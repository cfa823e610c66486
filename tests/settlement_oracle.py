"""The scalar settlement oracle: the original per-victim Python loops.

These mirror the historical ``HypervisorHost.tick`` accounting operation
for operation — per-pair curve evaluation included — and exist only so
the vectorised pass in :mod:`repro.netsim.settlement` can be
differential-tested against them.  :class:`SettlementOracle` rides along
a whole simulation: it wraps the single production entry point
(``settlement.settle``) and asserts vector ≡ scalar, float for float, on
every settlement call of the run (the ``settlement_oracle`` fixture in
``conftest.py`` installs it and fails a test that intercepted nothing).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.netsim import settlement


def settle_rates_scalar(
    scan_cost: Sequence[float],
    available: Sequence[float],
    pair_victim: Sequence[int],
    pair_core: Sequence[int],
    protected: Sequence[bool],
    n_victims: int,
    link_cap: float | Sequence[float],
    cost_model,
    quirks,
) -> list[float]:
    """The original per-victim settlement loop (differential reference)."""
    victims_on_core = [0] * len(available)
    for s in pair_core:
        victims_on_core[s] += 1
    caps = (
        [link_cap] * n_victims
        if isinstance(link_cap, (int, float))
        else list(link_cap)
    )
    chi = quirks.collision_rate
    units_per_sec = [0.0] * n_victims
    for v, s in zip(pair_victim, pair_core):
        share = available[s] / victims_on_core[s]
        scan_units = cost_model.victim_cost_units_probes(scan_cost[s])
        if protected[v]:
            cheap = 1.0
            cost = (1.0 - chi) * cheap + chi * scan_units
        else:
            cost = scan_units
        units_per_sec[v] += share / cost
    unit_bits = cost_model.unit_bits
    return [
        min(caps[v], units_per_sec[v] * unit_bits / 1e9)
        for v in range(n_victims)
    ]


def update_protection_scalar(
    now: float,
    masks: Sequence[int],
    calm_since: list[float],
    protected: list[bool],
    quirks,
) -> None:
    """The original per-victim protection state machine (reference).

    Operates on the same column convention as
    :func:`repro.netsim.settlement.update_protection` (``nan`` for "not
    calm") so the two can be differential-tested on identical inputs.
    """
    if not quirks.established_flow_protection:
        for v in range(len(protected)):
            protected[v] = False
        return
    for v, m in enumerate(masks):
        if m <= quirks.establish_mask_ceiling:
            if math.isnan(calm_since[v]):
                calm_since[v] = now
            if now - calm_since[v] >= quirks.establish_seconds:
                protected[v] = True
        else:
            calm_since[v] = float("nan")


def same_floats(a: Sequence[float], b: Sequence[float]) -> bool:
    """Elementwise float identity, with ``nan`` equal to ``nan``."""
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b)
    )


class SettlementOracle:
    """Wraps ``settlement.settle``; checks every call against the scalar loops."""

    def __init__(self) -> None:
        self.production = settlement.settle
        self.calls = 0
        self.victims = 0  # total victims priced across all calls
        self.spanning_pairs = 0  # victim-core pairs beyond one per victim
        self.widest_pass = 0  # most populations seen in one call

    def __call__(self, now, populations, cost_model, quirks):
        self.calls += 1
        self.widest_pass = max(self.widest_pass, len(populations))
        expected = []
        for population in populations:
            calm = population.calm_since.tolist()
            protected = population.protected.tolist()
            n = len(protected)
            update_protection_scalar(now, population.masks.tolist(), calm, protected, quirks)
            rates = settle_rates_scalar(
                [report.scan_cost for report in population.reports],
                list(population.available),
                population.pair_victim.tolist(),
                population.pair_core.tolist(),
                protected,
                n,
                population.link_gbps / n,
                cost_model,
                quirks,
            )
            expected.append((calm, protected, rates))
            self.victims += n
            self.spanning_pairs += len(population.pair_victim) - n
        assigned = self.production(now, populations, cost_model, quirks)
        assert len(assigned) == len(populations)
        for population, rates, (calm, protected, scalar) in zip(populations, assigned, expected):
            assert rates.tolist() == scalar
            assert population.protected.tolist() == protected
            assert same_floats(population.calm_since.tolist(), calm)
        return assigned


@contextmanager
def ride_along() -> Iterator[SettlementOracle]:
    """Install the oracle over ``settlement.settle`` for the block.

    Raises if the block made no settlement call: an oracle that wraps
    nothing has checked nothing.
    """
    oracle = SettlementOracle()
    settlement.settle = oracle
    try:
        yield oracle
    finally:
        settlement.settle = oracle.production
    if oracle.calls == 0:
        raise AssertionError("the settlement oracle intercepted no settle() call")
