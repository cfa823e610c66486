"""Vectorised per-tick victim settlement — the fleet-scale pricing kernel.

This module is the one place victim capacity is priced.  It extracts the
per-victim accounting that used to live inline in
:meth:`repro.netsim.hypervisor.HypervisorHost.tick` — equal split of each
core's remaining budget across the active victims RSS pinned there, each
share priced at the owning core's expected scan cost in normalised probe
units, mask-memo protection mix applied, clamped by the victim's link
share — and states it once:

* :func:`settle` is the pass every settlement runs through: protection
  update, per-core pricing, rate assignment, over a list of staged
  :class:`Population` objects.  A host's registered victims, a standalone
  fleet host's tenants and a whole rack's tenants are the same call with
  one or many populations; the callers only marshal columns in and
  scatter the results out.
* :func:`settle_rates` is the numpy kernel underneath it: *all* victims
  of a pass are priced in one array pass (per-population core and victim
  columns concatenated with offsets — cores are never shared between
  populations, so the concatenated pass is exactly the per-population
  passes run back to back).

The original per-victim Python loops are the differential oracle and
live with the tests, in ``tests/settlement_oracle.py``: its fixture wraps
:func:`settle` and asserts the two are float-for-float identical on every
settlement call of a run, across environments, shard counts and victim
placements, which is what keeps every Table 1 / Fig 8-9 preset
byte-identical under the vectorised path.

The mask-memo protection state machine (:func:`update_protection`) judges
calm / attacked on *mask counts* (the kernel memo is per mask), never on
probe units.

Victim-core membership is expressed as flat pair columns
(``pair_victim[i]`` is priced on core ``pair_core[i]``); a victim spanning
several cores (forward + reverse keys hashed apart) contributes several
pairs and sums its per-core shares.  Summation runs through
``np.bincount``, which accumulates sequentially in pair order — the same
float addition order as the scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.hypervisor import QuirkConfig
    from repro.switch.costmodel import CostModel
    from repro.switch.datapath import CoreReport

__all__ = [
    "CoreCosts",
    "Population",
    "core_costs",
    "settle",
    "settle_rates",
    "update_protection",
]


@dataclass(frozen=True)
class CoreCosts:
    """Marshalled per-core pricing inputs for one settlement pass.

    One entry per PMD core; for a rack-wide pass, the per-host core arrays
    are concatenated and tenant pair columns carry per-host core offsets
    (cores are never shared between hosts, so the concatenated pass is
    exactly the per-host passes run back to back).

    Attributes:
        available: remaining fast-path budget (units/second) after attack
            and revalidation charges.
        scan_units: victim per-unit cost at the core's expected full-scan
            cost (the calibrated curve, evaluated once per core).
        protected_units: per-unit cost under the mask-memo protection mix
            (``(1-chi)*1 + chi*scan_units``).
        n_masks: installed distinct-mask count (drives the protection
            quirk, never pricing).
    """

    available: np.ndarray
    scan_units: np.ndarray
    protected_units: np.ndarray
    n_masks: np.ndarray


def core_costs(
    reports: "Sequence[CoreReport]",
    available: Sequence[float],
    cost_model: "CostModel",
    quirks: "QuirkConfig",
) -> CoreCosts:
    """Build the per-core pricing arrays from one tick's core reports.

    The calibrated relative-cost curve is evaluated once per core — the
    scalar reference evaluates it once per victim-core pair, with the same
    scan cost, so the values are identical floats; hoisting it is where
    the vectorised pass stops paying the curve per tenant.
    """
    n = len(reports)
    scan_units = np.empty(n, dtype=np.float64)
    protected_units = np.empty(n, dtype=np.float64)
    n_masks = np.empty(n, dtype=np.int64)
    chi = quirks.collision_rate
    for i, report in enumerate(reports):
        units = cost_model.victim_cost_units_probes(report.scan_cost)
        scan_units[i] = units
        protected_units[i] = (1.0 - chi) * 1.0 + chi * units
        n_masks[i] = report.n_masks
    return CoreCosts(
        available=np.asarray(available, dtype=np.float64),
        scan_units=scan_units,
        protected_units=protected_units,
        n_masks=n_masks,
    )


def settle_rates(
    core: CoreCosts,
    pair_victim: np.ndarray,
    pair_core: np.ndarray,
    protected: np.ndarray,
    n_victims: int,
    link_cap: float | np.ndarray,
    unit_bits: float,
) -> np.ndarray:
    """Price every victim in one array pass; returns assigned Gbps.

    Args:
        core: per-core pricing arrays (possibly rack-concatenated).
        pair_victim / pair_core: flat victim-core membership columns.
        protected: per-victim mask-memo protection flags.
        n_victims: number of (active) victims being settled.
        link_cap: per-victim wire-share clamp — a scalar for one host
            (``link_gbps / n_active``) or a per-victim array for a
            rack-wide pass over hosts with their own links.
        unit_bits: bits moved per classified unit.
    """
    victims_on_core = np.bincount(pair_core, minlength=len(core.available))
    share = core.available[pair_core] / victims_on_core[pair_core]
    cost = np.where(
        protected[pair_victim],
        core.protected_units[pair_core],
        core.scan_units[pair_core],
    )
    units_per_sec = np.bincount(
        pair_victim, weights=share / cost, minlength=n_victims
    )
    gbps = units_per_sec * unit_bits / 1e9
    return np.minimum(link_cap, gbps)


def update_protection(
    now: float,
    masks: np.ndarray,
    calm_since: np.ndarray,
    protected: np.ndarray,
    quirks: "QuirkConfig",
) -> None:
    """Vectorised mask-memo protection update (arrays mutated in place).

    ``masks`` is each victim's home-core mask count (max over its home
    shards, floored at 1); ``calm_since`` uses ``nan`` for "not calm".
    Exactly the scalar state machine, applied columnwise: a victim earns
    its memo after ``establish_seconds`` of continuous calm (mask count at
    or below the ceiling) and keeps it until the flow stops.
    """
    if not quirks.established_flow_protection:
        protected[:] = False
        return
    calm = masks <= quirks.establish_mask_ceiling
    newly_calm = calm & np.isnan(calm_since)
    calm_since[newly_calm] = now
    earned = calm & (now - calm_since >= quirks.establish_seconds)
    protected[earned] = True
    calm_since[~calm] = np.nan


@dataclass
class Population:
    """One host's victims (or tenants), staged for a :func:`settle` pass.

    Attributes:
        reports / available: the host's per-core snapshot and each core's
            remaining budget (units/second) for this tick.
        pair_victim / pair_core: flat victim-core membership columns,
            indexed locally (victim 0 .. n-1, core 0 .. len(reports)-1).
        masks: each victim's home-core mask count (max over its home
            cores, floored at 1).
        calm_since / protected: per-victim protection state, ``nan`` for
            "not calm" — updated in place by the pass.
        link_gbps: the host's wire, split equally across the population.
    """

    reports: "Sequence[CoreReport]"
    available: Sequence[float]
    pair_victim: np.ndarray
    pair_core: np.ndarray
    masks: np.ndarray
    calm_since: np.ndarray
    protected: np.ndarray
    link_gbps: float


def settle(
    now: float,
    populations: Sequence[Population],
    cost_model: "CostModel",
    quirks: "QuirkConfig",
) -> list[np.ndarray]:
    """The settlement pass: protection update, core pricing, rate assignment.

    Every population's ``calm_since`` / ``protected`` columns are updated
    in place; the return value is each population's assigned Gbps, in
    order.  All populations are priced by one :func:`settle_rates` call.
    """
    reports: list = []
    available: list[float] = []
    pair_victim, pair_core, protected, link_cap, bounds = [], [], [], [], []
    n_victims = 0
    for population in populations:
        n = len(population.protected)
        update_protection(
            now, population.masks, population.calm_since, population.protected, quirks
        )
        pair_victim.append(population.pair_victim + n_victims)
        pair_core.append(population.pair_core + len(reports))
        protected.append(population.protected)
        link_cap.append(np.full(n, population.link_gbps / n, dtype=np.float64))
        reports.extend(population.reports)
        available.extend(population.available)
        n_victims += n
        bounds.append(n_victims)
    assigned = settle_rates(
        core_costs(reports, available, cost_model, quirks),
        np.concatenate(pair_victim),
        np.concatenate(pair_core),
        np.concatenate(protected),
        n_victims,
        np.concatenate(link_cap),
        cost_model.unit_bits,
    )
    return np.split(assigned, bounds[:-1])
