"""The hypervisor switch host: datapath + CPU accounting + victim rates.

This is the component that turns classification *work* into the throughput
time series of Fig. 8.  Each tick it:

1. receives the attack packets the sources injected (real classifications
   through the simulated datapath — megaflows and masks are genuine);
2. runs the revalidator (10 s idle eviction) and, optionally, MFCGuard;
3. converts the tick's work into CPU units **per PMD core**: attack
   fast-path cost, upcall cost and revalidation cost are charged to the
   shard whose queue carried them;
4. divides each core's remaining budget among the victim flows RSS pinned
   to that core, each paying its per-unit classification cost at *its
   core's* expected scan cost (the calibrated curve, or the cheap
   mask-memo path for protected established flows).

All work is priced in **normalised probe units** — the megaflow backend's
own currency (``expected_scan_cost()`` / per-packet ``probe_costs``), not
the mask count.  For TSS the two coincide exactly (probes ≡ masks), which
preserves every paper preset byte-for-byte; for sublinear backends
(tuplechain) the probe pricing is what makes the defense visible in the
Gbps/FCT time series instead of being charged as if every installed mask
were scanned.

On a single-PMD datapath (every paper testbed) there is one core and the
accounting reduces exactly to the original model; on a sharded datapath a
queue-concentrated attack burns only the targeted core's budget and
inflates only that core's mask scan — co-located victims on other cores
keep their throughput (arXiv:2011.09107's multi-queue observation).

The victim traffic itself is *not* simulated packet-by-packet (hundreds of
thousands of pps); a few keepalive packets per tick keep the victims' cache
entries genuine while their rate is computed analytically — the hybrid the
DESIGN.md substitution table documents.

The settlement arithmetic itself lives in :mod:`repro.netsim.settlement`:
``settle`` is the one pass shared with the fleet layer
(:mod:`repro.netsim.fleet`), pricing every victim of a host — or every
tenant of a rack — in one array pass; this module only marshals its
victims' state into columns and scatters the result back.  The original
scalar loop is the differential oracle in ``tests/settlement_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.decision import Decision
from repro.core.migration import MigrationController
from repro.core.mitigation import MFCGuard
from repro.core.rebalance import RebalanceController
from repro.exceptions import SimulationError
from repro.netsim import settlement
from repro.packet.fields import FlowKey
from repro.switch.costmodel import CostModel
from repro.switch.datapath import PacketVerdict, PathTaken
from repro.switch.revalidator import Revalidator
from repro.switch.sharded import AnyDatapath

__all__ = ["QuirkConfig", "VictimState", "HypervisorHost"]

_MASK_CACHE = PathTaken.MASK_CACHE
_SLOW_PATH = PathTaken.SLOW_PATH


@dataclass(frozen=True)
class QuirkConfig:
    """Environment-specific behavioural quirks.

    Attributes:
        established_flow_protection: model the kernel mask-memo effect that
            shields long-lived flows from the mask scan (the OpenStack
            §5.5 observation).  A flow is *protected* once it has been
            continuously active for ``establish_seconds`` while the mask
            count was at or below ``establish_mask_ceiling``.
        establish_seconds: how long a flow must run under a calm cache to
            earn its memo.
        establish_mask_ceiling: "calm" means at most this many masks.
        collision_rate: fraction of a protected flow's packets that still
            miss the memo (slot collisions with attack flows) and pay the
            full scan — produces the ~10%% dip on re-attack.
    """

    established_flow_protection: bool = False
    establish_seconds: float = 5.0
    establish_mask_ceiling: int = 32
    collision_rate: float = 0.005


@dataclass
class VictimState:
    """Bookkeeping for one victim flow attached to this host.

    ``home_shards`` is where RSS pins the flow's keys — stable for the
    flow's lifetime, so it is computed once at registration.  The victim
    only contends with work on those cores.
    """

    name: str
    keys: tuple[FlowKey, ...]
    home_shards: tuple[int, ...] = (0,)
    active: bool = False
    active_since: float | None = None
    calm_since: float | None = None
    protected: bool = False
    assigned_gbps: float = 0.0


class HypervisorHost:
    """One hypervisor's switch, shared by every co-located workload.

    Args:
        datapath: the simulated OVS datapath.
        cost_model: calibrated cost/throughput model for this environment.
        quirks: environment-specific behaviours.
        guard: optional MFCGuard instance (mitigation experiments).
        migrator: optional
            :class:`~repro.core.migration.MigrationController` — ticked in
            the maintenance cadence right after the guard, so live backend
            migration rides the same per-tick serialisation point as every
            other management sweep.
        rebalancer: optional
            :class:`~repro.core.rebalance.RebalanceController` — ticked
            after the migrator.  When a tick answers with a ``rekey`` or
            ``reta`` decision, every victim's
            ``home_shards`` is recomputed against the new dispatcher (the
            victim's flows genuinely moved cores, and settlement must
            charge the cores now carrying them).

    Attributes:
        decisions: the append-only log of every controller decision, in
            tick order — whatever each controller's ``tick`` returned
            (:class:`~repro.core.decision.Decision`).
    """

    def __init__(
        self,
        datapath: AnyDatapath,
        cost_model: CostModel,
        quirks: QuirkConfig | None = None,
        guard: MFCGuard | None = None,
        migrator: "MigrationController | None" = None,
        rebalancer: "RebalanceController | None" = None,
    ):
        self.datapath = datapath
        self.cost_model = cost_model
        self.quirks = quirks or QuirkConfig()
        self.guard = guard
        self.migrator = migrator
        self.rebalancer = rebalancer
        self.revalidator = Revalidator(datapath)
        self.victims: dict[str, VictimState] = {}
        self.decisions: list[Decision] = []
        self.n_cores = datapath.n_shards
        # Per-tick, per-core work accumulators (reset each tick).
        self._attack_units = [0.0] * self.n_cores
        self._upcalls = 0
        self._slow_path_packets = 0
        self._revalidated_entries = 0
        # Last-settled outputs, for observers.
        self.upcall_pps = 0.0
        self.cpu_load_fraction = 0.0
        self.per_core_load = [0.0] * self.n_cores

    # -- wiring ---------------------------------------------------------------
    def register_victim(self, name: str, keys: tuple[FlowKey, ...]) -> VictimState:
        """Attach a victim flow (its keepalive keys) to this host."""
        if name in self.victims:
            raise SimulationError(f"victim {name!r} already registered")
        home = tuple(sorted({self.datapath.shard_of(key) for key in keys})) or (0,)
        state = VictimState(name=name, keys=keys, home_shards=home)
        self.victims[name] = state
        return state

    # -- ingress from traffic sources ---------------------------------------------
    def inject_attack_batch(self, keys: Sequence[FlowKey], now: float) -> list[PacketVerdict]:
        """Classify one burst of attack packets; account the burst's cost.

        Equivalent to one one-packet call per key: the same verdicts, and
        each packet charged the same units — the expected scan cost *its
        core* reported before it ran (``probe_costs``/``shard_ids``), or
        one unit for a mask-cache hit.  Only the float association
        differs: a core's scanned packets are summed in one
        :meth:`CostModel.attack_units_batch` call before the sum joins
        its accumulator, so the totals match per-packet injection to
        rounding, not bit for bit.  The cost curve is evaluated per
        distinct probe cost, not per packet.
        """
        batch = self.datapath.process_batch(keys, now=now)
        shard_ids = getattr(batch, "shard_ids", None)
        if shard_ids is None or not shard_ids:
            shard_ids = (0,) * len(batch)
        scan_costs: dict[int, list[float]] = {}
        upcalls_by_shard: dict[int, int] = {}
        total_upcalls = 0
        for verdict, scan_cost, shard_id in zip(batch.verdicts, batch.probe_costs, shard_ids):
            path = verdict.path
            if path is _MASK_CACHE:
                self._attack_units[shard_id] += 1.0  # single-table probe
                continue
            costs = scan_costs.get(shard_id)
            if costs is None:
                costs = scan_costs[shard_id] = []
            costs.append(scan_cost)
            if path is _SLOW_PATH:
                upcalls_by_shard[shard_id] = upcalls_by_shard.get(shard_id, 0) + 1
                total_upcalls += 1
        for shard_id, costs in scan_costs.items():
            self._attack_units[shard_id] += self.cost_model.attack_units_batch(
                costs, upcalls_by_shard.get(shard_id, 0)
            )
        self._upcalls += total_upcalls
        self._slow_path_packets += total_upcalls
        return list(batch.verdicts)

    def keepalive(self, name: str, now: float) -> list[PacketVerdict]:
        """Send a victim's keepalive packets (keeps cache entries genuine)."""
        state = self._state(name)
        return list(self.datapath.process_batch(state.keys, now=now).verdicts)

    def victim_started(self, name: str, now: float) -> None:
        state = self._state(name)
        state.active = True
        state.active_since = now
        state.calm_since = None
        state.protected = False

    def victim_stopped(self, name: str) -> None:
        state = self._state(name)
        state.active = False
        state.active_since = None
        state.calm_since = None
        state.protected = False
        state.assigned_gbps = 0.0

    def _state(self, name: str) -> VictimState:
        try:
            return self.victims[name]
        except KeyError:
            raise SimulationError(f"unknown victim {name!r}") from None

    # -- the per-tick settlement -----------------------------------------------------
    def tick(self, now: float, dt: float) -> None:
        """Run maintenance, settle per-core CPU accounting, assign victim capacity."""
        snapshots, available = self._pre_settle(now, dt)
        self._settle_victims(now, snapshots, available)
        self._post_settle(dt)

    def _pre_settle(self, now: float, dt: float):
        """Maintenance + per-core budget accounting; returns (snapshots, available)."""
        evicted = self.revalidator.tick(now)
        self._revalidated_entries += len(evicted)
        if self.guard is not None:
            self.decisions.extend(self.guard.tick(now))
            # Traffic demoted to the slow path by the guard is observable
            # as this tick's suppressed-installs; feed the measured rate.
            self.guard.note_attack_rate(self._slow_path_packets / dt)
        if self.migrator is not None:
            self.decisions.extend(self.migrator.tick(now))
        if self.rebalancer is not None:
            decided = self.rebalancer.tick(now)
            self.decisions.extend(decided)
            if any(decision.action != "hold" for decision in decided):
                # The flows moved cores: re-pin every victim to where the
                # new dispatcher actually sends its keys.
                for state in self.victims.values():
                    state.home_shards = (
                        tuple(sorted({self.datapath.shard_of(key) for key in state.keys}))
                        or (0,)
                    )

        # One consolidated per-core snapshot (a single executor round trip
        # when the shards live in worker processes) prices the whole tick:
        # nothing below mutates the datapath, so reading n_masks /
        # n_megaflows / scan_cost together is exactly equivalent to the
        # attribute-by-attribute reads it replaces.
        snapshots = self.datapath.core_report()
        budget = self.cost_model.budget_units_per_sec  # per PMD core

        # Work burned by non-victim activity, per core (units/second).
        # Revalidation of a shard's flow dump stalls that shard's PMD.
        consumed = [
            self._attack_units[i] / dt
            + self.cost_model.revalidation_units_per_sec(
                snapshot.n_megaflows, self.revalidator.period
            )
            for i, snapshot in enumerate(snapshots)
        ]
        total_budget = budget * len(snapshots)
        self.cpu_load_fraction = (
            min(1.0, sum(consumed) / total_budget) if total_budget else 1.0
        )
        self.per_core_load = [
            min(1.0, c / budget) if budget else 1.0 for c in consumed
        ]
        available = [max(0.0, budget - c) for c in consumed]
        return snapshots, available

    def _settle_victims(self, now, snapshots, available) -> None:
        """Protection update + equal-split settlement for this host's victims.

        Victim protection state tracks the victim's own cores' mask load
        (the mask-memo quirk is a *mask-count* behaviour: the kernel memo
        is per mask, so calm/attacked is judged on masks, not probes).
        Then each core's remaining budget is split equally across the
        active victims RSS pinned there; a victim spanning several cores
        (e.g. forward + reverse keys hashed apart) sums its per-core
        shares, each priced at the *owning core's* expected scan cost in
        the backend's normalised probe units (≡ mask count for TSS).
        """
        active = [state for state in self.victims.values() if state.active]
        if not active:
            return
        pair_victim, pair_core = np.asarray(
            [(idx, s) for idx, state in enumerate(active) for s in state.home_shards],
            dtype=np.intp,
        ).T
        population = settlement.Population(
            reports=snapshots,
            available=available,
            pair_victim=pair_victim,
            pair_core=pair_core,
            masks=np.asarray(
                [
                    max(max(snapshots[s].n_masks for s in state.home_shards), 1)
                    for state in active
                ],
                dtype=np.int64,
            ),
            calm_since=np.asarray(
                [np.nan if state.calm_since is None else state.calm_since for state in active],
                dtype=np.float64,
            ),
            protected=np.asarray([state.protected for state in active], dtype=bool),
            link_gbps=self.cost_model.link_gbps,
        )
        (assigned,) = settlement.settle(now, [population], self.cost_model, self.quirks)
        for idx, state in enumerate(active):
            calm_since = population.calm_since[idx]
            state.protected = bool(population.protected[idx])
            state.calm_since = None if np.isnan(calm_since) else float(calm_since)
            state.assigned_gbps = float(assigned[idx])

    def _post_settle(self, dt: float) -> None:
        """Publish per-tick observables and reset the work accumulators."""
        self.upcall_pps = self._upcalls / dt
        self._attack_units = [0.0] * self.n_cores
        self._upcalls = 0
        self._slow_path_packets = 0

    # -- queries ---------------------------------------------------------------------
    def victim_rate(self, name: str) -> float:
        """The capacity (Gbps) assigned to a victim at the last settlement."""
        return self._state(name).assigned_gbps
