"""Cycle-accounting model: classification work → throughput and CPU load.

The simulator measures *work* (masks inspected, upcalls taken) exactly; this
module converts that work into the quantities the paper plots — victim Gbps,
flow completion time, and slow-path CPU% — using the calibrated curves of
:mod:`repro.switch.calibration`.

Unit convention: **1 unit = the cost of classifying one baseline packet at a
single-mask MFC** for the given profile.  The fast path has a budget of
one unit per baseline packet per second (``budget_units_per_sec``: that is
what makes the baseline rate the baseline); every packet then costs its
*relative cost* in units, so CPU
contention between victim and attack traffic falls out of simple unit
bookkeeping.

Scan-cost convention: the cost curves take the cache's **expected
full-scan cost in normalised probe units** (calibrated single-table
probes — :meth:`repro.classifier.backend.MegaflowStore.expected_scan_cost`).
The ``*_probes`` methods are the primary, backend-agnostic entry points;
the historical mask-count methods remain as the exact TSS special case
(probes ≡ masks, unit cost 1.0), which is what keeps every Table 1 /
Fig 8-9 preset byte-identical to the pre-probe-plane model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SwitchError
from repro.switch.calibration import CurveParams, fit_profile
from repro.switch.offload import GRO_OFF_TCP, NicProfile

__all__ = ["CostModel", "slow_path_cpu_pct"]


# The slow-path daemon's (``ovs-vswitchd``) CPU curve, Fig. 9c: the paper
# measures ~15% CPU for attack rates up to 1 kpps (revalidation and
# bookkeeping dominate), ~80% at 10 kpps, and saturation around 250%
# (multiple handler threads) — a clamped affine fit through those anchors.
SLOW_PATH_BASE_CPU_PCT = 15.0
SLOW_PATH_FREE_PPS = 1000.0
SLOW_PATH_PCT_PER_PPS = (80.0 - 15.0) / (10_000.0 - 1_000.0)
SLOW_PATH_MAX_CPU_PCT = 250.0


def slow_path_cpu_pct(upcall_pps: float) -> float:
    """Slow-path CPU percentage at ``upcall_pps`` packets/s of upcalls."""
    if upcall_pps < 0:
        raise SwitchError(f"upcall_pps must be >= 0, got {upcall_pps}")
    load = SLOW_PATH_BASE_CPU_PCT + SLOW_PATH_PCT_PER_PPS * max(0.0, upcall_pps - SLOW_PATH_FREE_PPS)
    return min(SLOW_PATH_MAX_CPU_PCT, load)


@dataclass(frozen=True)
class CostModel:
    """Throughput/CPU model for one switch deployment.

    Attributes:
        profile: NIC/driver profile (fit anchors + baseline rate).
        link_gbps: wire capacity in front of the switch; the victim can
            never exceed it even with CPU to spare (Fig. 8c's 1 Gbps virtio
            link is the binding constraint before the ACL is injected).
        upcall_units: slow-path cost of one upcall, in fast-path units.
            OVS upcalls cross into userspace and run the full ordered
            lookup — orders of magnitude above a fast-path probe.
        attack_cost_scale: ratio of an attack packet's classification cost
            to a victim *unit*'s.  1.0 when both are MTU frames; smaller
            when victim units are GRO-aggregated buffers (an MTU-sized
            attack packet costs a fraction of a 64 kB buffer's
            classify-and-copy — the Kubernetes/virtio testbed model).
        revalidate_units_per_entry: per-megaflow revalidation cost charged
            against the fast-path budget each sweep (dump + re-lookup).
    """

    profile: NicProfile = GRO_OFF_TCP
    link_gbps: float = 10.0
    upcall_units: float = 25.0
    attack_cost_scale: float = 1.0
    revalidate_units_per_entry: float = 5.0

    def __post_init__(self) -> None:
        if self.link_gbps <= 0:
            raise SwitchError("link_gbps must be positive")
        if self.upcall_units < 0:
            raise SwitchError("upcall_units must be >= 0")
        if self.attack_cost_scale <= 0:
            raise SwitchError("attack_cost_scale must be positive")
        if self.revalidate_units_per_entry < 0:
            raise SwitchError("revalidate_units_per_entry must be >= 0")

    # -- derived constants -------------------------------------------------------
    @property
    def params(self) -> CurveParams:
        """The calibrated cost curve of the profile."""
        return fit_profile(self.profile)

    @property
    def baseline_gbps(self) -> float:
        """CPU-side classification capacity (Gbps at one mask): the
        profile's baseline (every testbed is CPU-bound)."""
        return self.profile.baseline_gbps

    @property
    def budget_units_per_sec(self) -> float:
        """Fast-path budget of **one PMD core**: units available per second.

        Every PMD thread owns one dedicated core with this same cycle
        budget; a multi-queue host's aggregate capacity is ``n_cores``
        times it.  (The single-PMD testbeds of the paper are the
        ``n_cores=1`` case, where the two coincide.)
        """
        return self.baseline_gbps * 1e9 / 8.0 / self.profile.unit_bytes

    @property
    def unit_bits(self) -> float:
        """Bits moved per classified unit (MTU frame or GRO buffer)."""
        return self.profile.unit_bytes * 8.0

    # -- per-packet costs ----------------------------------------------------------
    def victim_cost_units_probes(self, scan_cost: float) -> float:
        """Average per-unit cost of an *established* victim flow.

        ``scan_cost`` is the victim's cache's expected full-scan cost in
        normalised probe units (the backend's ``expected_scan_cost()``).
        The calibrated relative-cost curve already embeds the victim's
        average hit position in the scan (≈ half way, which is why the
        paper sees flow completion time grow "half as high" as the mask
        count) and the microflow-thrash step.
        """
        return self.params.relative_cost(scan_cost)

    def attack_units_batch(self, probe_costs: Sequence[float], upcall_count: int) -> float:
        """Total attack cost of one batch, charged in one call.

        ``probe_costs`` carries the full-scan probe cost each packet's
        shard reported before the packet ran (costs grow mid-batch as
        upcalls install masks); within a batch only a handful of distinct
        values occur, so the calibrated curve is evaluated once per
        distinct value instead of once per packet.  Raw TSS mask counts
        are valid input — the probes ≡ masks special case.
        """
        if upcall_count < 0:
            raise SwitchError(f"upcall_count must be >= 0, got {upcall_count}")
        params = self.params
        per_cost: dict[float, float] = {}
        total = 0.0
        for scan_cost in probe_costs:
            scan_cost = max(scan_cost, 1)
            cost = per_cost.get(scan_cost)
            if cost is None:
                cost = self.attack_cost_scale * params.relative_cost(scan_cost)
                per_cost[scan_cost] = cost
            total += cost
        return total + upcall_count * self.upcall_units

    def revalidation_units_per_sec(self, n_entries: int, period: float) -> float:
        """Fast-path budget burned by revalidating ``n_entries`` per sweep."""
        if period <= 0:
            raise SwitchError("period must be positive")
        return n_entries * self.revalidate_units_per_entry / period

    # -- throughput ---------------------------------------------------------------
    def victim_gbps(self, masks: int) -> float:
        """Victim throughput at ``masks`` (probes ≡ masks), clamped by the wire.

        The whole budget goes to the victim at its per-unit cost: the
        attack's contention for it is priced by settlement
        (:mod:`repro.netsim.settlement`), not here.
        """
        units_per_sec = self.budget_units_per_sec / self.victim_cost_units_probes(masks)
        return min(self.link_gbps, units_per_sec * self.unit_bits / 1e9)

    def victim_fraction(self, masks: int) -> float:
        """Fraction of baseline throughput (no attack CPU contention)."""
        return self.params.fraction(masks)

    def flow_completion_seconds(self, gigabytes: float, masks: int) -> float:
        """Time to move ``gigabytes`` of victim data at ``masks`` masks.

        Reproduces the secondary axis of Fig. 9a (1 GB TCP, GRO OFF).
        """
        if gigabytes <= 0:
            raise SwitchError("gigabytes must be positive")
        gbps = self.victim_gbps(masks)
        if gbps <= 0:
            raise SwitchError("victim rate is zero; completion time undefined")
        return gigabytes * 8.0 / gbps
