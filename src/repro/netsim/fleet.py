"""Fleet-scale cloud topology: racks of hypervisors, columnar tenants.

This is the layer that turns the single-host co-location model of
:mod:`repro.netsim.cloud` into a *cloud* result (ROADMAP item 1): a
multi-rack fleet of :class:`FleetHost` hypervisors, each carrying a whole
tenant population as **columns in per-host numpy arrays**
(:class:`TenantBlock`) rather than per-flow dataclass instances — a
million tenants is a few hundred megabytes of arrays, O(hosts) resident
objects, not a million ``VictimState``/``VictimFlow`` pairs.

Tenant populations are never materialised as lists: they **stream from
seeded generators** (:class:`TenantStream`, one
``np.random.SeedSequence([seed, rack, host])`` per host), so the same seed
reproduces the identical fleet — hosts, tenants, 5-tuples, home shards —
across constructions and Python versions (no dict/set iteration order
anywhere in the path; ``tests/test_fleet.py`` locks this).

Tenants are *analytic*: their traffic is not simulated packet-by-packet
and they hold no cache entries — each tenant's capacity is priced at its
home core's expected scan cost through the shared settlement kernel
(:mod:`repro.netsim.settlement`), one step beyond the keepalive hybrid the
single-host model uses (DESIGN substitution: what matters for the Fig. 8
story is the *pricing* of victim traffic under an exploded tuple space,
which the probe-unit cost plane provides without per-packet work).  The
attack side stays genuine: detonations inject real crafted packets through
each attacked host's datapath, so mask counts and probe costs are
measured, not assumed.

A :class:`Rack` is the simulation component: one ``tick`` runs every
member host's maintenance, then settles **all tenants of all its hosts in
a single array pass** — per-host core arrays are concatenated with core
offsets (cores are never shared between hosts, so the concatenated pass
is exactly the per-host passes run back to back; differential-tested).
Racks declare a ``period``, so the :class:`~repro.netsim.engine.Simulation`
scheduler settles a mostly-idle fleet at 1 s cadence while attack
sources on the few detonating hosts tick at 100 ms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterator, Sequence

import numpy as np

from repro.classifier.flowtable import FlowTable
from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator
from repro.exceptions import SimulationError
from repro.netsim import settlement
from repro.netsim.cloud import EnvironmentProfile
from repro.netsim.cms import PolicyRule
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.addresses import ipv4
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath
from repro.switch.rss import five_tuple_hash_columns
from repro.switch.sharded import ShardedDatapath

__all__ = [
    "TenantBlock",
    "TenantStream",
    "FleetHost",
    "Rack",
    "Fleet",
]

SERVICE_PORT = 5001  # every tenant fronts an iperf-like service port
OFFERED_RANGE = (0.02, 0.2)  # Gbps: each tenant's offered load is drawn uniformly from it


@dataclass
class TenantBlock:
    """One host's tenant population, as parallel columns.

    Position ``i`` across every array is one tenant.  The 5-tuple columns
    exist so placement (RSS home shard) and identity are *derived* the
    same way a packet's would be.
    """

    ip_src: np.ndarray
    ip_dst: np.ndarray
    ip_proto: np.ndarray
    tp_src: np.ndarray
    tp_dst: np.ndarray
    home_shard: np.ndarray
    offered_gbps: np.ndarray
    protected: np.ndarray = dc_field(default=None)  # type: ignore[assignment]
    calm_since: np.ndarray = dc_field(default=None)  # type: ignore[assignment]
    assigned_gbps: np.ndarray = dc_field(default=None)  # type: ignore[assignment]
    rate_gbps: np.ndarray = dc_field(default=None)  # type: ignore[assignment]
    floor_gbps: np.ndarray = dc_field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        n = len(self.ip_src)
        if self.protected is None:
            self.protected = np.zeros(n, dtype=bool)
        if self.calm_since is None:
            self.calm_since = np.full(n, np.nan, dtype=np.float64)
        if self.assigned_gbps is None:
            self.assigned_gbps = np.zeros(n, dtype=np.float64)
        if self.rate_gbps is None:
            self.rate_gbps = np.zeros(n, dtype=np.float64)
        if self.floor_gbps is None:
            self.floor_gbps = np.full(n, np.inf, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ip_src)


class TenantStream:
    """Seeded generator of one host's tenant columns.

    The stream is addressed, not ordered: host ``(rack, host)`` of a fleet
    seeded ``seed`` always draws from
    ``np.random.SeedSequence([seed, rack, host])`` regardless of
    construction order, so fleets can be built lazily, in parallel, or
    twice — the columns are identical (SeedSequence hashing is specified,
    stable across platforms and Python versions).

    Args:
        seed: the fleet seed.
        rack_index / host_index: the host's address in the fleet.
        n_tenants: population size; service IPs are carved from
            ``Fleet.SUBNET``, offered loads drawn uniformly from
            ``OFFERED_RANGE``.
        n_shards: PMD queue count of the host (RSS placement modulus).
    """

    def __init__(
        self,
        seed: int,
        rack_index: int,
        host_index: int,
        n_tenants: int,
        n_shards: int = 1,
    ):
        if n_tenants < 1:
            raise SimulationError(f"n_tenants must be >= 1, got {n_tenants}")
        self.seed = seed
        self.rack_index = rack_index
        self.host_index = host_index
        self.n_tenants = n_tenants
        self.n_shards = n_shards

    def build(self) -> TenantBlock:
        """Draw the host's tenant columns (same seed → same columns)."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, self.rack_index, self.host_index])
        )
        n = self.n_tenants
        # Remote endpoints are arbitrary internet hosts; service IPs are
        # one per tenant inside the host's /16-ish slice of the subnet.
        ip_src = rng.integers(0x0B000000, 0xDF000000, size=n, dtype=np.int64)
        host_base = (
            Fleet.SUBNET
            + ((self.rack_index & 0xFF) << 24)
            + ((self.host_index & 0xFFF) << 12)
        ) & 0xFFFFFFFF
        ip_dst = (host_base + np.arange(n, dtype=np.int64)) & 0xFFFFFFFF
        columns = {
            "ip_src": ip_src,
            "ip_dst": ip_dst,
            "ip_proto": np.full(n, PROTO_TCP, dtype=np.int64),
            "tp_src": rng.integers(1024, 65536, size=n, dtype=np.int64),
            "tp_dst": np.full(n, SERVICE_PORT, dtype=np.int64),
        }
        if self.n_shards > 1:
            home = (
                five_tuple_hash_columns(columns) % np.uint64(self.n_shards)
            ).astype(np.intp)
        else:
            home = np.zeros(n, dtype=np.intp)
        lo, hi = OFFERED_RANGE
        return TenantBlock(
            home_shard=home,
            offered_gbps=rng.uniform(lo, hi, size=n),
            **columns,
        )


class FleetHost(HypervisorHost):
    """One fleet hypervisor: a datapath plus a columnar tenant population.

    A :class:`~repro.netsim.hypervisor.HypervisorHost` whose victims are a
    :class:`TenantBlock` instead of registered ``VictimState`` instances.
    Standalone it still works like any host (``tick`` settles its own
    tenants); inside a :class:`Rack` the rack drives the phases so all
    member hosts settle in one array pass.
    """

    def __init__(
        self,
        name: str,
        environment: EnvironmentProfile,
        tenants: TenantBlock,
        attacker_ip: int,
        period: float = 1.0,
    ):
        self.name = name
        self.environment = environment
        self.flow_table = FlowTable(name=f"{name}-acl")
        if environment.n_pmd > 1:
            datapath: Datapath | ShardedDatapath = ShardedDatapath(
                self.flow_table, environment.datapath, n_shards=environment.n_pmd
            )
        else:
            datapath = Datapath(self.flow_table, environment.datapath)
        super().__init__(datapath, environment.cost_model, quirks=environment.quirks)
        self.tenants = tenants
        self.attacker_ip = attacker_ip
        self.period = period
        self._priority = itertools.count(1000, -1)

    def close(self) -> None:
        """Release the datapath's execution resources (worker pools)."""
        self.datapath.close()

    # -- attacker wiring -------------------------------------------------------
    def detonation_trace(
        self, rules: Sequence[PolicyRule], label: str = "tse"
    ) -> AdversarialTrace:
        """Install an attacker ACL on this host and craft its co-located trace.

        The fleet analogue of ``Fig7Testbed.attack_trace``: the rules are
        compiled through the environment's CMS scoped to this host's
        attacker VM IP, a default deny is appended, and the adversarial
        trace is enumerated from the *installed* table — so each attacked
        host detonates genuine masks through its own datapath.
        """
        compiled = [
            self.environment.cms.compile_rule(
                rule,
                vm_ip=self.attacker_ip,
                priority=next(self._priority),
                name=f"{self.name}-acl-a-r{index}",
            )
            for index, rule in enumerate(rules, start=1)
        ]
        self.flow_table.extend(compiled)
        for existing in self.flow_table:
            if existing.match.is_catchall and existing.action.is_drop:
                break
        else:
            self.flow_table.add_default_deny()
        generator = ColocatedTraceGenerator(
            self.flow_table,
            base={"ip_dst": self.attacker_ip, "ip_proto": PROTO_TCP},
        )
        return generator.generate(use_case=label)

    # -- settlement ------------------------------------------------------------
    def tick(self, now: float, dt: float) -> None:
        """Standalone operation: maintenance + one-host tenant settlement."""
        reports, available = self._pre_settle(now, dt)
        self._settle_victims(now, reports, available)
        _settle_tenants(now, [(self, reports, available)])
        self._post_settle(dt)


def _settle_tenants(now: float, staged) -> None:
    """Price every tenant of every staged ``(host, reports, available)``.

    One :func:`repro.netsim.settlement.settle` pass over one population
    per host — a rack's hosts, or a standalone host alone; all hosts of a
    pass run the same environment.
    """
    populations = []
    for host, reports, available in staged:
        block = host.tenants
        n_masks = np.asarray([report.n_masks for report in reports], dtype=np.int64)
        populations.append(
            settlement.Population(
                reports=reports,
                available=available,
                pair_victim=np.arange(len(block), dtype=np.intp),
                pair_core=block.home_shard,
                masks=np.maximum(n_masks[block.home_shard], 1),
                calm_since=block.calm_since,
                protected=block.protected,
                link_gbps=host.cost_model.link_gbps,
            )
        )
    host0 = staged[0][0]
    assigned = settlement.settle(now, populations, host0.cost_model, host0.quirks)
    for (host, _, _), rates in zip(staged, assigned):
        block = host.tenants
        block.assigned_gbps[:] = rates
        np.minimum(block.offered_gbps, block.assigned_gbps, out=block.rate_gbps)


class Rack:
    """A rack of fleet hosts, settled together as one simulation component.

    ``tick`` runs each member host's maintenance (``_pre_settle``), then
    prices **every tenant of every member host in a single
    :func:`repro.netsim.settlement.settle` pass** — one population per
    host; a standalone :meth:`FleetHost.tick` is the same pass over one.
    Cores are never shared between hosts, so the concatenated pass
    computes exactly what the per-host passes would — it just amortises
    the numpy dispatch over the whole rack.
    """

    def __init__(self, name: str, hosts: Sequence[FleetHost], period: float = 1.0):
        if not hosts:
            raise SimulationError(f"rack {name!r} has no hosts")
        self.name = name
        self.hosts = list(hosts)
        self.period = period
        self.recording = False

    def tick(self, now: float, dt: float) -> None:
        staged = []
        for host in self.hosts:
            reports, available = host._pre_settle(now, dt)
            host._settle_victims(now, reports, available)
            staged.append((host, reports, available))
        _settle_tenants(now, staged)
        for host, _, _ in staged:
            if self.recording:
                block = host.tenants
                np.minimum(block.floor_gbps, block.rate_gbps, out=block.floor_gbps)
            host._post_settle(dt)


class Fleet:
    """A multi-rack fleet of hypervisors with streamed tenant populations.

    Args:
        environment: the Table 1 environment every host runs.
        n_racks / hosts_per_rack / tenants_per_host: fleet shape.
        seed: fleet seed (same seed → identical fleet, see
            :class:`TenantStream`).
        rack_period: settlement cadence (seconds) racks declare for the
            scheduler.
    """

    SUBNET = ipv4("10.64.0.0")

    def __init__(
        self,
        environment: EnvironmentProfile,
        n_racks: int = 2,
        hosts_per_rack: int = 8,
        tenants_per_host: int = 256,
        seed: int = 0,
        rack_period: float = 1.0,
    ):
        if n_racks < 1 or hosts_per_rack < 1:
            raise SimulationError("fleet needs at least one rack and one host")
        self.environment = environment
        self.seed = seed
        self.racks: list[Rack] = []
        for r in range(n_racks):
            hosts = []
            for h in range(hosts_per_rack):
                block = TenantStream(
                    seed,
                    r,
                    h,
                    tenants_per_host,
                    n_shards=environment.n_pmd,
                ).build()
                # One attacker VM slot per host, outside the tenant IP slice.
                attacker_ip = (self.SUBNET - 0x10000 + r * hosts_per_rack + h) & 0xFFFFFFFF
                hosts.append(
                    FleetHost(
                        f"r{r}h{h}",
                        environment,
                        block,
                        attacker_ip=attacker_ip,
                        period=rack_period,
                    )
                )
            self.racks.append(Rack(f"rack{r}", hosts, period=rack_period))

    # -- wiring ----------------------------------------------------------------
    def register(self, simulation) -> None:
        """Add every rack to ``simulation`` (racks carry their period)."""
        for rack in self.racks:
            simulation.add(rack)

    def hosts(self) -> Iterator[FleetHost]:
        for rack in self.racks:
            yield from rack.hosts

    def host(self, rack_index: int, host_index: int) -> FleetHost:
        return self.racks[rack_index].hosts[host_index]

    def close(self) -> None:
        for host in self.hosts():
            host.close()

    # -- readouts --------------------------------------------------------------
    @property
    def tenant_count(self) -> int:
        return sum(len(host.tenants) for host in self.hosts())

    def rates(self) -> np.ndarray:
        """Every tenant's current achieved rate (Gbps), fleet-ordered."""
        return np.concatenate([host.tenants.rate_gbps for host in self.hosts()])

    def floors(self) -> np.ndarray:
        """Every tenant's recorded floor (Gbps), fleet-ordered."""
        return np.concatenate([host.tenants.floor_gbps for host in self.hosts()])

    def start_recording(self) -> None:
        """Reset floors and begin min-tracking achieved rates."""
        for rack in self.racks:
            rack.recording = True
            for host in rack.hosts:
                host.tenants.floor_gbps[:] = np.inf
