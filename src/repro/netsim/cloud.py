"""The simulated datacenter of Fig. 7: servers, tenants, VMs, shared switches.

Each server runs one hypervisor switch (:class:`HypervisorHost`); all VMs
scheduled onto the server share its datapath — and therefore its megaflow
cache, which is the co-location premise of the attack: the attacker's ACL
and trace, aimed at the attacker's *own* VM, still explode the tuple space
every co-located tenant's traffic must scan.

Environment presets capture the three testbeds of Table 1 (synthetic,
OpenStack, Kubernetes) with their link speeds, calibrated cost curves, CMS
backends and behavioural quirks.

This module models a *single rack's worth* of explicitly-constructed
tenants.  For fleet-scale runs — hundreds of hosts, millions of tenants
streamed from seeded generators and settled columnarly — see
:mod:`repro.netsim.fleet`, which builds on the same environment presets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule
from repro.core.migration import MigrationController, MigrationPolicy
from repro.core.mitigation import MFCGuard
from repro.core.rebalance import RebalanceController, RebalancePolicy
from repro.exceptions import SimulationError
from repro.netsim.cms import BACKENDS, CmsBackend, PolicyRule
from repro.netsim.hypervisor import HypervisorHost, QuirkConfig
from repro.packet.addresses import ipv4
from repro.switch.costmodel import CostModel
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.offload import GRO_OFF_TCP, NicProfile, UDP_PROFILE
from repro.switch.sharded import ShardedDatapath

__all__ = [
    "EnvironmentProfile",
    "SYNTHETIC_ENV",
    "OPENSTACK_ENV",
    "KUBERNETES_ENV",
    "MULTIQUEUE_ENV",
    "ENVIRONMENTS",
    "VirtualMachine",
    "Tenant",
    "Server",
    "Datacenter",
]

# The Kubernetes testbed of Table 1: two laptops, virtio links at 1 Gbps.
# The victim's iperf TCP rides virtio's software GRO, so the fast-path
# *unit* is a 64 kB aggregated buffer and the mask-scan share of a unit's
# cost is moderate (copy costs dominate at low mask counts) — a much
# flatter curve than the Xeon testbed's.  Anchors read off Fig. 8c: the
# victim holds ~20-25% of the 1 Gbps link right after the ACL injection.
KUBERNETES_PROFILE = NicProfile(
    name="Kubernetes virtio (TCP)",
    baseline_gbps=1.4,
    unit_bytes=65536,
    anchors={1: 1.0, 2: 0.94, 1000: 0.55, 8209: 0.33},
)


@dataclass(frozen=True)
class EnvironmentProfile:
    """One testbed environment (a Table 1 column).

    Attributes:
        name: environment label.
        cost_model: calibrated throughput model (budgets are per PMD core).
        cms: the CMS backend mediating tenants' ACLs.
        quirks: behavioural quirks (mask-memo protection on OpenStack).
        datapath: datapath knobs (strategy, caches, timeouts, megaflow
            backend, shard executor, scan kernel; applied per shard when
            ``n_pmd > 1``).  The paper's testbeds all ran Tuple Space
            Search on one serial datapath thread, so no Table 1 preset
            changes those three; ``dataclasses.replace`` them (e.g.
            ``megaflow_backend="tuplechain"`` for the §7 grouped-lookup
            regime of the ``backendsweep`` experiment, ``executor="thread"``
            for concurrently executed shards) to study the other regimes.
        n_pmd: PMD cores / receive queues per hypervisor switch.  The
            paper's testbeds all ran a single datapath thread, so the
            Table 1 presets keep ``n_pmd=1``; raise it (or use
            ``MULTIQUEUE_ENV`` / ``dataclasses.replace``) to study the
            RSS-sharded regime of the feasibility follow-up
            (arXiv:2011.09107).
        migration_policy: optional
            :class:`~repro.core.migration.MigrationPolicy` — when set,
            every server built from this profile runs a
            :class:`~repro.core.migration.MigrationController` in its
            hypervisor's maintenance cadence (live backend migration).
            ``None`` (the default, and every Table 1 preset) builds no
            controller, keeping the paper presets byte-identical.
        rebalance_policy: optional
            :class:`~repro.core.rebalance.RebalancePolicy` — when set on a
            multi-PMD profile, every server runs a
            :class:`~repro.core.rebalance.RebalanceController` (live RSS
            re-keying against queue-concentrated attacks).  ``None`` (the
            default, and every Table 1 preset) builds no controller — and
            single-PMD profiles never do, since a 1-queue re-map is a
            no-op by construction.
        description: Table 1 provenance notes.
    """

    name: str
    cost_model: CostModel
    cms: CmsBackend
    quirks: QuirkConfig = dc_field(default_factory=QuirkConfig)
    datapath: DatapathConfig = dc_field(default_factory=DatapathConfig)
    n_pmd: int = 1
    migration_policy: MigrationPolicy | None = None
    rebalance_policy: "RebalancePolicy | None" = None
    description: str = ""


# n_pmd=1: the paper's SUT pinned OVS to a single datapath thread — the
# mask scan contends on one core, which is what Fig. 8a/9a measure.
SYNTHETIC_ENV = EnvironmentProfile(
    name="Synthetic",
    cost_model=CostModel(profile=GRO_OFF_TCP, link_gbps=10.0),
    cms=BACKENDS["calico"],  # flow table bootstrapped manually (§5.4)
    n_pmd=1,
    description="Xeon E5-2620 v3, Intel X710, OVS 2.9.2 — standalone SUT",
)

# n_pmd=1: the OpenStack testbed's kernel datapath has no PMD threads at
# all; its single-context softirq processing maps to one shard.
OPENSTACK_ENV = EnvironmentProfile(
    name="OpenStack",
    cost_model=CostModel(profile=UDP_PROFILE, link_gbps=10.0),
    cms=BACKENDS["openstack"],
    quirks=QuirkConfig(established_flow_protection=True),
    datapath=DatapathConfig(enable_mask_cache=True),
    n_pmd=1,
    description="OpenStack Queens + OVN, OVS 2.9.90 (unstable)",
)

# n_pmd=1: the two-laptop Kubernetes testbed rode a single virtio queue.
KUBERNETES_ENV = EnvironmentProfile(
    name="Kubernetes",
    cost_model=CostModel(
        profile=KUBERNETES_PROFILE,
        link_gbps=1.0,
        upcall_units=2.0,  # in 64 kB-buffer units
        attack_cost_scale=0.4,  # MTU attack packet vs a GRO buffer
        revalidate_units_per_entry=0.02,
    ),
    cms=BACKENDS["calico"],
    n_pmd=1,
    description="Kubernetes 1.7 + OVN, 2x i5-6300U, virtio 1 Gbps",
)

# The multi-queue deployment of the feasibility follow-up: the synthetic
# Xeon SUT with 4 PMD cores behind RSS.  Default for the ``pmdsweep``
# scenario's sharded rows.
MULTIQUEUE_ENV = EnvironmentProfile(
    name="Multiqueue",
    cost_model=CostModel(profile=GRO_OFF_TCP, link_gbps=10.0),
    cms=BACKENDS["calico"],
    n_pmd=4,
    description="Synthetic SUT with 4 RSS queues / PMD cores (arXiv:2011.09107)",
)

ENVIRONMENTS: dict[str, EnvironmentProfile] = {
    env.name: env
    for env in (SYNTHETIC_ENV, OPENSTACK_ENV, KUBERNETES_ENV, MULTIQUEUE_ENV)
}


@dataclass
class VirtualMachine:
    """A tenant workload placed on some server."""

    name: str
    ip: int
    tenant: str
    server: "Server | None" = None


@dataclass
class Tenant:
    """A cloud tenant: owns VMs and installs ACLs through the CMS."""

    name: str
    vms: list[VirtualMachine] = dc_field(default_factory=list)


class Server:
    """One physical server: a hypervisor switch shared by its VMs."""

    def __init__(
        self,
        name: str,
        environment: EnvironmentProfile,
        with_guard: bool = False,
    ):
        self.name = name
        self.environment = environment
        self.flow_table = FlowTable(name=f"{name}-acl")
        if environment.n_pmd > 1:
            self.datapath: Datapath | ShardedDatapath = ShardedDatapath(
                self.flow_table, environment.datapath, n_shards=environment.n_pmd
            )
        else:
            self.datapath = Datapath(self.flow_table, environment.datapath)
        guard = MFCGuard(self.datapath) if with_guard else None
        migrator = (
            MigrationController(
                self.datapath, environment.migration_policy, guard=guard
            )
            if environment.migration_policy is not None
            else None
        )
        rebalancer = (
            RebalanceController(self.datapath, environment.rebalance_policy)
            if environment.rebalance_policy is not None and environment.n_pmd > 1
            else None
        )
        self.host = HypervisorHost(
            datapath=self.datapath,
            cost_model=environment.cost_model,
            quirks=environment.quirks,
            guard=guard,
            migrator=migrator,
            rebalancer=rebalancer,
        )
        self.vms: list[VirtualMachine] = []
        self._priority = itertools.count(1000, -1)

    def close(self) -> None:
        """Release the datapath's execution resources (worker pools)."""
        self.datapath.close()

    def place(self, vm: VirtualMachine) -> None:
        vm.server = self
        self.vms.append(vm)

    def install_policy(self, vm: VirtualMachine, rules: list[PolicyRule], label: str = "") -> list[FlowRule]:
        """Compile and install a tenant policy for one of this server's VMs."""
        if vm.server is not self:
            raise SimulationError(f"{vm.name} is not scheduled on {self.name}")
        compiled = []
        for index, rule in enumerate(rules, start=1):
            name = f"{label or vm.name}-r{index}"
            compiled.append(
                self.environment.cms.compile_rule(
                    rule, vm_ip=vm.ip, priority=next(self._priority), name=name
                )
            )
        self.flow_table.extend(compiled)
        return compiled

    def ensure_default_deny(self) -> None:
        """Append the DefaultDeny if not already present."""
        for rule in self.flow_table:
            if rule.match.is_catchall and rule.action.is_drop:
                return
        self.flow_table.add_default_deny()


class Datacenter:
    """The Fig. 7 topology: servers, tenants, a scheduler.

    The layout is the paper's: two servers; the victim's frontend
    (V1) and the attacker's VM (A1) co-located on Server 1, the victim's
    backend (V2) and the attack generator on Server 2.
    """

    SUBNET = ipv4("10.10.0.0")

    def __init__(self, environment: EnvironmentProfile, with_guard: bool = False):
        self.environment = environment
        self.servers = [Server(f"server{i + 1}", environment, with_guard=with_guard) for i in range(2)]
        self.tenants: dict[str, Tenant] = {}
        self._next_host = itertools.count(10)

    def tenant(self, name: str) -> Tenant:
        if name not in self.tenants:
            self.tenants[name] = Tenant(name=name)
        return self.tenants[name]

    def launch_vm(self, tenant_name: str, vm_name: str, server_index: int) -> VirtualMachine:
        """Schedule a new VM for ``tenant_name`` onto a specific server.

        (Real schedulers pick the server; the attacker gets co-located by
        launching many instances — we place explicitly for determinism.)
        """
        if not 0 <= server_index < len(self.servers):
            raise SimulationError(f"no server index {server_index}")
        tenant = self.tenant(tenant_name)
        vm = VirtualMachine(
            name=vm_name, ip=self.SUBNET + next(self._next_host), tenant=tenant_name
        )
        tenant.vms.append(vm)
        self.servers[server_index].place(vm)
        return vm
