"""Discrete-time network/testbed simulation (the Fig. 7/8 environments)."""

from repro.netsim.cloud import (
    ENVIRONMENTS,
    KUBERNETES_ENV,
    OPENSTACK_ENV,
    SYNTHETIC_ENV,
    Datacenter,
    EnvironmentProfile,
    Server,
    Tenant,
    VirtualMachine,
)
from repro.netsim.cms import (
    BACKENDS,
    CalicoPolicy,
    CmsBackend,
    KubernetesNetworkPolicy,
    OpenStackSecurityGroups,
    PolicyRule,
)
from repro.netsim.engine import SimComponent, Simulation
from repro.netsim.fleet import Fleet, FleetHost, Rack, TenantBlock, TenantStream
from repro.netsim.flows import ActiveWindow, AttackSource, VictimFlow
from repro.netsim.hypervisor import HypervisorHost, QuirkConfig, VictimState
from repro.netsim.metrics import MetricsCollector, TimeSeries, quantile

__all__ = [
    "Simulation",
    "SimComponent",
    "MetricsCollector",
    "TimeSeries",
    "quantile",
    "Fleet",
    "FleetHost",
    "Rack",
    "TenantBlock",
    "TenantStream",
    "HypervisorHost",
    "QuirkConfig",
    "VictimState",
    "ActiveWindow",
    "AttackSource",
    "VictimFlow",
    "PolicyRule",
    "CmsBackend",
    "OpenStackSecurityGroups",
    "KubernetesNetworkPolicy",
    "CalicoPolicy",
    "BACKENDS",
    "EnvironmentProfile",
    "SYNTHETIC_ENV",
    "OPENSTACK_ENV",
    "KUBERNETES_ENV",
    "ENVIRONMENTS",
    "Datacenter",
    "Server",
    "Tenant",
    "VirtualMachine",
]
