"""Reusable testbed wiring for the Fig. 8 time-series experiments.

Builds the Fig. 7 layout on a chosen environment: victim and attacker
tenants co-located on Server 1, the victim's backend on Server 2, ACLs
installed through the environment's CMS backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator
from repro.netsim.cloud import Datacenter, EnvironmentProfile, Server, VirtualMachine
from repro.netsim.cms import PolicyRule
from repro.netsim.engine import Simulation
from repro.netsim.flows import VictimFlow
from repro.netsim.metrics import MetricsCollector
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP, PROTO_UDP
from repro.switch.rss import pin_to_queue

__all__ = ["Fig7Testbed", "build_testbed"]

TRUSTED_IP = 0x0A000001  # 10.0.0.1, the Fig. 6 trusted host
IPERF_PORT = 5001


@dataclass
class Fig7Testbed:
    """The wired-up simplified cloud of Fig. 7."""

    datacenter: Datacenter
    server: Server  # Server 1, the contended hypervisor
    victim_vm: VirtualMachine
    attacker_vm: VirtualMachine
    backend_vm: VirtualMachine
    metrics: MetricsCollector  # the sink :func:`~repro.experiments.scenario.run_attack_window` samples into
    simulation: Simulation
    victims: list[VictimFlow] = dc_field(default_factory=list)  # every flow added, in order

    def close(self) -> None:
        """Release both servers' execution resources (worker pools, shm rings)."""
        for server in self.datacenter.servers:
            server.close()

    def victim_keys(
        self, flow_index: int = 0, proto: int = PROTO_TCP, queue: int | None = None
    ) -> tuple[FlowKey, ...]:
        """Flow keys of one victim iperf session (admitted by ACL-V).

        With ``queue`` set on a sharded (multi-PMD) server, the source
        port is chosen so RSS pins the flow to that PMD queue — the
        experimenter's analogue of placing iperf endpoints until the flow
        lands on the core under study.
        """
        key = FlowKey(
            ip_src=self.backend_vm.ip,
            ip_dst=self.victim_vm.ip,
            ip_proto=proto,
            tp_src=52000 + flow_index,
            tp_dst=IPERF_PORT,
        )
        dispatcher = getattr(self.server.datapath, "rss", None)
        if queue is not None and dispatcher is not None:
            # Distinct search lanes per flow_index keep victim ports unique.
            key = pin_to_queue(key, dispatcher, queue, start=52000 + flow_index * 512)
        return (key,)

    def attack_trace(
        self,
        attacker_rules: list[PolicyRule],
        label: str,
        include_allow_paths: bool = True,
    ) -> AdversarialTrace:
        """Install the attacker's ACL and craft the co-located trace.

        ``include_allow_paths=False`` crafts the deny-only variant: every
        packet is dropped by the ACL, which still detonates the full deny
        mask product while leaving no allow megaflows behind — the variant
        that matters against MFCGuard, whose requirement (i) only permits
        deleting drop entries.
        """
        self.server.install_policy(self.attacker_vm, attacker_rules, label="acl-a")
        self.server.ensure_default_deny()
        generator = ColocatedTraceGenerator(
            self.server.flow_table,
            base={"ip_dst": self.attacker_vm.ip, "ip_proto": PROTO_TCP},
            include_allow_paths=include_allow_paths,
        )
        return generator.generate(use_case=label)

    def add_victim_flow(
        self,
        name: str,
        flow_index: int = 0,
        offered_gbps: float = 3.3,
        kind: str = "tcp",
        windows=(),
        queue: int | None = None,
    ) -> VictimFlow:
        proto = PROTO_TCP if kind == "tcp" else PROTO_UDP
        flow = VictimFlow(
            host=self.server.host,
            name=name,
            keys=self.victim_keys(flow_index, proto=proto, queue=queue),
            offered_gbps=offered_gbps,
            kind=kind,
            windows=windows,
        )
        self.simulation.add(flow)
        self.victims.append(flow)
        return flow


def build_testbed(
    environment: EnvironmentProfile,
    dt: float = 0.1,
    victim_protocol: str = "tcp",
    with_guard: bool = False,
) -> Fig7Testbed:
    """Assemble the Fig. 7 datacenter on ``environment``.

    Installs ACL-V (allow the victim's iperf service) through the CMS; the
    attacker's ACL is installed later by :meth:`Fig7Testbed.attack_trace`
    (or mid-run, as in Fig. 8c).
    """
    datacenter = Datacenter(environment, with_guard=with_guard)
    victim_vm = datacenter.launch_vm("victim", "V1", 0)
    attacker_vm = datacenter.launch_vm("attacker", "A1", 0)
    backend_vm = datacenter.launch_vm("victim", "V2", 1)
    server = datacenter.servers[0]
    server.install_policy(
        victim_vm,
        [PolicyRule(dst_port=IPERF_PORT, protocol=victim_protocol)],
        label="acl-v",
    )
    return Fig7Testbed(
        datacenter=datacenter,
        server=server,
        victim_vm=victim_vm,
        attacker_vm=attacker_vm,
        backend_vm=backend_vm,
        metrics=MetricsCollector(),
        simulation=Simulation(dt=dt),
    )
