#!/usr/bin/env python3
"""Co-located TSE in a simulated multi-tenant cloud (the Fig. 7 / Fig. 8a story).

A victim tenant serves iperf traffic through a shared hypervisor switch.
An attacker tenant leases a VM on the same server, installs a perfectly
ordinary-looking ACL for *its own* service through the CMS, and replays
50 kbps of crafted packets at itself.  The victim — whose ACL and traffic
are untouched — collapses, because both tenants share the megaflow cache.

Run:  python examples/colocated_cloud_attack.py
"""

from repro.core import ColocatedTraceGenerator
from repro.netsim import (
    ActiveWindow,
    AttackSource,
    Datacenter,
    PolicyRule,
    Simulation,
    SYNTHETIC_ENV,
    VictimFlow,
)
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP

TRUSTED_IP = 0x0A000001  # 10.0.0.1


def main() -> None:
    # --- the cloud -----------------------------------------------------------
    cloud = Datacenter(SYNTHETIC_ENV)
    v1 = cloud.launch_vm("victim-tenant", "V1", 0)     # victim frontend
    a1 = cloud.launch_vm("attacker-tenant", "A1", 0)   # co-located!
    v2 = cloud.launch_vm("victim-tenant", "V2", 1)     # victim backend
    server = cloud.servers[0]

    # --- tenants install their ACLs through the CMS ----------------------------
    server.install_policy(v1, [PolicyRule(dst_port=5001)], label="acl-v")
    server.install_policy(
        a1,
        [
            PolicyRule(dst_port=80),
            PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
            PolicyRule(src_port=12345),  # Calico-style source-port rule
        ],
        label="acl-a",
    )
    server.ensure_default_deny()

    # --- the attack trace: crafted against the attacker's own ACL ---------------
    trace = ColocatedTraceGenerator(
        server.flow_table, base={"ip_dst": a1.ip, "ip_proto": PROTO_TCP}
    ).generate("SipSpDp")
    print(f"attack trace: {len(trace)} packets, expected masks {trace.expected_masks}")

    # --- wire the simulation -----------------------------------------------------
    simulation = Simulation(dt=0.1)
    victim = VictimFlow(
        host=server.host,
        name="victim-iperf",
        keys=(FlowKey(ip_src=v2.ip, ip_dst=v1.ip, ip_proto=PROTO_TCP,
                      tp_src=52000, tp_dst=5001),),
        offered_gbps=9.5,
        kind="tcp",
    )
    attacker = AttackSource(
        host=server.host,
        keys=trace.keys,
        pps=1000,  # ~0.67 Mbps — the paper's teardown budget
        windows=[ActiveWindow(20.0, 50.0)],
    )
    simulation.add(victim)
    simulation.add(attacker)
    simulation.add(server.host)

    print(f"\n{'t[s]':>6} {'victim Gbps':>12} {'masks':>7} {'megaflows':>10}")

    def observer(now: float) -> None:
        victim.settle(now, simulation.dt)
        if round(now * 10) % 50 == 0:  # print every 5 s
            print(f"{now:6.1f} {victim.rate_gbps:12.3f} "
                  f"{server.datapath.n_masks:7d} {server.datapath.n_megaflows:10d}")

    simulation.observe(observer)
    simulation.run(80.0)

    print("\nThe victim collapsed while the attacker spent ~0.67 Mbps — and "
          "recovered ~10 s after the attack stopped (the megaflow idle timeout).")


if __name__ == "__main__":
    main()
