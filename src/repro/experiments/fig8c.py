"""Fig. 8c — Kubernetes testbed, SipSpDp scenario, mid-run ACL injection.

Timeline (per §5.6): the victim's iperf reaches the 1 Gbps virtio line
rate; at t1 the attacker starts sending its crafted trace at 1,000 pps —
harmless, because the malicious ACL is not installed yet (a "minor
glitch").  At t2 the attacker injects the full Fig. 6 ACL (Calico-style
source-port rules): the caches revalidate and the replayed trace detonates
thousands of megaflow masks, dropping the victim by ~80%.  At t4 the
attacker doubles its rate to 2,000 pps; on the weak two-laptop testbed the
attack traffic's classification work exhausts the remaining fast-path
budget and the victim drops close to 0 for the rest of the run.

The secondary series reports the megaflow entry count, like the paper's
right-hand axis.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import run_attack_window, samples
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import KUBERNETES_ENV
from repro.netsim.cms import PolicyRule
from repro.netsim.flows import ActiveWindow, AttackSource

__all__ = ["run"]


def run(
    duration: float = 150.0,
    victim_start: float = 5.0,
    t1_attack_start: float = 30.0,
    t2_acl_injection: float = 60.0,
    t4_escalation: float = 110.0,
    base_pps: float = 1000.0,
    escalated_pps: float = 2000.0,
    dt: float = 0.1,
    sample_every: float = 1.0,
) -> ExperimentResult:
    """Regenerate the Fig. 8c time series."""
    testbed = build_testbed(KUBERNETES_ENV, dt=dt, victim_protocol="tcp")
    testbed.server.ensure_default_deny()
    server = testbed.server

    # The attacker's ACL (full Fig. 6, via Calico semantics) is prepared up
    # front but *installed* only at t2; the trace is crafted against the
    # future table on a scratch copy of the testbed.
    attacker_rules = [
        PolicyRule(dst_port=80),
        PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
        PolicyRule(src_port=12345),
    ]
    scratch = build_testbed(KUBERNETES_ENV)
    scratch_trace = scratch.attack_trace(attacker_rules, label="SipSpDp")

    testbed.add_victim_flow(
        "victim",
        offered_gbps=1.0,
        kind="tcp",
        windows=[ActiveWindow(victim_start, duration)],
    )
    state = {"acl_installed": False, "escalated": False}

    def stage_events(now: float, attacker: AttackSource) -> None:
        if not state["acl_installed"] and now >= t2_acl_injection:
            server.install_policy(testbed.attacker_vm, attacker_rules, label="acl-a")
            server.ensure_default_deny()
            state["acl_installed"] = True
        if not state["escalated"] and now >= t4_escalation:
            attacker.set_rate(escalated_pps)
            state["escalated"] = True

    run_attack_window(
        testbed,
        scratch_trace.keys,
        base_pps,
        [(t1_attack_start, duration)],
        duration,
        sample_every=sample_every,
        probes={"megaflows": lambda: server.datapath.n_megaflows},
        events=stage_events,
    )

    result = ExperimentResult(
        experiment_id="fig8c",
        title="Kubernetes SipSpDp: ACL injected mid-run, then rate escalation",
        paper_reference="Fig. 8c (§5.6)",
        columns=["t_s", "victim_gbps", "attack_pps", "mfc_masks", "megaflows"],
    )
    for t, rate, pps, masks, megaflows in samples(
        testbed.metrics, "victim", "attacker_pps", "masks", "megaflows"
    ):
        result.add_row(round(t, 3), round(rate, 4), pps, masks, megaflows)

    rate = testbed.metrics.series("victim")
    pre_acl = t1_attack_start + 2, t2_acl_injection
    post_acl = t2_acl_injection + 15, t4_escalation
    result.notes.append(
        f"pre-ACL attack (t1..t2): victim {rate.minimum(*pre_acl):.2f}-{rate.maximum(*pre_acl):.2f} Gbps "
        "(paper: minor glitch only)"
    )
    result.notes.append(
        f"after ACL injection: victim ~{rate.mean(*post_acl):.2f} Gbps "
        f"({100 * (1 - rate.minimum(*post_acl) / 1.0):.0f}% below the 1 Gbps line; paper: ~80% drop)"
    )
    result.notes.append(
        f"after 2 kpps escalation: victim ~{rate.mean(t4_escalation + 10, duration):.3f} Gbps "
        "(paper: full DoS, rate close to 0)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
