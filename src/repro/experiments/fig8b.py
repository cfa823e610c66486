"""Fig. 8b — OpenStack testbed, SipDp scenario, UDP victim.

Timeline (per §5.5): the attacker sends from t = 0 at 100 pps, stops at
60 s, restarts at 90 s.  The victim joins with a full-rate UDP iperf at
30 s.  The paper reports >90% degradation while both are active, recovery
10 s after the attacker stops, and — the curious part — only a ~10% dip
when the attacker *resumes*, because established flows are barely affected
(our model: the kernel mask-memo quirk, see DESIGN.md substitution #5).

The OpenStack CMS only admits SipDp (no source-port filters), which is why
this testbed cannot run the full Fig. 6 ACL.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import run_attack_window, samples
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import OPENSTACK_ENV
from repro.netsim.cms import PolicyRule
from repro.netsim.flows import ActiveWindow

__all__ = ["run"]

DURATION = 120.0
VICTIM_START = 30.0
ATTACK_WINDOWS = ((0.0, 60.0), (90.0, 120.0))
ATTACK_PPS = 100.0


def run() -> ExperimentResult:
    """Regenerate the Fig. 8b time series."""
    testbed = build_testbed(OPENSTACK_ENV, victim_protocol="udp")
    trace = testbed.attack_trace(
        [
            PolicyRule(dst_port=80),
            PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
        ],
        label="SipDp",
    )
    testbed.add_victim_flow(
        "victim",
        offered_gbps=9.5,
        kind="udp",
        windows=[ActiveWindow(VICTIM_START, DURATION)],
    )
    host = testbed.server.host
    run_attack_window(
        testbed,
        trace.keys,
        ATTACK_PPS,
        ATTACK_WINDOWS,
        DURATION,
        sample_every=1.0,
        probes={"protected": lambda: host.victims["victim"].protected},
    )

    result = ExperimentResult(
        experiment_id="fig8b",
        title="OpenStack SipDp: UDP victim vs on/off attacker",
        paper_reference="Fig. 8b (§5.5)",
        columns=["t_s", "victim_gbps", "attacker_pps", "mfc_masks", "victim_protected"],
    )
    for t, rate, pps, masks, protected in samples(
        testbed.metrics, "victim", "attacker_pps", "masks", "protected"
    ):
        result.add_row(round(t, 3), round(rate, 4), pps, masks, protected)

    rate = testbed.metrics.series("victim")
    first_stop, second_start = ATTACK_WINDOWS[0][1], ATTACK_WINDOWS[1][0]
    first_floor = rate.minimum(VICTIM_START + 3, first_stop)
    first_peak = rate.maximum(VICTIM_START + 3, first_stop)
    baseline = rate.maximum(first_stop + 15, second_start)
    re_attack = rate.minimum(second_start + 5, DURATION)
    result.notes.append(
        f"victim under first attack: {first_floor:.2f}-{first_peak:.2f} Gbps "
        f"({100 * (1 - first_floor / baseline):.0f}% degradation; paper: >90%)"
    )
    result.notes.append(
        f"calm-window rate {baseline:.2f} Gbps; re-attack rate {re_attack:.2f} Gbps "
        f"({100 * (1 - re_attack / baseline):.0f}% dip; paper: ~10% — established flows "
        "barely affected, modelled by the kernel mask-memo quirk)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
