"""Fig. 8a — three concurrent TCP victims under a co-located SipDp attack.

The paper's synthetic testbed: three parallel iperf TCP flows sum to
~9.7 Gbps; the attacker replays the SipDp adversarial trace at 100 pps
(≈50 kbps) from t1 = 30 s to t2 = 60 s, collapsing the aggregate victim
rate below 0.5 Gbps; the victims recover only ~10 s after t2 because the
idle-timeout revalidator keeps the adversarial megaflows alive that long.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import run_attack_window, samples
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.cms import PolicyRule

__all__ = ["run"]

DURATION = 90.0
ATTACK_START, ATTACK_STOP = 30.0, 60.0  # t1, t2
ATTACK_PPS = 100.0
N_VICTIMS = 3


def run() -> ExperimentResult:
    """Regenerate the Fig. 8a time series.

    Returns one row per sample: time, per-victim Gbps, their sum, the
    attacker rate (pps) and the current megaflow mask count.
    """
    testbed = build_testbed(SYNTHETIC_ENV)
    trace = testbed.attack_trace(
        [
            PolicyRule(dst_port=80),
            PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
        ],
        label="SipDp",
    )
    names = [f"victim{i + 1}" for i in range(N_VICTIMS)]
    victims = [
        testbed.add_victim_flow(name, flow_index=i, offered_gbps=3.3)
        for i, name in enumerate(names)
    ]
    run_attack_window(
        testbed,
        trace.keys,
        ATTACK_PPS,
        [(ATTACK_START, ATTACK_STOP)],
        DURATION,
        sample_every=1.0,
        probes={"victim_sum": lambda: sum(victim.rate_gbps for victim in victims)},
    )

    result = ExperimentResult(
        experiment_id="fig8a",
        title=f"{N_VICTIMS} concurrent TCP victims, co-located SipDp attack at {ATTACK_PPS:.0f} pps",
        paper_reference="Fig. 8a (synthetic testbed, §5.4)",
        columns=["t_s"]
        + [f"{name}_gbps" for name in names]
        + ["victim_sum_gbps", "attacker_pps", "mfc_masks"],
    )
    for t, *rates, pps, masks in samples(
        testbed.metrics, *names, "victim_sum", "attacker_pps", "masks"
    ):
        result.add_row(round(t, 3), *[round(rate, 4) for rate in rates], pps, masks)

    total = testbed.metrics.series("victim_sum")
    baseline = total.maximum(stop=ATTACK_START)
    floor = total.minimum(ATTACK_START + 5, ATTACK_STOP)
    recovered_at = next(
        (round(t, 3) for t, v in total if t > ATTACK_STOP and v >= 0.9 * baseline),
        None,
    )
    result.notes.append(
        f"baseline sum {baseline:.2f} Gbps (paper ~9.7); attack floor {floor:.2f} Gbps "
        f"(paper: below 0.5)"
    )
    result.notes.append(
        f"recovered to 90% of baseline at t={recovered_at} s "
        f"(paper: ~10 s after t2={ATTACK_STOP:.0f} s — the MFC idle timeout)"
    )
    result.notes.append(
        f"trace: {len(trace)} crafted packets, {trace.expected_masks} expected masks"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
