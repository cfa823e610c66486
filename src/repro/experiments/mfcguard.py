"""§8 — MFCGuard end-to-end: victim recovery under active mitigation.

Runs the synthetic SipSpDp attack twice — guard off, guard on — and
reports the victim's throughput timeline.  With the guard, the mask count
is clipped back at every 10-second pass and the victim returns to (near)
baseline *while the attack continues*; the price is the attack traffic
being pinned to the slow path (upcall rate ≈ attack rate, the CPU cost
Fig. 9c quantifies).
"""

from __future__ import annotations

from repro.core.mitigation import MFCGuardConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import run_attack_window, samples
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.cms import PolicyRule

__all__ = ["run"]

DURATION = 60.0
ATTACK_START = 10.0
ATTACK_PPS = 1000.0


def _one_run(with_guard: bool, duration: float, attack_start: float) -> list[tuple[float, float, int, float]]:
    """``(t, victim Gbps, masks, upcall pps)`` samples of one run, every 2 s."""
    testbed = build_testbed(SYNTHETIC_ENV, victim_protocol="udp", with_guard=with_guard)
    host = testbed.server.host
    if with_guard:
        host.guard.config = MFCGuardConfig(cpu_threshold_pct=200.0)
    trace = testbed.attack_trace(
        [
            PolicyRule(dst_port=80),
            PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
            PolicyRule(src_port=12345),
        ],
        label="SipSpDp",
        # Deny-only trace: the strongest variant against a guard that may
        # only evict drop entries (requirement (i) of §8).
        include_allow_paths=False,
    )
    testbed.add_victim_flow("victim", offered_gbps=9.5, kind="udp")
    run_attack_window(
        testbed,
        trace.keys,
        ATTACK_PPS,
        [(attack_start, duration)],
        duration,
        sample_every=2.0,
        probes={"upcall_pps": lambda: host.upcall_pps},
    )
    return list(samples(testbed.metrics, "victim", "masks", "upcall_pps"))


def run() -> ExperimentResult:
    """Regenerate the guard-on/guard-off comparison."""
    without = _one_run(False, DURATION, ATTACK_START)
    with_guard = _one_run(True, DURATION, ATTACK_START)

    result = ExperimentResult(
        experiment_id="mfcguard",
        title=f"MFCGuard on/off under a {ATTACK_PPS:.0f} pps SipSpDp attack",
        paper_reference="§8 (Alg. 2) / Fig. 9c",
        columns=[
            "t_s", "victim_gbps_noguard", "masks_noguard",
            "victim_gbps_guard", "masks_guard", "upcall_pps_guard",
        ],
    )
    for (t, v0, m0, _u0), (_t, v1, m1, u1) in zip(without, with_guard):
        result.add_row(round(t, 3), round(v0, 4), m0, round(v1, 4), m1, round(u1, 1))

    late = [row for row in result.rows if row[0] >= ATTACK_START + 25]
    result.notes.append(
        f"steady state under attack: no-guard victim ~{late[-1][1]:.2f} Gbps at "
        f"{late[-1][2]} masks; guarded victim ~{late[-1][3]:.2f} Gbps at {late[-1][4]} masks"
    )
    result.notes.append(
        f"guarded slow-path load ~{late[-1][5]:.0f} upcalls/s ≈ the attack rate — the "
        "deleted entries never re-spark, so adversarial packets stay on the slow path (§8)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
