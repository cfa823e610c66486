"""RSS rebalancing game — the RSS-aware attacker vs. the re-keying defender.

The enhanced attack of arXiv:2011.09107: an attacker who knows the NIC's
RSS hash grinds the megaflow-wildcarded bits of its crafting packets
(:func:`~repro.switch.rss.retarget_trace`) until every one lands on the
queue a chosen victim's flow is pinned to — the tuple-space explosion,
which plain RSS would dilute 1/N across PMD cores, concentrates on the
victim's core and floors exactly that victim.

ROADMAP item 5's defense is to make the placement a moving target: a
:class:`~repro.core.rebalance.RebalanceController` watches per-shard
scan-cost skew and, when one core's cost explodes while the others stay
benign, re-keys the RSS hash and live-migrates the cached flow state to
its new home shards (:meth:`~repro.switch.sharded.ShardedDatapath.rebalance`
— quiesced, zero entries dropped).  The attacker's ground placement is
invalidated wholesale; it must re-observe and re-grind its whole trace.

This experiment plays that game in rounds: every ``round_period`` seconds
the attacker re-targets its trace against the *current* dispatcher onto
the victim's *current* home queue (it is assumed to know both — the
worst case for the defender), and the defender re-keys whenever the skew
signature re-appears.  Two cells differ only in whether the defender
plays:

* ``static`` — classic fixed RSS; the attacker grinds once and the victim
  stays floored for the whole attack.
* ``rebalance`` — the controller re-keys each time the attacker
  re-concentrates; between the re-map and the attacker's next move the
  explosion is diluted 1/N again and the victim's rate comes back.

Scored on **round tails**: the victim's minimum settled rate over the
second half of every retargeting round — after the defender has had its
chance to respond, before the attacker moves again.  The headline ratio
(rebalancing tail floor vs. static tail floor, >= 10x at CLI defaults) is
asserted on the SipDp-sized golden run in ``tests/test_experiments.py``;
the re-map's zero-drop invariant is ``tests/test_rebalance.py``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.rebalance import RebalancePolicy
from repro.experiments.backendsweep import attacker_rules
from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import detonation_testbed, run_attack_window, samples
from repro.netsim.cloud import MULTIQUEUE_ENV
from repro.netsim.flows import AttackSource
from repro.switch.rss import retarget_trace

__all__ = ["run", "run_policy_cell", "POLICIES"]

POLICIES = ("static", "rebalance")

#: The sweep's rebalance policy.  The skew trigger (worst/mean per-shard
#: scan cost) reads the concentration signature: an even dilution sits
#: near 1.05, a fresh detonation packed onto one of 4 cold queues
#: approaches 4 — but a *re*-concentration after a re-map climbs slowly,
#: because the previous round's scattered entries keep the other cores'
#: mask lists warm and hold the mean up.  1.5 catches that climb within
#: a couple of seconds while staying well clear of benign noise.  The
#: cooldown is much shorter than the attacker's observe+re-grind round,
#: so the defender always gets its move in.
SWEEP_POLICY = RebalancePolicy(skew_threshold=1.5, cooldown=2.0)
ATTACK_PPS = 1200.0


def run_policy_cell(
    policy: str,
    use_case_name: str,
    duration: float,
    attack_start: float,
    attack_stop: float,
    round_period: float,
    rebalance_policy: RebalancePolicy,
) -> dict:
    """One defender policy's full adversarial-game run.

    The attacker re-targets at ``attack_start`` and then every
    ``round_period`` seconds while the attack window is open.  Each
    re-targeting grinds against the dispatcher *currently installed* and
    aims at the victim's *current* home queue.  Returns the time series
    plus the round-tail summary (see module docstring).

    The victim is UDP, pinned to queue 0: its rate tracks the capacity the
    hypervisor assigns each tick, so the series measures the *placement*
    game directly rather than convolving it with TCP's ramp constant
    (a TCP victim recovers to the same level, tau=2 s later).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    environment = replace(
        MULTIQUEUE_ENV,
        name=f"Multiqueue/{policy}",
        rebalance_policy=rebalance_policy if policy == "rebalance" else None,
    )
    testbed, trace = detonation_testbed(
        environment, attacker_rules(use_case_name), use_case_name, queue=0, kind="udp"
    )
    host = testbed.server.host
    datapath = testbed.server.datapath
    flow_table = testbed.server.flow_table
    base_keys = list(trace.keys)

    retargets: list[dict] = []

    def regrind(now: float) -> list:
        """The attacker's move: observe placement, re-grind the trace."""
        target = host.victims["victim"].home_shards[0]
        keys, report = retarget_trace(
            base_keys, flow_table, datapath.rss, queue_for=lambda i, k: target
        )
        retargets.append(
            {
                "at": now,
                "target_queue": target,
                "retargeted": report.retargeted,
                "already_on_target": report.already_on_target,
                "stuck": report.stuck,
            }
        )
        return keys

    next_round = attack_start + round_period

    def next_move(now: float, attacker: AttackSource) -> None:
        nonlocal next_round
        if next_round <= now < attack_stop:
            attacker.set_trace(regrind(now))
            next_round += round_period

    run_attack_window(
        testbed,
        regrind(attack_start),
        ATTACK_PPS,
        [(attack_start, attack_stop)],
        duration,
        events=next_move,
    )

    # Round-tail floors: the second half of every retargeting round — the
    # defended steady state, after the re-map response, before the
    # attacker's next move.
    metrics = testbed.metrics
    rate = metrics.series("victim")
    tail_floors: list[float] = []
    start = attack_start
    while start < attack_stop:
        stop = min(start + round_period, attack_stop)
        tail_floors.append(rate.minimum(start + (stop - start) / 2, stop))
        start = stop
    return {
        "policy": policy,
        "series": list(samples(metrics, "victim", "masks", "scan_cost")),
        "retargets": retargets,
        "baseline_gbps": rate.maximum(stop=attack_start),
        "attack_floor_gbps": rate.minimum(attack_start + 2.0, attack_stop),
        "tail_floor_gbps": min(tail_floors),
        "tail_floors_gbps": tail_floors,
        "rounds": len(retargets),
        "remaps": datapath.remaps,
        "entries_moved": datapath.entries_moved,
        "final_salt": datapath.rss.salt,
        "peak_masks": metrics.series("masks").maximum(),
        "peak_scan_cost": metrics.series("scan_cost").maximum(),
        "trace_packets": len(base_keys),
        "decisions": host.decisions,
    }


def run(
    use_case_name: str = "SipSpDp",
    duration: float = 40.0,
    attack_start: float = 5.0,
    attack_stop: float = 35.0,
    round_period: float = 10.0,
) -> ExperimentResult:
    """Play the retargeting game with and without the rebalancing defender."""
    cells = {
        policy: run_policy_cell(
            policy, use_case_name, duration, attack_start, attack_stop, round_period, SWEEP_POLICY
        )
        for policy in POLICIES
    }

    result = ExperimentResult(
        experiment_id="rsssweep",
        title=f"RSS retargeting game under the {use_case_name} detonation",
        paper_reference="arXiv:2011.09107 enhanced attack + ROADMAP item 5",
        columns=[
            "policy", "baseline_gbps", "attack_floor_gbps", "tail_floor_gbps",
            "rounds", "remaps", "entries_moved", "peak_masks",
            "peak_scan_cost",
        ],
    )
    for policy in POLICIES:
        cell = cells[policy]
        result.add_row(
            policy,
            round(cell["baseline_gbps"], 3),
            round(cell["attack_floor_gbps"], 4),
            round(cell["tail_floor_gbps"], 4),
            cell["rounds"],
            cell["remaps"],
            cell["entries_moved"],
            cell["peak_masks"],
            round(cell["peak_scan_cost"], 1),
        )

    static_floor = cells["static"]["tail_floor_gbps"]
    defended_floor = cells["rebalance"]["tail_floor_gbps"]
    ratio = defended_floor / static_floor if static_floor > 0 else float("inf")
    result.notes.append(
        f"round-tail victim floor: rebalancing {defended_floor:.3f} Gbps vs "
        f"static RSS {static_floor:.4f} Gbps — {ratio:.0f}x "
        f"(acceptance: >= 10x at the CLI's 8k masks, unchecked; "
        f"tests/test_experiments.py asserts >= 2x on a SipDp-sized run)"
    )
    result.notes.append(
        "the attacker is maximally informed: each round it reads the live "
        "dispatcher and the victim's current home queue and re-grinds only "
        "megaflow-wildcarded bits, so every retargeted trace detonates the "
        "identical tuple space (retarget_trace verifies (mask, masked key))"
    )
    result.notes.append(
        "re-maps migrate the cached flow state live: entries are re-homed by "
        "masked key under datapath.maintenance() with zero drops (the "
        "aggregate (mask, masked key) union is shard-count-invariant through "
        "every re-map — tests/test_rebalance.py asserts it under every executor)"
    )
    result.notes.append(
        f"defender moved {cells['rebalance']['entries_moved']} entries across "
        f"{cells['rebalance']['remaps']} re-maps; the static cell's dispatcher "
        f"never changes, so its attacker pays the grind exactly once"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
