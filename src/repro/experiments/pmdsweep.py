"""PMD sweep — attack impact vs. core count and vs. queue placement.

The paper's testbeds ran a single datapath thread; the feasibility
follow-up (arXiv:2011.09107) observes that multi-queue deployments change
the attack's blast radius entirely: RSS spreads flows across PMD cores
with private caches, so a *spread* mask-exploding trace dilutes its
staircase over every core (each core scans a fraction of the masks), while
a *queue-concentrated* trace — the attacker grinding the wildcarded bits of
its 5-tuples until RSS lands every crafting packet on one chosen queue —
detonates the full explosion on a single core and collapses exactly the
victims RSS co-scheduled there.

This scenario sweeps three axes on the synthetic SUT: one victim pinned
per queue (round-robin), the SipDp co-located trace replayed during an
attack window, and each row reporting the per-victim throughput floor,
the aggregate floor, per-core mask counts and peak core load.  Rows may
additionally pick the shard *executor* (see
:mod:`repro.switch.executor`): the simulated impact numbers are
executor-invariant by the parallel ≡ serial invariant — the executor
column demonstrates exactly that, while changing which strategy actually
burns the wall clock.  Expected shape:

* spread rows: the aggregate floor *rises* with ``n_pmd`` (dilution);
* the concentrated row: only the victim on the targeted queue collapses,
  the others hold ~baseline — per-core isolation;
* thread/process rows: identical floors/masks to their serial twin.
"""

from __future__ import annotations

from dataclasses import replace
from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import run_attack_window
from repro.experiments.testbeds import TRUSTED_IP, build_testbed
from repro.netsim.cloud import SYNTHETIC_ENV
from repro.netsim.cms import PolicyRule
from repro.netsim.flows import queue_aware_trace

__all__ = ["run", "run_config"]

# (n_pmd, trace plan, executor) — plan is "spread" or a queue index.
CONFIGS: tuple[tuple[int, str | int, str], ...] = (
    (1, "spread", "serial"),
    (2, "spread", "serial"),
    (4, "spread", "serial"),
    (4, 0, "serial"),  # concentrated on queue 0 (victim1's core)
    (4, "spread", "thread"),  # same cell, parallel executors: floors must
    (4, "spread", "process"),  # match the (4, spread, serial) row exactly
)
DURATION = 40.0
ATTACK_START, ATTACK_STOP = 10.0, 30.0
ATTACK_PPS = 200.0
N_VICTIMS = 4


def run_config(n_pmd: int, plan: str | int, executor: str) -> dict:
    """One sweep cell: build the testbed, run it, summarise the window."""
    environment = replace(
        SYNTHETIC_ENV,
        name=f"Synthetic/{n_pmd}pmd/{executor}",
        n_pmd=n_pmd,
        datapath=replace(SYNTHETIC_ENV.datapath, executor=executor),
    )
    testbed = build_testbed(environment)
    host, datapath = testbed.server.host, testbed.server.datapath
    try:
        victims = [
            testbed.add_victim_flow(
                f"victim{i + 1}",
                flow_index=i,
                offered_gbps=10.0 / N_VICTIMS,
                queue=i % n_pmd,
            )
            for i in range(N_VICTIMS)
        ]
        trace = testbed.attack_trace(
            [
                PolicyRule(dst_port=80),
                PolicyRule(remote_ip=(TRUSTED_IP, 0xFFFFFFFF)),
            ],
            label="SipDp",
        )
        keys, report = queue_aware_trace(host, list(trace.keys), plan)
    except BaseException:
        testbed.close()  # a bad plan must not strand the worker pool
        raise
    masks_total, masks_per_shard = run_attack_window(
        testbed,
        keys,
        ATTACK_PPS,
        [(ATTACK_START, ATTACK_STOP)],
        DURATION,
        probes={"core_load": lambda: max(host.per_core_load)},
        readout=lambda: (datapath.n_masks, [shard.n_masks for shard in datapath.shards]),
    )
    rates = [testbed.metrics.series(victim.name) for victim in victims]
    return {
        "n_pmd": n_pmd,
        "plan": plan,
        "executor": executor,
        "baselines": [rate.maximum(stop=ATTACK_START) for rate in rates],
        "floors": [rate.minimum(ATTACK_START + 5.0, ATTACK_STOP) for rate in rates],
        "peak_core_load": testbed.metrics.series("core_load").maximum(ATTACK_START, ATTACK_STOP),
        "masks_total": masks_total,
        "masks_per_shard": masks_per_shard,
        "retarget": report,
        "victim_queues": [state.home_shards[0] for state in host.victims.values()],
    }


def run() -> ExperimentResult:
    """Sweep attack impact vs. PMD count, queue placement and executor.

    Each row is one ``(n_pmd, trace plan, executor)`` cell; ``trace`` is
    ``spread`` (round-robin across queues) or ``queue<k>`` (concentrated),
    ``executor`` one of the shard-execution strategies.  Victim ``i`` is
    RSS-pinned to queue ``i % n_pmd``.
    """
    result = ExperimentResult(
        experiment_id="pmdsweep",
        title="TSE impact vs PMD core count, queue placement and executor",
        paper_reference="multi-queue feasibility follow-up (arXiv:2011.09107)",
        columns=["n_pmd", "trace", "executor"]
        + [f"victim{i + 1}_floor_gbps" for i in range(N_VICTIMS)]
        + ["sum_floor_gbps", "sum_baseline_gbps", "masks_max_shard", "peak_core_load"],
    )
    for n_pmd, plan, executor in CONFIGS:
        cell = run_config(n_pmd, plan, executor)
        label = "spread" if plan == "spread" else f"queue{plan}"
        result.add_row(
            n_pmd,
            label,
            executor,
            *[round(f, 4) for f in cell["floors"]],
            round(sum(cell["floors"]), 4),
            round(sum(cell["baselines"]), 4),
            max(cell["masks_per_shard"]),
            round(cell["peak_core_load"], 3),
        )
        result.notes.append(
            f"n_pmd={n_pmd} {label} {executor}: masks/shard "
            f"{cell['masks_per_shard']}, "
            f"victim queues {cell['victim_queues']}, "
            f"retargeted {cell['retarget'].retargeted} keys "
            f"({cell['retarget'].stuck} stuck)"
        )

    spread_rows = [
        (row, config)
        for row, config in zip(result.rows, CONFIGS)
        if config[1:] == ("spread", "serial")
    ]
    if len(spread_rows) >= 2:
        sum_floor = list(result.columns).index("sum_floor_gbps")
        first, last = spread_rows[0][0][sum_floor], spread_rows[-1][0][sum_floor]
        result.notes.append(
            f"spread dilution: aggregate floor {first:.2f} Gbps at "
            f"{spread_rows[0][1][0]} PMD -> {last:.2f} Gbps at "
            f"{spread_rows[-1][1][0]} PMD"
        )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
