"""Live-backend-migration sweep — online recovery policies under detonation.

``backendsweep`` measured the *deployment* gap: under the same 8k-mask
SipSpDp detonation a TSS victim floors at ~0.004 Gbps while a tuplechain
victim keeps ~2.4 (``backendsweep.run(netsim_use_case="SipSpDp")``).  This
experiment measures the *online* version of that gap (ROADMAP item 3):
every run starts on TSS, gets detonated, and differs only in which
recovery policy is armed —

* ``none`` — no defense; the victim stays floored until the attack stops.
* ``guard`` — MFCGuard only (§8): deletes adversarial entries each period;
  the cache stays TSS and every deletion is a permanent slow-path demotion.
* ``migration`` — :class:`~repro.core.migration.MigrationController` only:
  when the probe-cost plane sees the shard's expected scan cost explode it
  rebuilds the cache as ``tuplechain`` in bounded slices and atomically
  swaps — zero entries dropped, but the victim starves until the swap.
* ``hybrid`` — both: MFCGuard holds the line while the rebuild races, then
  stands down by itself once the swapped backend collapses the scan cost
  below its chain-aware threshold
  (:meth:`~repro.core.mitigation.MFCGuard.stand_down_at`).

Reported per policy: time-to-recover (from the collapse until the victim
holds an absolute service bar again, in-attack — see
:func:`run_policy_cell`) and the collateral the recovery cost — entries
deleted (permanent upcalls), peak upcall rate, peak rebuild memory (the
target backend being built next to the live one).
``tests/test_experiments.py`` asserts the headline ratio — the hybrid
policy's recovered victim floor vs the undefended TSS floor — on the
SipDp-sized golden run; ``tests/test_migration.py`` holds the swap's
verdict-for-verdict identity.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.migration import MigrationPolicy
from repro.experiments.backendsweep import attacker_rules
from repro.experiments.common import ExperimentResult
from repro.experiments.scenario import detonation_testbed, run_attack_window, samples
from repro.netsim.cloud import SYNTHETIC_ENV

__all__ = ["run", "run_policy_cell", "POLICIES"]

POLICIES = ("none", "guard", "migration", "hybrid")

#: The sweep's migration policy: the trigger sits well above any benign
#: mask count and far below the detonated staircase's ~8.2k-unit scan cost.
SWEEP_POLICY = MigrationPolicy(
    target_backend="tuplechain",
    cost_threshold=512.0,
    period=0.5,
    slice_entries=4096,
    cooldown=30.0,
)


def run_policy_cell(
    policy: str,
    use_case_name: str = "SipSpDp",
    duration: float = 40.0,
    attack_start: float = 5.0,
    attack_stop: float = 35.0,
    attack_pps: float = 1200.0,
    offered_gbps: float = 10.0,
    dt: float = 0.1,
    migration_policy: MigrationPolicy | None = None,
    recovery_gbps: float = 1.0,
) -> dict:
    """One recovery policy's full netsim run under the TSE detonation.

    Returns the time series plus its summary: baseline (max pre-attack
    rate), floor (min once the detonation settles), recovered floor (min
    over the attack window's last 5 s — what the policy claws back *while
    still under attack*), time-to-recover, and the collateral counters.

    Time-to-recover is measured against an absolute service bar,
    ``recovery_gbps``: seconds from the throughput collapse until the
    victim's settled rate is back above the bar *while the attack is still
    running* — ~250x the undefended TSS floor, and deliberately below the
    grouped backend's own under-detonation ceiling (~2.4 Gbps), so a
    successful migration clears it and a policy that merely softens the
    collapse does not.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    mpolicy = migration_policy or SWEEP_POLICY
    with_migration = policy in ("migration", "hybrid")
    with_guard = policy in ("guard", "hybrid")
    environment = replace(
        SYNTHETIC_ENV,
        name=f"Synthetic/{policy}",
        migration_policy=mpolicy if with_migration else None,
    )
    testbed, trace = detonation_testbed(
        environment, attacker_rules(use_case_name), use_case_name, offered_gbps, dt,
        with_guard=with_guard,
    )
    host = testbed.server.host
    shards = testbed.server.datapath.shards
    records = run_attack_window(
        testbed,
        trace.keys,
        attack_pps,
        [(attack_start, attack_stop)],
        duration,
        probes={
            "upcall_pps": lambda: host.upcall_pps,
            "rebuild_memory": lambda: max(
                shard.snapshot().rebuild_memory_bytes for shard in shards
            ),
        },
        readout=lambda: [shard.snapshot() for shard in shards],
    )

    metrics = testbed.metrics
    rate = metrics.series("victim")
    collapse_at = next(
        (t for t, r in rate if t >= attack_start and r < recovery_gbps), None
    )
    recover_at = (
        next(
            (t for t, r in rate if collapse_at < t < attack_stop and r >= recovery_gbps),
            None,
        )
        if collapse_at is not None
        else None
    )
    guard = host.guard
    return {
        "policy": policy,
        "series": list(samples(metrics, "victim", "masks", "scan_cost")),
        "baseline_gbps": rate.maximum(stop=attack_start),
        "floor_gbps": rate.minimum(attack_start + 5.0, attack_stop),
        "recovered_floor_gbps": rate.minimum(attack_stop - 5.0, attack_stop),
        "collapse_at": collapse_at,
        "time_to_recover_s": recover_at - collapse_at if recover_at is not None else None,
        "entries_deleted": guard.total_deleted if guard is not None else 0,
        "peak_upcall_pps": metrics.series("upcall_pps").maximum(),
        "peak_rebuild_memory_bytes": metrics.series("rebuild_memory").maximum(),
        "swaps": sum(record.swaps for record in records),
        "final_backend": records[0].backend,
        "final_scan_cost": max(record.scan_cost for record in records),
        "peak_masks": metrics.series("masks").maximum(),
        "trace_packets": len(trace.keys),
    }


def run(
    use_case_name: str = "SipSpDp",
    duration: float = 40.0,
    attack_start: float = 5.0,
    attack_stop: float = 35.0,
    attack_pps: float = 1200.0,
    dt: float = 0.1,
    migration_policy: MigrationPolicy | None = None,
    recovery_gbps: float = 1.0,
) -> ExperimentResult:
    """Run every recovery policy against the same detonation and compare."""
    cells = {
        policy: run_policy_cell(
            policy,
            use_case_name=use_case_name,
            duration=duration,
            attack_start=attack_start,
            attack_stop=attack_stop,
            attack_pps=attack_pps,
            dt=dt,
            migration_policy=migration_policy,
            recovery_gbps=recovery_gbps,
        )
        for policy in POLICIES
    }

    result = ExperimentResult(
        experiment_id="migrationsweep",
        title=f"online recovery policies under the {use_case_name} detonation",
        paper_reference="§8 mitigation + ROADMAP item 3 (live backend migration)",
        columns=[
            "policy", "baseline_gbps", "floor_gbps", "recovered_floor_gbps",
            "time_to_recover_s", "swaps", "entries_deleted",
            "peak_upcall_pps", "peak_rebuild_mb", "final_backend",
            "final_scan_cost",
        ],
    )
    for policy in POLICIES:
        cell = cells[policy]
        ttr = cell["time_to_recover_s"]
        result.add_row(
            policy,
            round(cell["baseline_gbps"], 3),
            round(cell["floor_gbps"], 4),
            round(cell["recovered_floor_gbps"], 4),
            round(ttr, 1) if ttr is not None else "n/a",
            cell["swaps"],
            cell["entries_deleted"],
            round(cell["peak_upcall_pps"], 0),
            round(cell["peak_rebuild_memory_bytes"] / 1e6, 2),
            cell["final_backend"],
            round(cell["final_scan_cost"], 1),
        )

    none_floor = cells["none"]["floor_gbps"]
    hybrid_recovered = cells["hybrid"]["recovered_floor_gbps"]
    ratio = hybrid_recovered / none_floor if none_floor > 0 else float("inf")
    result.notes.append(
        f"hybrid recovered floor {hybrid_recovered:.3f} Gbps vs undefended TSS "
        f"floor {none_floor:.4f} Gbps — {ratio:.0f}x online recovery "
        f"(acceptance: >= 100x at the CLI's 8k masks, unchecked; "
        f"tests/test_experiments.py asserts >= 5x on a SipDp-sized run)"
    )
    result.notes.append(
        "migration collateral is structural: the rebuild adopts the live entry "
        "objects from the truth-store dicts, so entries dropped is 0 by contract "
        "and the swap is verdict-for-verdict invisible"
    )
    result.notes.append(
        "guard-only keeps the cache TSS: every deletion is a permanent slow-path "
        "demotion (the §8 quirk), visible as entries_deleted and the upcall burst"
    )
    result.notes.append(
        "hybrid = guard cleans while the rebuild races, then stands down on its "
        "own once the swapped backend collapses the expected scan cost below the "
        "chain-aware threshold (guard.stand_down_at)"
    )
    if cells["hybrid"]["entries_deleted"] == 0:
        result.notes.append(
            "at these timescales the rebuild wins the race outright: the swap "
            "lands before the guard's first 10 s period fires, so hybrid pays "
            "zero deletion collateral — guard-only shows what holding the line "
            "with deletions alone costs"
        )
    result.notes.append(
        f"time_to_recover_s: seconds from collapse until the victim holds >= "
        f"{recovery_gbps:g} Gbps again while the attack is still running "
        f"(n/a = never recovered in-attack)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format_table())
