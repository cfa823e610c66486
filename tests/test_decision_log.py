"""The decision log against counters the datapath keeps itself: no clock.

Each controller-bearing sweep runs a shortened cell, and what its
controllers' decisions say they changed is held to what the datapath
counted: re-maps and entries moved (rebalancer), backend swaps
(migration), and megaflows removed across the guard's passes (MFCGuard).
"""

from __future__ import annotations

from repro.core.migration import MigrationPolicy
from repro.core.mitigation import MFCGuard
from repro.core.rebalance import RebalancePolicy
from repro.experiments import mfcguard, migrationsweep, rsssweep


def _actions(decisions, controller: str) -> set[str]:
    return {decision.action for decision in decisions if decision.controller == controller}


def test_rekeys_and_moves_match_the_datapath():
    cell = rsssweep.run_policy_cell(
        "rebalance",
        use_case_name="SipDp",
        duration=10.0,
        attack_start=2.0,
        attack_stop=9.0,
        round_period=4.0,
        rebalance_policy=RebalancePolicy(skew_threshold=1.5, cost_floor=32.0, cooldown=1.0),
    )
    rekeys = [decision for decision in cell["decisions"] if decision.action == "rekey"]
    assert len(rekeys) == cell["remaps"] >= 1
    assert sum(decision.changed for decision in rekeys) == cell["entries_moved"] > 0
    assert rekeys[-1].subject == cell["final_salt"]
    assert _actions(cell["decisions"], "rebalance") == {"rekey", "hold"}


def test_swaps_match_the_shard_snapshots():
    cell = migrationsweep.run_policy_cell(
        "hybrid",
        use_case_name="SipDp",
        duration=12.0,
        attack_start=2.0,
        attack_stop=11.0,
        migration_policy=MigrationPolicy(),
    )
    swaps = [decision for decision in cell["decisions"] if decision.action == "swap"]
    assert len(swaps) == cell["swaps"] >= 1
    assert {decision.subject for decision in swaps} == {"tuplechain"}
    assert _actions(cell["decisions"], "migration") == {"start", "swap", "hold"}
    # Hybrid mode: the swap collapsed the scan cost, so the guard's first
    # pass stands down and deletes nothing.
    assert _actions(cell["decisions"], "mfcguard") == {"stand_down"}
    assert cell["entries_deleted"] == 0


def test_guard_deletions_match_the_megaflow_drop(monkeypatch):
    passes = []
    original = MFCGuard.run

    def counted(guard, now):
        before = guard.datapath.n_megaflows
        decisions = original(guard, now)
        passes.append((decisions, before - guard.datapath.n_megaflows))
        return decisions

    monkeypatch.setattr(MFCGuard, "run", counted)
    mfcguard._one_run(True, duration=21.0, attack_start=2.0)
    assert [decisions[0].at for decisions, _drop in passes] == [10.0, 20.0]
    for decisions, drop in passes:
        assert sum(decision.changed for decision in decisions) == drop
    assert sum(drop for _decisions, drop in passes) > 0
