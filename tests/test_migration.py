"""Live-backend-migration tests: rebuild contract, swap races, controller.

The migration invariants under test (ISSUE 8 / ROADMAP item 3):

* the rebuild adopts the *same entry objects* the truth-store dicts hold,
  so a swap is verdict-for-verdict invisible — replay actions match a
  never-migrated datapath fed the identical history, entry/mask counts
  are preserved exactly, and the microflow cache stays valid with no
  flush at the swap;
* the delta journal carries every mid-rebuild mutation (installs, kills,
  idle evictions, full flushes) into the target, so maintenance daemons
  (revalidator, MFCGuard) and flow-table deltas can run concurrently with
  an in-flight rebuild under every executor strategy — mirroring the
  ``tests/test_executor.py`` equivalence invariants;
* :class:`~repro.core.migration.MigrationController` triggers on the
  probe-cost plane with hysteresis + cooldown, never re-triggers on the
  target backend, and arms a co-deployed MFCGuard's chain-aware
  stand-down (hybrid mode);
* ``dpctl show`` renders the per-shard ``backend:`` and ``migration:``
  operator lines through the same proxies as the rest of the management
  plane.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from test_executor import assert_equivalent, build, small_table, staircase_replay

from repro.classifier.actions import DENY
from repro.classifier.backend import BackendRebuild
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.core.detector import find_tse_entries
from repro.core.migration import MigrationController, MigrationPolicy
from repro.core.mitigation import MFCGuard, MFCGuardConfig
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import ClassifierError, ExperimentError, SwitchError
from repro.netsim.cloud import SYNTHETIC_ENV, Server
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken
from repro.switch.dpctl import show
from repro.switch.revalidator import Revalidator

EXECUTORS = ("serial", "thread", "process")


def sipdp_detonation() -> tuple[FlowTable, list[FlowKey]]:
    """SipDp's ~500-mask staircase: a real detonation that stays test-sized."""
    table = SIPDP.build_table()
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    return table, list(trace.keys)


def plain(table: FlowTable, backend: str = "tss", microflows: int = 0) -> Datapath:
    return Datapath(
        table,
        DatapathConfig(microflow_capacity=microflows, megaflow_backend=backend),
    )


def replay_actions(datapath, keys):
    """Memo-less replay actions — the cross-backend comparable quantity."""
    for shard in datapath.shards:
        shard.megaflows.clear_memo()
    return [verdict.action for verdict in datapath.process_batch(keys)]


class TestRebuildContract:
    def test_one_shot_swap_is_verdict_invisible(self):
        """Post-swap replay matches a never-migrated tuplechain datapath."""
        table, keys = sipdp_detonation()
        migrating = plain(table)
        migrating.process_batch(keys)
        reference = plain(SIPDP.build_table(), backend="tuplechain")
        reference.process_batch(keys)

        pre_entries = migrating.megaflows.n_entries
        pre_masks = migrating.n_masks
        pre_ids = {id(entry) for entry in migrating.megaflows.entries()}
        expected = replay_actions(reference, keys)
        assert replay_actions(migrating, keys) == expected

        status = migrating.migrate_backend("tuplechain")
        assert status.migration == "swapped"
        assert status.swaps == 1
        assert migrating.megaflows.name == "tuplechain"
        # The rebuild adopted the *same* entry objects, every one of them.
        assert {id(entry) for entry in migrating.megaflows.entries()} == pre_ids
        assert migrating.megaflows.n_entries == pre_entries
        assert migrating.n_masks == pre_masks
        assert replay_actions(migrating, keys) == expected

    def test_microflow_cache_survives_swap_without_flush(self):
        """Shared entry objects keep microflow identity checks valid."""
        table, keys = sipdp_detonation()
        datapath = plain(table, microflows=64)
        key = keys[0]
        datapath.process(key)
        assert datapath.process(key).path is PathTaken.MICROFLOW
        datapath.migrate_backend("tuplechain")
        # No flush happened: the cached entry still passes find_entry.
        assert datapath.process(key).path is PathTaken.MICROFLOW

    def test_journal_carries_mid_rebuild_mutations(self):
        """Installs, kills and idle evictions during the rebuild land in
        the target — the swapped cache matches a never-migrated twin.  A
        whole TSE pattern killed at once journals a run of removals, which
        the replay hands to the target's bulk removal in one call."""
        table, keys = sipdp_detonation()
        migrating = plain(table)
        shadow = plain(SIPDP.build_table())  # same backend, never migrated
        for datapath in (migrating, shadow):
            datapath.process_batch(keys, now=0.0)

        status = migrating.migrate_backend_start("tuplechain", slice_size=64)
        assert status.migration == "rebuilding"
        assert 0.0 < migrating.migrate_backend_step(64).progress < 1.0

        # Mid-rebuild mutations, applied identically to the shadow twin: a
        # whole pattern killed, a full idle eviction, fresh re-installs, and
        # a whole pattern of those killed for good (insert + remove +
        # re-insert all land in the delta journal).
        extra = keys[: len(keys) // 4]

        def kill_largest_pattern(datapath, permanent):
            patterns = find_tse_entries(datapath.megaflows, table)
            entries = max(patterns, key=lambda pattern: len(pattern.entries)).entries
            assert 1 < len(entries) < datapath.megaflows.n_entries
            assert datapath.kill_entries(entries, permanent=permanent) == len(entries)

        for datapath in (migrating, shadow):
            kill_largest_pattern(datapath, permanent=False)
            datapath.evict_idle(now=12.0)  # the idle detonation entries go
            assert datapath.megaflows.n_entries == 0
            datapath.process_batch(extra, now=13.0)  # fresh installs
            kill_largest_pattern(datapath, permanent=True)
            assert datapath.megaflows.n_entries > 0

        while True:
            status = migrating.migrate_backend_step(64)
            if status.rebuild_done:
                break
        assert status.journal_replayed > 0
        status = migrating.migrate_backend_swap()
        assert status.migration == "swapped"
        assert migrating.megaflows.name == "tuplechain"
        assert migrating.megaflows.n_entries == shadow.megaflows.n_entries
        assert migrating.n_masks == shadow.n_masks
        assert replay_actions(migrating, extra) == replay_actions(shadow, extra)
        assert replay_actions(migrating, keys) == replay_actions(shadow, keys)

    def test_flush_mid_rebuild_empties_the_target(self):
        """A flow-table delta flushes the live cache *and* the rebuild."""
        table, keys = sipdp_detonation()
        datapath = plain(table)
        datapath.process_batch(keys)
        datapath.migrate_backend_start("tuplechain", slice_size=64)
        datapath.migrate_backend_step(64)
        table.add_rule(Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late")
        assert datapath.megaflows.n_entries == 0  # subscription flushed
        while not datapath.migrate_backend_step(64).rebuild_done:
            pass
        status = datapath.migrate_backend_swap()
        assert status.migration == "swapped"
        assert datapath.megaflows.n_entries == 0
        assert datapath.n_masks == 0

    def test_abort_keeps_the_live_backend(self):
        table, keys = sipdp_detonation()
        datapath = plain(table)
        datapath.process_batch(keys)
        datapath.migrate_backend_start("tuplechain", slice_size=64)
        status = datapath.migrate_backend_abort()
        assert status.migration == "idle"
        assert datapath.megaflows.name == "tss"
        # A fresh start is legal after an abort (and abort is idempotent).
        datapath.migrate_backend_abort()
        assert datapath.migrate_backend("tuplechain").migration == "swapped"

    def test_migration_state_errors(self):
        datapath = plain(small_table())
        with pytest.raises(SwitchError, match="no backend migration"):
            datapath.migrate_backend_step()
        with pytest.raises(SwitchError, match="no backend migration"):
            datapath.migrate_backend_swap()
        datapath.migrate_backend_start("tuplechain")
        with pytest.raises(SwitchError, match="already in progress"):
            datapath.migrate_backend_start("tuplechain")

    def test_rebuild_rejects_bad_arguments(self):
        datapath = plain(small_table())
        with pytest.raises(ClassifierError):
            BackendRebuild(datapath.megaflows, "tuplechain", slice_size=0)
        with pytest.raises(ClassifierError):
            BackendRebuild(object(), "tuplechain")


class TestSwapUnderExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_swap_with_concurrent_maintenance(self, executor):
        """Guard run + revalidator sweep + flow-table delta + fresh traffic
        during an in-flight rebuild: the swapped executor datapath stays
        fully equivalent to a serial one driven identically."""
        table_a, keys = staircase_replay(extra=40)
        table_b = FlowTable(rules=list(table_a))
        reference = build("serial", table_a, n_shards=2)
        other = build(executor, table_b, n_shards=2)
        try:
            for datapath in (reference, other):
                datapath.process_batch(keys, now=0.0)
                # In-flight rebuild on every shard (through the proxies
                # under the process executor: the rebuild runs inside the
                # owning worker, entry objects never cross the boundary).
                for shard in datapath.shards:
                    shard.migrate_backend_start("tuplechain", slice_size=64)
                    shard.migrate_backend_step(64)
                # Concurrent maintenance while the rebuild is in flight.
                guard = MFCGuard(
                    datapath,
                    MFCGuardConfig(mask_threshold=50, cpu_threshold_pct=900),
                )
                guard.run(now=10.0)
                Revalidator(datapath, period=1.0).sweep(now=11.0)
            late_a = table_a.add_rule(
                Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late"
            )
            table_b.add_rule(
                Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late"
            )
            assert late_a is not None
            for datapath in (reference, other):
                datapath.process_batch(keys[: len(keys) // 2], now=12.0)
                for shard in datapath.shards:
                    while not shard.migrate_backend_step(64).rebuild_done:
                        pass
                    assert shard.migrate_backend_swap().migration == "swapped"
            statuses = other.executor.call_all("snapshot")
            assert [s.backend for s in statuses] == ["tuplechain", "tuplechain"]
            assert [s.swaps for s in statuses] == [1, 1]
            expected = reference.process_batch(keys, now=20.0)
            got = other.process_batch(keys, now=20.0)
            assert_equivalent(
                reference, other, expected, got, f"migration/{executor}"
            )
        finally:
            other.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_sharded_one_shot_migrate_backend(self, executor):
        """ShardedDatapath.migrate_backend swaps every shard atomically
        under the maintenance lock and reports per-shard statuses."""
        table, keys = staircase_replay(extra=0)
        datapath = build(executor, table, n_shards=2)
        try:
            datapath.process_batch(keys, now=0.0)
            statuses = datapath.migrate_backend("tuplechain")
            assert [s.migration for s in statuses] == ["swapped", "swapped"]
            assert all(s.backend == "tuplechain" for s in statuses)
        finally:
            datapath.close()

    def test_sharded_selective_shard_migration(self):
        table, keys = staircase_replay(extra=0)
        datapath = build("serial", table, n_shards=2)
        datapath.process_batch(keys, now=0.0)
        statuses = datapath.migrate_backend("tuplechain", shard_id=0)
        assert statuses[0].migration == "swapped"
        assert statuses[1].migration == "idle"
        assert statuses[1].backend == "tss"

    @pytest.mark.parametrize("shard_id", (7, 2, -1))
    def test_out_of_range_shard_id_is_refused(self, shard_id):
        """A shard id that names no shard used to migrate nothing, silently."""
        table, keys = staircase_replay(extra=0)
        datapath = build("serial", table, n_shards=2)
        datapath.process_batch(keys, now=0.0)
        with pytest.raises(SwitchError, match=f"no shard {shard_id}"):
            datapath.migrate_backend("tuplechain", shard_id=shard_id)
        assert [shard.megaflows.name for shard in datapath.shards] == ["tss", "tss"]


class TestMigrationController:
    def detonated(self) -> Datapath:
        table, keys = sipdp_detonation()
        datapath = plain(table)
        datapath.process_batch(keys)
        return datapath

    def test_triggers_and_swaps_on_cost(self):
        datapath = self.detonated()
        assert datapath.scan_cost > 50.0
        controller = MigrationController(
            datapath, MigrationPolicy(cost_threshold=50.0, slice_entries=100_000)
        )
        report = controller.run(now=0.0)
        assert report.started == (0,)
        assert report.swapped == (0,)
        assert controller.migrations_completed == 1
        assert datapath.megaflows.name == "tuplechain"

    def test_bounded_slices_spread_the_rebuild(self):
        datapath = self.detonated()
        controller = MigrationController(
            datapath, MigrationPolicy(cost_threshold=50.0, slice_entries=64)
        )
        report = controller.run(now=0.0)
        assert report.started == (0,) and report.swapped == ()
        runs = 1
        while controller.migrations_completed == 0:
            controller.run(now=float(runs))
            runs += 1
            assert runs < 100
        assert runs > 1  # the rebuild genuinely spread over several passes
        assert datapath.megaflows.name == "tuplechain"

    def test_a_failed_swap_is_aborted_and_raised(self, monkeypatch):
        datapath = self.detonated()
        controller = MigrationController(
            datapath, MigrationPolicy(cost_threshold=50.0, slice_entries=100_000)
        )

        def diverged(rebuild):
            rebuild.detach()
            raise ClassifierError("rebuild diverged from the truth store")

        monkeypatch.setattr(BackendRebuild, "finish", diverged)
        with pytest.raises(ClassifierError, match="diverged"):
            controller.run(now=0.0)
        assert datapath.snapshot().migration == "idle"
        assert datapath.megaflows.name == "tss"
        assert controller.migrations_completed == 0
        monkeypatch.undo()  # the next pass starts afresh and swaps
        assert controller.run(now=1.0).swapped == (0,)
        assert datapath.megaflows.name == "tuplechain"

    def test_no_retrigger_after_swap(self):
        datapath = self.detonated()
        controller = MigrationController(
            datapath, MigrationPolicy(cost_threshold=50.0, slice_entries=100_000)
        )
        controller.run(now=0.0)
        for now in (0.1, 31.0, 300.0):  # inside and far past the cooldown
            report = controller.run(now=now)
            assert report.started == ()
        assert controller.migrations_completed == 1

    def test_cooldown_and_hysteresis_gate_restarts(self):
        datapath = self.detonated()
        policy = MigrationPolicy(cost_threshold=50.0, cooldown=30.0)
        controller = MigrationController(datapath, policy)
        # A swapped-and-still-expensive shard must not flap: disarmed, the
        # trigger stays off while the cost sits above the re-arm level.
        snapshot = datapath.snapshot()
        expensive = replace(snapshot, scan_cost=policy.cost_threshold * 0.9)
        controller._armed[0] = False
        assert not controller._should_start(0, expensive, now=100.0)
        cheap = replace(snapshot, scan_cost=1.0)
        assert not controller._should_start(0, cheap, now=100.0)  # re-arms only
        assert controller._armed[0]
        # Re-armed but cooling down: still gated.
        controller._cooldown_until[0] = 200.0
        hot = replace(snapshot, scan_cost=policy.cost_threshold * 10)
        assert not controller._should_start(0, hot, now=150.0)
        assert controller._should_start(0, hot, now=250.0)

    def test_tick_respects_period(self):
        datapath = plain(small_table())
        controller = MigrationController(datapath, MigrationPolicy(period=0.5))
        assert not controller.tick(now=0.1).ran
        assert controller.tick(now=0.6).ran
        assert not controller.tick(now=0.7).ran

    def test_arms_guard_stand_down(self):
        datapath = plain(small_table())
        guard = MFCGuard(datapath, MFCGuardConfig(mask_threshold=50))
        assert guard.config.probe_cost_threshold is None
        MigrationController(datapath, MigrationPolicy(cost_threshold=512.0), guard=guard)
        assert guard.config.probe_cost_threshold == 512.0

        # An operator-set threshold wins; stand_down_guard=False opts out.
        tuned = MFCGuard(
            datapath, MFCGuardConfig(mask_threshold=50, probe_cost_threshold=10.0)
        )
        MigrationController(datapath, MigrationPolicy(), guard=tuned)
        assert tuned.config.probe_cost_threshold == 10.0
        plain_guard = MFCGuard(datapath, MFCGuardConfig(mask_threshold=50))
        MigrationController(
            datapath, MigrationPolicy(stand_down_guard=False), guard=plain_guard
        )
        assert plain_guard.config.probe_cost_threshold is None

    def test_policy_validation(self):
        for bad in (
            dict(cost_threshold=0.0),
            dict(hysteresis=0.0),
            dict(hysteresis=1.5),
            dict(cooldown=-1.0),
            dict(slice_entries=0),
            dict(period=0.0),
        ):
            with pytest.raises(ExperimentError):
                MigrationPolicy(**bad)


class TestDpctlRendering:
    def test_backend_and_migration_lines(self):
        table, keys = sipdp_detonation()
        datapath = plain(table)
        datapath.process_batch(keys)
        text = show(datapath)
        assert "backend: tss" in text
        assert "migration: idle" in text

        datapath.migrate_backend_start("tuplechain", slice_size=64)
        datapath.migrate_backend_step(64)
        text = show(datapath)
        assert "migration: rebuilding -> tuplechain" in text
        assert "copied" in text and "replayed" in text

        while not datapath.migrate_backend_step(64).rebuild_done:
            pass
        datapath.migrate_backend_swap()
        text = show(datapath)
        assert "backend: tuplechain" in text
        assert "migration: swapped x1" in text

    def test_sharded_show_renders_per_pmd_migration(self):
        table, keys = staircase_replay(extra=0)
        datapath = build("process", table, n_shards=2)
        try:
            datapath.process_batch(keys)
            assert show(datapath).count("migration: idle") == 2
            datapath.migrate_backend("tuplechain")
            text = show(datapath)
            assert text.count("backend: tuplechain") == 2
            assert text.count("migration: swapped x1") == 2
        finally:
            datapath.close()


class TestEnvironmentWiring:
    def test_server_builds_migrator_only_when_policy_set(self):
        from dataclasses import replace

        armed = replace(
            SYNTHETIC_ENV,
            name="Synthetic/migrate",
            migration_policy=MigrationPolicy(cost_threshold=50.0),
        )
        server = Server("s1", armed)
        try:
            assert isinstance(server.host.migrator, MigrationController)
            assert server.host.migrator.policy.cost_threshold == 50.0
        finally:
            server.close()

        default = replace(SYNTHETIC_ENV, name="Synthetic/plain")
        server = Server("s2", default)
        try:
            assert server.host.migrator is None
        finally:
            server.close()
