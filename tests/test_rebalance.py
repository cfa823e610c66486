"""Live RSS rebalancing: salted hashes, re-map migration, the controller.

The re-map invariants under test (ROADMAP item 5):

* ``salt=0`` is bit-for-bit the historical un-salted hash everywhere
  (scalar, columns, uniform), so every paper preset is byte-identical;
* the vectorised and scalar salted hashes agree for every salt — the
  shared differential that keeps the fleet's column kernel honest after
  a re-key;
* a re-key genuinely *scatters*: FNV-1a's low bits are affine in the
  salt, so without the salted path's finalizer a ground trace would move
  between queues as a block (the regression test that pins the fix);
* re-maps preserve the aggregate ``(mask, masked key)`` union, carry the
  §8 dead-entry records along, and are no-ops on one shard — under the
  serial, thread and process executors;
* the controller re-arms on cooldown expiry even when the skew never
  collapses — the discipline that keeps the defender playing against an
  attacker who re-concentrates after every re-map.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classifier.tss import TupleSpaceSearch
from repro.core.rebalance import RebalanceController, RebalancePolicy
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import ExperimentError, SwitchError
from repro.netsim.cloud import MULTIQUEUE_ENV, Server
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import DatapathConfig
from repro.switch.dpctl import show
from repro.switch.rss import (
    RSS_FIELDS,
    RetaDispatcher,
    RssDispatcher,
    five_tuple_hash,
    five_tuple_hash_columns,
    uniform_key_hash,
)
from repro.switch.sharded import ShardedDatapath

SALTS = (1, 0x9E3779B9, 0xDEADBEEF, 0xFFFFFFFF)


def some_keys(n: int = 64, seed: int = 7) -> list[FlowKey]:
    rng = np.random.default_rng(seed)
    return [
        FlowKey(
            ip_src=int(rng.integers(0, 1 << 32)),
            ip_dst=int(rng.integers(0, 1 << 32)),
            tp_src=int(rng.integers(0, 1 << 16)),
            tp_dst=int(rng.integers(0, 1 << 16)),
            ip_proto=PROTO_TCP,
        )
        for _ in range(n)
    ]


def detonated(n_shards: int, executor: str = "serial") -> tuple[ShardedDatapath, list[FlowKey]]:
    """A sharded SipDp datapath with the §5 staircase installed."""
    table = SIPDP.build_table()
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    keys = list(trace.keys)
    datapath = ShardedDatapath(
        table,
        DatapathConfig(microflow_capacity=0, executor=executor),
        n_shards=n_shards,
    )
    datapath.process_batch(keys)
    return datapath, keys


def entry_union(datapath: ShardedDatapath) -> set:
    return {
        (e.mask.values, e.key)
        for shard in datapath.shards
        for e in shard.megaflows.entries()
    }


class TestSaltedHash:
    def test_salt_zero_is_the_historical_hash(self):
        """Golden values: un-salted hashing is frozen (paper presets)."""
        k1 = FlowKey(ip_src=0x0A000001, ip_dst=0x0A000002, tp_src=1234, tp_dst=80,
                     ip_proto=6)
        k2 = FlowKey(ip_src=0xC0A80101, ip_dst=0x08080808, tp_src=53, tp_dst=443,
                     ip_proto=17)
        assert five_tuple_hash(k1) == 0x86790BBE
        assert five_tuple_hash(k2) == 0x8C939033
        assert five_tuple_hash(k1, 0) == five_tuple_hash(k1)
        assert uniform_key_hash(k1, 0) == uniform_key_hash(k1)

    def test_columns_match_scalar_for_every_salt(self):
        """The shared differential: vectorised ≡ scalar, salted or not."""
        keys = some_keys()
        columns = {
            name: np.asarray([key[name] for key in keys], dtype=np.int64)
            for name in RSS_FIELDS
        }
        for salt in (0, *SALTS):
            hashes = five_tuple_hash_columns(columns, salt=salt)
            assert [int(h) for h in hashes] == [
                five_tuple_hash(key, salt) for key in keys
            ]

    def test_salts_decorrelate(self):
        """Different salts give different placements for most keys."""
        keys = some_keys(256)
        for hash_fn in (five_tuple_hash, uniform_key_hash):
            base = [hash_fn(k, SALTS[0]) % 4 for k in keys]
            other = [hash_fn(k, SALTS[1]) % 4 for k in keys]
            moved = sum(1 for a, b in zip(base, other) if a != b)
            assert moved > len(keys) // 2, hash_fn.__name__

    def test_rekey_scatters_a_ground_trace(self):
        """A set ground onto one queue must not move as a block.

        FNV-1a's low bits are affine over GF(2) in the initial state, so
        for fixed-length keys a bare salted variant differs from the
        un-salted hash by a *constant* XOR in the bits a queue index is
        taken from — a re-key would relocate a whole ground trace to one
        new queue, concentration intact.  The salted path's finalizer is
        what breaks this; here is the regression test.
        """
        ground = [k for k in some_keys(2048, seed=3) if five_tuple_hash(k) % 4 == 0]
        assert len(ground) > 300
        for salt in SALTS:
            queues = {five_tuple_hash(k, salt) % 4 for k in ground}
            assert len(queues) == 4, f"salt {salt:#x} moved the trace as a block"

    @given(
        ip_src=st.integers(0, 0xFFFFFFFF),
        ip_dst=st.integers(0, 0xFFFFFFFF),
        ip_proto=st.integers(0, 0xFF),
        tp_src=st.integers(0, 0xFFFF),
        tp_dst=st.integers(0, 0xFFFF),
        salt=st.integers(0, 0xFFFFFFFF),
    )
    def test_columns_scalar_differential_property(
        self, ip_src, ip_dst, ip_proto, tp_src, tp_dst, salt
    ):
        key = FlowKey(
            ip_src=ip_src, ip_dst=ip_dst, ip_proto=ip_proto,
            tp_src=tp_src, tp_dst=tp_dst,
        )
        columns = {
            name: np.asarray([key[name]], dtype=np.int64) for name in RSS_FIELDS
        }
        assert int(five_tuple_hash_columns(columns, salt=salt)[0]) == five_tuple_hash(
            key, salt
        )


class TestRetaDispatcher:
    def test_default_placement_matches_plain_rss(self):
        plain = RssDispatcher(4)
        reta = RetaDispatcher(4)
        for key in some_keys():
            assert reta.queue_of(key) == plain.queue_of(key)

    def test_salt_and_reta_validation(self):
        with pytest.raises(SwitchError):
            RetaDispatcher(4, salt=-1)
        with pytest.raises(SwitchError):
            RetaDispatcher(4, salt=1 << 32)
        with pytest.raises(SwitchError):
            RetaDispatcher(4, reta=())
        with pytest.raises(SwitchError):
            RetaDispatcher(4, reta=(0, 1, 4))

    def test_with_salt_and_with_reta_route_differently(self):
        base = RetaDispatcher(4)
        rekeyed = base.with_salt(0x9E3779B9)
        rotated = base.with_reta(tuple((q + 1) % 4 for q in base.reta))
        keys = some_keys(128)
        assert any(base.queue_of(k) != rekeyed.queue_of(k) for k in keys)
        for key in keys:
            assert rotated.queue_of(key) == (base.queue_of(key) + 1) % 4
        assert "salt=0x9e3779b9" in repr(rekeyed)


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
class TestRemapMigration:
    def test_union_invariant_and_idempotent(self, executor):
        datapath, keys = detonated(4, executor=executor)
        try:
            before = entry_union(datapath)
            before_masks = datapath.n_masks
            rekeyed = RetaDispatcher(4, five_tuple_hash, salt=SALTS[1])
            moved = datapath.rebalance(rekeyed)
            assert datapath.remaps == 1
            assert moved == datapath.entries_moved > 0
            assert entry_union(datapath) == before
            assert datapath.n_masks == before_masks
            # Every entry sits at its masked key's home now.
            for shard_id, shard in enumerate(datapath.shards):
                for entry in shard.megaflows.entries():
                    assert rekeyed.queue_of(FlowKey.from_values(entry.key)) == shard_id
            # Re-mapping onto the same dispatcher moves nothing more.
            assert datapath.rebalance(rekeyed.with_salt(SALTS[1])) == 0
            assert datapath.entries_moved == moved
            # Entries re-home by masked key, packets dispatch by full
            # 5-tuple: a first replay may re-warm copies on the packets'
            # new queues, a second must take no upcall — placement
            # transients, never losses.
            datapath.process_batch(keys)
            warmed = datapath.stats.upcalls
            datapath.process_batch(keys)
            assert datapath.stats.upcalls == warmed
            # The way back (salt 0) preserves the union too: re-warmed
            # duplicates share (mask, masked key) and converge on one home.
            datapath.rebalance(rekeyed.with_salt(0))
            assert entry_union(datapath) == before
        finally:
            datapath.close()

    def test_one_shard_remap_is_a_noop(self, executor):
        datapath, _keys = detonated(1, executor=executor)
        try:
            before = entry_union(datapath)
            assert datapath.rebalance(RetaDispatcher(1, five_tuple_hash, salt=5)) == 0
            assert entry_union(datapath) == before
        finally:
            datapath.close()


def test_rebalance_install_appends_to_the_index_once(monkeypatch):
    """A shard adopts a re-map's entries under one index burst: one
    accelerator append per ``rebalance_install`` call, not one per entry,
    and every adopted entry is found by a scan of its new shard."""
    datapath, _keys = detonated(2)
    before = entry_union(datapath)
    source, target = datapath.shards
    delta = source.rebalance_extract(RetaDispatcher(2, five_tuple_hash, salt=SALTS[1]), 0)
    assert len(delta["entries"]) > 10 and not target.megaflows._acc_dirty
    appends = []
    slot_append = TupleSpaceSearch._slot_append

    def counting(store, entries, *args):
        appends.append(len(entries))
        return slot_append(store, entries, *args)

    monkeypatch.setattr(TupleSpaceSearch, "_slot_append", counting)
    stored = target.rebalance_install(delta["entries"], delta["dead"])
    assert stored > 10 and appends == [stored]
    assert entry_union(datapath) == before
    for entry in delta["entries"]:
        assert target.megaflows.lookup(FlowKey.from_values(entry.key)).entry is target.megaflows.get_entry(
            entry.mask, entry.key
        )


class TestRemapRaces:
    def test_flow_table_delta_between_remaps(self):
        """A policy change mid-game flushes cleanly; re-maps keep working."""
        datapath, keys = detonated(2)
        datapath.rebalance(RetaDispatcher(2, five_tuple_hash, salt=SALTS[0]))
        assert datapath.n_megaflows > 0
        # The tenant pushes a rule update: every shard flushes, and the
        # re-mapped dispatcher stays installed.
        from repro.classifier.actions import DENY
        from repro.classifier.rule import Match

        datapath.flow_table.add_rule(
            Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late"
        )
        assert datapath.n_megaflows == 0
        assert getattr(datapath.rss, "salt", 0) == SALTS[0]
        # Traffic re-detonates under the new table; the next re-map still
        # preserves the refilled union.
        datapath.process_batch(keys)
        refilled = entry_union(datapath)
        assert refilled
        datapath.rebalance(datapath.rss.with_salt(SALTS[1]))
        assert entry_union(datapath) == refilled

    def test_guard_sweep_concurrent_with_rekey(self):
        """MFCGuard's dead-entry records ride along with a re-map."""
        from repro.core.mitigation import MFCGuard, MFCGuardConfig

        datapath, keys = detonated(2)
        guard = MFCGuard(
            datapath, MFCGuardConfig(mask_threshold=50, cpu_threshold_pct=900)
        )
        report = guard.run(now=10.0)
        assert report.entries_deleted > 0
        dead_before = {
            record for shard in datapath.shards for record in shard._dead_entries
        }
        assert dead_before
        datapath.rebalance(RetaDispatcher(2, five_tuple_hash, salt=SALTS[2]))
        # Union preserved, and every record lives at its masked key's home.
        dead_after = {}
        for shard_id, shard in enumerate(datapath.shards):
            for mask, key in shard._dead_entries:
                dead_after[(mask, key)] = shard_id
        assert set(dead_after) == dead_before
        for (_mask, key), shard_id in dead_after.items():
            assert datapath.shard_of(FlowKey.from_values(key)) == shard_id
        # The §8 quirk survives the move: replaying the killed flows is
        # suppressed on the new home shard, not reinstalled.
        suppressed_before = datapath.stats.dead_entry_suppressed
        datapath.process_batch(keys)
        assert datapath.stats.dead_entry_suppressed > suppressed_before

    def test_shard_count_mismatch_rejected(self):
        datapath, _keys = detonated(2)
        with pytest.raises(SwitchError):
            datapath.rebalance(RetaDispatcher(4, five_tuple_hash, salt=1))


class FakeDatapath:
    """Drives the controller with scripted per-shard costs."""

    def __init__(self, costs, n_shards=4):
        self.costs = list(costs)
        self.n_shards = n_shards
        self.rss = RssDispatcher(n_shards)
        self.remap_log: list[int] = []

    def core_report(self):
        return [SimpleNamespace(scan_cost=c) for c in self.costs]

    def rebalance(self, dispatcher):
        self.rss = dispatcher
        self.remap_log.append(getattr(dispatcher, "salt", 0))
        return 100


class TestRebalanceController:
    def test_skew_and_floor_gate_the_trigger(self):
        policy = RebalancePolicy(skew_threshold=3.0, cost_floor=64.0)
        # Benign: high skew, tiny cost — must not churn.
        idle = RebalanceController(FakeDatapath([10, 1, 1, 1]), policy)
        assert not idle.run(now=1.0).remapped
        # Even load: big cost, no skew.
        even = RebalanceController(FakeDatapath([500, 480, 510, 505]), policy)
        assert not even.run(now=1.0).remapped
        # The attack signature: one hot shard past the floor.
        hot = RebalanceController(FakeDatapath([2000, 20, 25, 15]), policy)
        report = hot.run(now=1.0)
        assert report.remapped and report.salt != 0
        assert report.skew > 3.0
        assert report.entries_moved == 100

    def test_cooldown_blocks_then_time_rearms(self):
        """The defender gets a move every round: renewed concentration
        after the cooldown re-triggers even though skew never collapsed
        (a skew-collapse-only re-arm would disarm the defender forever
        against an attacker that re-grinds immediately)."""
        datapath = FakeDatapath([2000, 20, 25, 15])
        ctrl = RebalanceController(
            datapath, RebalancePolicy(skew_threshold=3.0, cooldown=5.0)
        )
        assert ctrl.run(now=1.0).remapped
        # Skew stays high (the attacker re-concentrated instantly) — the
        # cooldown holds the defender back...
        assert not ctrl.run(now=3.0).remapped
        # ...but its expiry re-arms the trigger unconditionally.
        assert ctrl.run(now=6.5).remapped
        assert ctrl.remaps_completed == 2
        assert len(set(datapath.remap_log)) == 2, "each re-key gets a fresh salt"

    def test_each_report_counts_its_own_run(self):
        """Two re-maps: each report carries the entries *its* run moved;
        the datapath keeps the running total."""
        datapath, _keys = detonated(2)
        ctrl = RebalanceController(
            datapath, RebalancePolicy(skew_threshold=1.0, cost_floor=0.0, cooldown=0.0)
        )
        first, second = ctrl.run(now=1.0), ctrl.run(now=2.0)
        assert first.remapped and second.remapped
        assert first.entries_moved > 0 and second.entries_moved > 0
        assert first.entries_moved + second.entries_moved == datapath.entries_moved
        assert second.salt == datapath.rss.salt != first.salt

    def test_tick_cadence(self):
        ctrl = RebalanceController(
            FakeDatapath([1, 1, 1, 1]), RebalancePolicy(period=0.5)
        )
        assert not ctrl.tick(0.1).ran
        assert ctrl.tick(0.6).ran
        assert not ctrl.tick(0.7).ran

    def test_single_shard_never_remaps(self):
        ctrl = RebalanceController(FakeDatapath([5000], n_shards=1))
        assert not ctrl.run(now=1.0).remapped

    def test_reta_mode_rotates(self):
        datapath = FakeDatapath([2000, 20, 25, 15])
        ctrl = RebalanceController(
            datapath, RebalancePolicy(skew_threshold=3.0, mode="reta")
        )
        assert ctrl.run(now=1.0).remapped
        assert isinstance(datapath.rss, RetaDispatcher)
        assert datapath.rss.salt == 0
        assert datapath.rss.reta == tuple((i + 1) % 4 for i in RetaDispatcher(4).reta)

    def test_policy_validation(self):
        for bad in (
            dict(skew_threshold=0.5),
            dict(cost_floor=-1),
            dict(cooldown=-1),
            dict(period=0),
            dict(mode="shuffle"),
        ):
            with pytest.raises(ExperimentError):
                RebalancePolicy(**bad)


class TestDpctlAndWiring:
    def test_show_renders_the_rebalance_line(self):
        datapath, _keys = detonated(2)
        assert "rebalance: idle salt:0x0" in show(datapath)
        datapath.rebalance(RetaDispatcher(2, five_tuple_hash, salt=SALTS[1]))
        rendered = show(datapath)
        assert "rebalance: remaps:1" in rendered
        assert f"salt:{SALTS[1]:#x}" in rendered

    def test_cloud_profile_wires_the_controller(self):
        policy = RebalancePolicy(skew_threshold=2.0)
        armed = Server("s1", replace(MULTIQUEUE_ENV, rebalance_policy=policy))
        assert armed.host.rebalancer is not None
        assert armed.host.rebalancer.policy is policy
        # Without a policy (every paper preset) nothing is wired.
        assert Server("s2", MULTIQUEUE_ENV).host.rebalancer is None
        # A single-PMD profile has nothing to re-map.
        single = replace(
            MULTIQUEUE_ENV, n_pmd=1, rebalance_policy=policy
        )
        assert Server("s3", single).host.rebalancer is None

    def test_game_recovers_the_victim_and_tracks_its_home(self):
        """A miniature rsssweep round-trip: the defender re-maps and the
        hypervisor re-pins the victim's home shards to the new placement."""
        from repro.experiments.rsssweep import run_policy_cell

        cell = run_policy_cell(
            "rebalance",
            use_case_name="SipDp",
            duration=10.0,
            attack_start=2.0,
            attack_stop=9.0,
            round_period=4.0,
            rebalance_policy=RebalancePolicy(
                skew_threshold=1.5, cost_floor=32.0, cooldown=1.0, period=0.25
            ),
        )
        assert cell["remaps"] >= 1
        assert cell["entries_moved"] > 0
        assert cell["final_salt"] != 0
        # The attacker's later grinds saw the victim's *recomputed* home
        # (a stale home would leave the retarget report aiming at queue 0
        # forever while the victim had moved).
        assert cell["rounds"] >= 2
