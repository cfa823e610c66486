"""Sharded-datapath tests: RSS dispatch, shard equivalence, isolation.

The sharding invariants under test (see ROADMAP.md):

* ``ShardedDatapath(n_shards=1)`` is verdict-for-verdict identical to a
  plain :class:`Datapath` on attack replays;
* the aggregate installed-entry set (and therefore the distinct-mask
  union) is invariant to the shard count for a deterministic RSS;
* RSS assignment is stable for a flow's lifetime;
* queue-aware retargeting grinds only wildcarded bits, so the retargeted
  trace detonates the identical tuple space;
* per-core hypervisor accounting isolates victims from attacks
  concentrated on other queues.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.backend import megaflow_backend_names
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.netsim.cloud import MULTIQUEUE_ENV, SYNTHETIC_ENV
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.dpctl import dump_flows, mask_histogram, show
from repro.switch.rss import RssDispatcher, five_tuple_hash, pin_to_queue, retarget_trace
from repro.switch.sharded import ShardedDatapath


def attack_replay(seed: int = 0, extra: int = 200) -> tuple[FlowTable, list[FlowKey]]:
    """A detonating trace plus random replay noise over the SipDp table.

    SipDp's ~500-mask staircase keeps the sequential reference replay fast
    while still exercising a genuine multi-mask explosion.
    """
    table = SIPDP.build_table()
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    rng = np.random.default_rng(seed)
    noise = [
        FlowKey(
            ip_src=int(rng.integers(0, 1 << 32)),
            tp_src=int(rng.integers(0, 1 << 16)),
            tp_dst=int(rng.integers(0, 1 << 16)),
            ip_proto=PROTO_TCP,
        )
        for _ in range(extra)
    ]
    keys = list(trace.keys) + noise + list(trace.keys)[: len(trace) // 2]
    return table, keys


class TestRss:
    def test_hash_deterministic(self):
        key = FlowKey(ip_src=0x0A000001, tp_src=1234, tp_dst=80, ip_proto=6)
        assert five_tuple_hash(key) == five_tuple_hash(key)

    def test_assignment_stable_and_spread(self):
        dispatcher = RssDispatcher(4)
        rng = np.random.default_rng(1)
        keys = [
            FlowKey(ip_src=int(rng.integers(0, 1 << 32)), tp_src=int(rng.integers(0, 1 << 16)))
            for _ in range(400)
        ]
        queues = [dispatcher.queue_of(k) for k in keys]
        assert queues == [dispatcher.queue_of(k) for k in keys]  # stable
        counts = [queues.count(q) for q in range(4)]
        assert all(count > 50 for count in counts)  # roughly uniform

    def test_single_queue_shortcut(self):
        dispatcher = RssDispatcher(1)
        assert dispatcher.queue_of(FlowKey(ip_src=7)) == 0

    def test_partition_preserves_order(self):
        dispatcher = RssDispatcher(2)
        keys = [FlowKey(ip_src=i) for i in range(20)]
        buckets = dispatcher.partition(keys)
        assert sorted(i for ids in buckets.values() for i in ids) == list(range(20))
        for ids in buckets.values():
            assert ids == sorted(ids)

    def test_pin_to_queue(self):
        dispatcher = RssDispatcher(4)
        key = FlowKey(ip_src=0x0A00000A, ip_dst=0x0A00000B, ip_proto=6, tp_dst=5001)
        for queue in range(4):
            pinned = pin_to_queue(key, dispatcher, queue, field="tp_src")
            assert dispatcher.queue_of(pinned) == queue
            # Only the ground field changed.
            assert pinned.replace(tp_src=0) == key.replace(tp_src=0)


# Derived from the registry: a newly registered backend automatically
# inherits the sharding-invariant coverage.
BACKENDS = megaflow_backend_names()


class TestShardEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("microflow,mask_cache", [(0, False), (16, False), (0, True)])
    def test_one_shard_identical_to_datapath(self, microflow, mask_cache, backend):
        """ShardedDatapath(n_shards=1) ≡ Datapath, verdict for verdict.

        Parametrised over megaflow backends: the sharding layer composes
        whatever backend the config selects, so the invariant must hold
        (with backend-native ``masks_inspected`` units) for each.
        """
        config = DatapathConfig(
            microflow_capacity=microflow,
            enable_mask_cache=mask_cache,
            mask_cache_size=16,
            megaflow_backend=backend,
        )
        table_a, keys = attack_replay()
        table_b = FlowTable(rules=list(table_a))
        plain = Datapath(table_a, config)
        sharded = ShardedDatapath(table_b, config, n_shards=1)
        expected = [plain.process(k, now=1.0) for k in keys]
        got = list(sharded.process_batch(keys, now=1.0).verdicts)
        for i, (a, b) in enumerate(zip(expected, got)):
            assert a.action == b.action, i
            assert a.path == b.path, i
            assert a.masks_inspected == b.masks_inspected, i
            assert a.rules_examined == b.rules_examined, i
        assert sharded.n_masks == plain.n_masks
        assert sharded.n_megaflows == plain.n_megaflows
        assert sharded.stats.upcalls == plain.stats.upcalls
        assert sharded.stats.installs == plain.stats.installs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aggregate_totals_invariant_to_shard_count(self, backend):
        """The installed entry/mask union is shard-count independent."""
        config = DatapathConfig(microflow_capacity=0, megaflow_backend=backend)
        unions = []
        mask_unions = []
        for n_shards in (1, 2, 4):
            table, keys = attack_replay()
            datapath = ShardedDatapath(
                FlowTable(rules=list(table)), config, n_shards=n_shards
            )
            datapath.process_batch(keys)
            unions.append({(e.mask.values, e.key) for e in datapath.entries()})
            mask_unions.append(
                {m for shard in datapath.shards for m in shard.megaflows.masks()}
            )
            assert datapath.n_masks == len(mask_unions[-1])
        assert unions[0] == unions[1] == unions[2]
        assert mask_unions[0] == mask_unions[1] == mask_unions[2]

    def test_flows_stay_on_their_shard(self):
        """Every entry lives in the shard RSS assigns its packets to."""
        table, keys = attack_replay(extra=50)
        datapath = ShardedDatapath(table, DatapathConfig(microflow_capacity=0), n_shards=4)
        batch = datapath.process_batch(keys)
        for key, shard_id in zip(keys, batch.shard_ids):
            assert shard_id == datapath.shard_of(key)
        # Each flow's megaflow was installed in its RSS home shard.  (A
        # *different* flow may install the same wildcarded entry in its
        # own shard, so exclusivity is not an invariant — presence is.)
        for key in set(keys):
            home = datapath.shard_of(key)
            assert datapath.shards[home].megaflows.find(key) is not None
        # And every packet was processed by exactly its home shard.
        per_shard_packets = [shard.stats.packets for shard in datapath.shards]
        assert sum(per_shard_packets) == len(keys)
        expected = [0] * datapath.n_shards
        for key in keys:
            expected[datapath.shard_of(key)] += 1
        assert per_shard_packets == expected

    def test_flow_table_change_flushes_every_shard(self):
        table, keys = attack_replay(extra=0)
        datapath = ShardedDatapath(table, DatapathConfig(microflow_capacity=0), n_shards=4)
        datapath.process_batch(keys)
        assert datapath.n_megaflows > 0
        table.add_rule(Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late")
        assert datapath.n_megaflows == 0
        assert all(shard.stats.flushes == 1 for shard in datapath.shards)


class TestRetarget:
    def test_concentrated_trace_lands_on_target_and_detonates_identically(self):
        table = SIPDP.build_table()
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        dispatcher = RssDispatcher(4)
        keys, report = retarget_trace(
            list(trace.keys), table, dispatcher, lambda i, k: 2
        )
        assert report.stuck <= len(keys) // 20  # nearly everything grinds
        on_target = sum(1 for k in keys if dispatcher.queue_of(k) == 2)
        assert on_target == report.retargeted + report.already_on_target

        # Identical tuple-space detonation: same final masks and entries.
        original = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
        crafted = Datapath(SIPDP.build_table(), DatapathConfig(microflow_capacity=0))
        va = [original.process(k) for k in trace.keys]
        vb = [crafted.process(k) for k in keys]
        assert [v.action for v in va] == [v.action for v in vb]
        assert set(original.megaflows.masks()) == set(crafted.megaflows.masks())
        assert {(e.mask.values, e.key) for e in original.megaflows.entries()} == {
            (e.mask.values, e.key) for e in crafted.megaflows.entries()
        }


class TestPerCoreAccounting:
    def _host(self, n_shards: int) -> HypervisorHost:
        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table, DatapathConfig(microflow_capacity=0), n_shards=n_shards
        )
        return HypervisorHost(datapath, SYNTHETIC_ENV.cost_model)

    def test_concentrated_attack_spares_other_cores_victims(self):
        host = self._host(2)
        dispatcher = host.datapath.rss
        base = FlowKey(ip_src=5, ip_proto=PROTO_TCP, tp_dst=80)
        victim0 = pin_to_queue(base, dispatcher, 0, field="tp_src", start=50000)
        victim1 = pin_to_queue(base, dispatcher, 1, field="tp_src", start=51000)
        host.register_victim("v0", (victim0,))
        host.register_victim("v1", (victim1,))
        assert host.victims["v0"].home_shards == (0,)
        assert host.victims["v1"].home_shards == (1,)
        for name in ("v0", "v1"):
            host.victim_started(name, 0.0)
            host.keepalive(name, 0.0)
        host.tick(0.0, 0.1)
        baseline0, baseline1 = host.victim_rate("v0"), host.victim_rate("v1")

        table = host.datapath.flow_table
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        keys, _ = retarget_trace(list(trace.keys), table, dispatcher, lambda i, k: 0)
        host.inject_attack_batch(keys, now=1.0)
        host.keepalive("v0", 1.0)
        host.keepalive("v1", 1.0)
        host.tick(1.0, 0.1)

        assert host.datapath.shards[0].n_masks > 100
        assert host.datapath.shards[1].n_masks <= 5
        assert host.victim_rate("v0") < 0.2 * baseline0  # targeted core collapses
        assert host.victim_rate("v1") >= 0.9 * baseline1  # co-located but isolated
        assert host.per_core_load[0] > host.per_core_load[1]

    def test_single_shard_host_matches_plain_datapath_host(self):
        """Per-core accounting at n=1 reduces to the original model."""
        def mk(sharded: bool) -> HypervisorHost:
            table = SIPDP.build_table()
            config = DatapathConfig(microflow_capacity=0)
            datapath = (
                ShardedDatapath(table, config, n_shards=1)
                if sharded
                else Datapath(table, config)
            )
            return HypervisorHost(datapath, SYNTHETIC_ENV.cost_model)

        a, b = mk(False), mk(True)
        for host in (a, b):
            host.register_victim("v", (FlowKey(ip_src=5, ip_proto=6, tp_src=52000, tp_dst=80),))
            host.victim_started("v", 0.0)
            trace = ColocatedTraceGenerator(
                host.datapath.flow_table, base={"ip_proto": PROTO_TCP}
            ).generate()
            host.inject_attack_batch(list(trace.keys), now=0.0)
            host.keepalive("v", 0.0)
            host.tick(0.0, 0.1)
        assert a.victim_rate("v") == pytest.approx(b.victim_rate("v"), rel=1e-9)
        assert a.cpu_load_fraction == pytest.approx(b.cpu_load_fraction, rel=1e-9)


class TestShardedDpctl:
    def _attacked(self, n_shards: int = 2) -> ShardedDatapath:
        table = SIPDP.build_table()
        datapath = ShardedDatapath(table, DatapathConfig(microflow_capacity=0), n_shards=n_shards)
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        datapath.process_batch(list(trace.keys))
        return datapath

    def test_show_reports_per_shard_lines(self):
        datapath = self._attacked()
        text = show(datapath)
        assert "pmd queue 0:" in text and "pmd queue 1:" in text
        assert "mask tables:" in text
        for shard_id, shard in enumerate(datapath.shards):
            assert f"pmd queue {shard_id}: flows: {shard.n_megaflows};" in text
            assert f"total:{shard.n_masks}" in text

    def test_dump_flows_grouped_by_shard(self):
        datapath = self._attacked()
        lines = dump_flows(datapath).splitlines()
        headers = [line for line in lines if line.startswith("pmd queue")]
        assert len(headers) == 2
        assert len(lines) == 2 + datapath.n_megaflows

    def test_mask_histogram_counts_tables_across_shards(self):
        datapath = self._attacked()
        histogram = mask_histogram(datapath)
        assert sum(histogram.values()) == sum(shard.n_masks for shard in datapath.shards)


class TestGuardAndRevalidatorOnShards:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_guard_cleans_every_shard(self, backend):
        from repro.core.mitigation import MFCGuard, MFCGuardConfig

        table = SIPDP.build_table()
        datapath = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=0, megaflow_backend=backend),
            n_shards=2,
        )
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        datapath.process_batch(list(trace.keys))
        masks_before = datapath.n_masks
        assert masks_before > 100
        guard = MFCGuard(datapath, MFCGuardConfig(mask_threshold=50, cpu_threshold_pct=900))
        report = guard.run(now=10.0)
        assert report.entries_deleted > 0
        assert datapath.n_masks < masks_before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_revalidator_enforces_aggregate_flow_limit(self, backend):
        from repro.switch.revalidator import Revalidator

        table = FlowTable()
        table.add_rule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=1, name="allow-80")
        table.add_default_deny()
        config = DatapathConfig(
            microflow_capacity=0, max_megaflows=1000, megaflow_backend=backend
        )
        datapath = ShardedDatapath(table, config, n_shards=2)
        keys = [FlowKey(ip_src=i, tp_dst=80, ip_proto=6) for i in range(64)]
        datapath.process_batch(keys, now=0.0)
        installed = datapath.n_megaflows
        revalidator = Revalidator(datapath, period=1.0)
        evicted = revalidator.sweep(now=100.0)  # everything idle > 10 s
        assert len(evicted) == installed
        assert datapath.n_megaflows == 0


def test_multiqueue_env_builds_sharded_server():
    from repro.netsim.cloud import Server

    server = Server("s1", MULTIQUEUE_ENV)
    assert isinstance(server.datapath, ShardedDatapath)
    assert server.datapath.n_shards == 4
    assert server.host.n_cores == 4
