"""Executor-equivalence tests: parallel ≡ serial for every strategy.

The executor invariants under test (see ROADMAP.md):

* ``thread`` and ``process`` executors produce identical verdicts,
  ``mask_counts``/``probe_costs``/``shard_ids``, installed entry/mask
  unions, per-shard statistics and probe accounting
  (``stats_scans``/``stats_scan_probes``) as ``serial`` — across megaflow
  backends and worker counts;
* flow-table changes reach worker-owned shards as delta messages with the
  serial flush cadence (one parent change = one flush per shard);
* the management plane (revalidator, MFCGuard, dpctl) drives worker-owned
  shards through value-addressed proxies with unchanged outcomes;
* hypervisor charges (victim rates, CPU load) are executor-invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.backend import megaflow_backend_names
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.core.mitigation import MFCGuard, MFCGuardConfig
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import ExecutorError, SwitchError
from repro.netsim.cloud import SYNTHETIC_ENV, EnvironmentProfile, Server
from repro.netsim.hypervisor import HypervisorHost
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.dpctl import dump_flows, show
from repro.switch.executor import (
    ProcessShardExecutor,
    make_shard_executor,
    shard_executor_names,
)
from repro.switch.revalidator import Revalidator
from repro.switch.sharded import ShardedDatapath
from repro.switch.shm_ring import (
    ShmRing,
    decode_batch,
    decode_verdicts,
    encode_batch,
    encode_verdicts,
)

BACKENDS = megaflow_backend_names()
PARALLEL = ("thread", "process")


def small_table() -> FlowTable:
    table = FlowTable()
    table.add_rule(Match(tp_dst=(80, 0xFFFF)), ALLOW, priority=10, name="allow-80")
    table.add_rule(
        Match(ip_src=(0x0A000000, 0xFFFFFF00)), ALLOW, priority=5, name="allow-net"
    )
    table.add_default_deny()
    return table


def staircase_replay(extra: int = 120) -> tuple[FlowTable, list[FlowKey]]:
    """SipDp's ~500-mask detonation plus random replay noise."""
    table = SIPDP.build_table()
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    rng = np.random.default_rng(7)
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


def build(
    executor: str,
    table: FlowTable,
    n_shards: int = 2,
    backend: str = "tss",
    workers: int = 0,
    **config_kwargs,
) -> ShardedDatapath:
    config = DatapathConfig(
        microflow_capacity=0,
        megaflow_backend=backend,
        executor=executor,
        executor_workers=workers,
        **config_kwargs,
    )
    return ShardedDatapath(table, config, n_shards=n_shards)


def assert_equivalent(
    reference: ShardedDatapath, other: ShardedDatapath, expected, got, label: str
) -> None:
    """Full transcript + state equality between two executor runs."""
    assert got.shard_ids == expected.shard_ids, label
    assert got.mask_counts == expected.mask_counts, label
    assert got.probe_costs == expected.probe_costs, label
    for i, (a, b) in enumerate(zip(expected.verdicts, got.verdicts)):
        assert a.action == b.action, (label, i)
        assert a.path == b.path, (label, i)
        assert a.masks_inspected == b.masks_inspected, (label, i)
        assert a.rules_examined == b.rules_examined, (label, i)
        assert (a.installed is None) == (b.installed is None), (label, i)
        if a.installed is not None:
            assert a.installed.mask == b.installed.mask, (label, i)
            assert a.installed.key == b.installed.key, (label, i)
    # Installed entry / mask unions.
    assert {(e.mask.values, e.key) for e in other.entries()} == {
        (e.mask.values, e.key) for e in reference.entries()
    }, label
    assert other.n_masks == reference.n_masks, label
    # Per-shard statistics and probe accounting.
    for shard_id, (ref_shard, got_shard) in enumerate(
        zip(reference.shards, other.shards)
    ):
        # Counters, lookup hits/misses, scans and probes spent, in one record.
        assert got_shard.snapshot() == ref_shard.snapshot(), (label, shard_id)


class TestVerdictEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_staircase_replay_equivalence(self, executor, backend):
        """thread/process ≡ serial on a real detonation, per backend."""
        table, keys = staircase_replay()
        reference = build("serial", table, n_shards=2, backend=backend)
        expected = reference.process_batch(keys, now=1.0)
        other = build(executor, FlowTable(rules=list(table)), n_shards=2, backend=backend)
        try:
            got = other.process_batch(keys, now=1.0)
            assert_equivalent(reference, other, expected, got, f"{executor}/{backend}")
        finally:
            other.close()

    @pytest.mark.parametrize("executor", PARALLEL)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_equivalence(self, executor, workers):
        """Any worker count (shards per worker ≥ 1) reproduces serial."""
        table, keys = staircase_replay(extra=40)
        reference = build("serial", table, n_shards=3)
        expected = reference.process_batch(keys)
        other = build(executor, FlowTable(rules=list(table)), n_shards=3, workers=workers)
        try:
            got = other.process_batch(keys)
            assert_equivalent(
                reference, other, expected, got, f"{executor}/workers={workers}"
            )
        finally:
            other.close()

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 0xFFFFFFFF),  # ip_src
                st.integers(0, 0xFFFF),  # tp_src
                st.sampled_from([80, 81, 443]),  # tp_dst
            ),
            min_size=1,
            max_size=48,
        ),
        n_shards=st.integers(1, 4),
    )
    def test_thread_equivalence_property(self, data, n_shards):
        """Hypothesis: arbitrary small traces are thread ≡ serial."""
        keys = [
            FlowKey(ip_src=src, tp_src=sport, tp_dst=dport, ip_proto=PROTO_TCP)
            for src, sport, dport in data
        ]
        reference = build("serial", small_table(), n_shards=n_shards)
        expected = reference.process_batch(keys)
        other = build("thread", small_table(), n_shards=n_shards)
        try:
            got = other.process_batch(keys)
            assert_equivalent(reference, other, expected, got, "thread-property")
        finally:
            other.close()

    def test_microflow_and_mask_cache_levels(self):
        """Fast levels (microflow, kernel memo) stay executor-invariant."""
        table, keys = staircase_replay(extra=20)
        config = dict(enable_mask_cache=True, mask_cache_size=32)
        reference = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=64, executor="serial", **config),
            n_shards=2,
        )
        expected = reference.process_batch(keys)
        other = ShardedDatapath(
            FlowTable(rules=list(table)),
            DatapathConfig(microflow_capacity=64, executor="process", **config),
            n_shards=2,
        )
        try:
            got = other.process_batch(keys)
            assert_equivalent(reference, other, expected, got, "fast-levels")
        finally:
            other.close()


class TestFlowTableDeltas:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_rule_changes_reach_every_shard(self, executor):
        """add / extend / remove / clear all flush worker replicas once."""
        table_a, keys = staircase_replay(extra=0)
        table_b = FlowTable(rules=list(table_a))
        reference = build("serial", table_a, n_shards=2)
        other = build(executor, table_b, n_shards=2)
        try:
            for datapath in (reference, other):
                datapath.process_batch(keys)
            assert other.n_megaflows == reference.n_megaflows > 0

            late_a = table_a.add_rule(
                Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late"
            )
            late_b = table_b.add_rule(
                Match(tp_dst=(9999, 0xFFFF)), DENY, priority=2000, name="late"
            )
            assert reference.n_megaflows == other.n_megaflows == 0
            assert [s.stats.flushes for s in other.shards] == [
                s.stats.flushes for s in reference.shards
            ] == [1, 1]

            # The new rule participates in classification on both sides.
            probe = FlowKey(ip_src=1, tp_dst=9999, ip_proto=PROTO_TCP)
            assert (
                other.process(probe).action == reference.process(probe).action == DENY
            )

            table_a.remove(late_a)
            table_b.remove(late_b)
            assert (
                other.process(probe).action == reference.process(probe).action
            )
            assert [s.stats.flushes for s in other.shards] == [
                s.stats.flushes for s in reference.shards
            ]

            table_a.clear()
            table_b.clear()
            assert [s.stats.flushes for s in other.shards] == [
                s.stats.flushes for s in reference.shards
            ]
        finally:
            other.close()


class TestManagementPlane:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_guard_cleans_worker_shards(self, executor):
        """MFCGuard's delete pass works by value through the proxies."""
        reports = {}
        datapaths = {}
        for name in ("serial", executor):
            table, keys = staircase_replay(extra=0)
            datapath = build(name, table, n_shards=2)
            datapath.process_batch(list(keys))
            guard = MFCGuard(
                datapath, MFCGuardConfig(mask_threshold=50, cpu_threshold_pct=900)
            )
            reports[name] = guard.run(now=10.0)
            datapaths[name] = datapath
        try:
            assert reports[executor].entries_deleted == reports["serial"].entries_deleted > 0
            assert reports[executor].masks_after == reports["serial"].masks_after
            assert datapaths[executor].n_masks == datapaths["serial"].n_masks
            # §8 quirk survives the process boundary: killed entries never
            # re-spark in the owning worker.
            assert (
                datapaths[executor].stats.dead_entry_suppressed
                == datapaths["serial"].stats.dead_entry_suppressed
            )
        finally:
            datapaths[executor].close()

    @pytest.mark.parametrize("executor", PARALLEL)
    def test_revalidator_sweeps_worker_shards(self, executor):
        table = small_table()
        datapath = build(executor, table, n_shards=2, max_megaflows=1000)
        try:
            keys = [FlowKey(ip_src=i, tp_dst=80, ip_proto=6) for i in range(48)]
            datapath.process_batch(keys, now=0.0)
            installed = datapath.n_megaflows
            assert installed > 0
            revalidator = Revalidator(datapath, period=1.0)
            evicted = revalidator.sweep(now=100.0)  # everything idle > 10s
            assert len(evicted) == installed
            assert datapath.n_megaflows == 0
        finally:
            datapath.close()

    def test_dpctl_renders_executor_and_proxied_shards(self):
        table, keys = staircase_replay(extra=0)
        datapath = build("process", table, n_shards=2)
        try:
            datapath.process_batch(keys)
            text = show(datapath)
            assert "pmd executor: process[2 workers]" in text
            assert "pmd queue 0:" in text and "pmd queue 1:" in text
            flows = dump_flows(datapath)
            assert flows.count("pmd queue") == 2
        finally:
            datapath.close()

    def test_kill_and_reinject_by_value(self):
        table = small_table()
        reference = build("serial", table, n_shards=2)
        other = build("process", FlowTable(rules=list(table)), n_shards=2)
        try:
            key = FlowKey(ip_src=3, tp_dst=80, ip_proto=6)
            for datapath in (reference, other):
                datapath.process(key)
            # The proxy returns a copy; killing through it must remove the
            # worker's entry and engage the permanent-death quirk.
            proxy_copy = next(iter(other.entries()))
            local_entry = next(iter(reference.entries()))
            assert other.kill_entries([proxy_copy], permanent=True) == 1
            assert reference.kill_entries([local_entry], permanent=True) == 1
            for datapath in (reference, other):
                verdict = datapath.process(key)
                assert verdict.installed is None  # dead entries never re-spark
            # Reinject (also by value) restores installability on both.
            other.reinject(proxy_copy)
            reference.reinject(local_entry)
            for datapath in (reference, other):
                verdict = datapath.process(key)
                assert verdict.installed is not None
        finally:
            other.close()


class TestConfigPlumbing:
    def test_unknown_executor_rejected(self):
        with pytest.raises(SwitchError, match="unknown shard executor"):
            make_shard_executor("warp-drive")

    def test_registry_names(self):
        assert set(shard_executor_names()) >= {"serial", "thread", "process"}

    def test_environment_profile_threads_executor(self):
        from dataclasses import replace

        environment = replace(
            SYNTHETIC_ENV,
            name="Synthetic/exec",
            n_pmd=2,
            datapath=replace(SYNTHETIC_ENV.datapath, executor="process"),
        )
        assert isinstance(environment, EnvironmentProfile)
        server = Server("s1", environment)
        try:
            assert isinstance(server.datapath, ShardedDatapath)
            assert server.datapath.executor_name == "process[2 workers]/shm"
            assert isinstance(server.datapath.executor, ProcessShardExecutor)
        finally:
            server.close()

    def test_close_is_idempotent_and_context_managed(self):
        table = small_table()
        with build("process", table, n_shards=2) as datapath:
            datapath.process(FlowKey(ip_src=1, tp_dst=80, ip_proto=6))
        datapath.close()  # second close is a no-op
        # A closed pool refuses further batches.
        with pytest.raises(SwitchError):
            datapath.process_batch([FlowKey(ip_src=2, tp_dst=80, ip_proto=6)])


class TestHypervisorCharges:
    @pytest.mark.parametrize("executor", PARALLEL)
    def test_victim_rates_and_load_executor_invariant(self, executor):
        """Per-core accounting is identical whatever executes the shards."""

        def run(name: str) -> HypervisorHost:
            table = SIPDP.build_table()
            datapath = build(name, table, n_shards=2)
            host = HypervisorHost(datapath, SYNTHETIC_ENV.cost_model)
            host.register_victim(
                "v", (FlowKey(ip_src=5, ip_proto=6, tp_src=52000, tp_dst=80),)
            )
            host.victim_started("v", 0.0)
            trace = ColocatedTraceGenerator(
                table, base={"ip_proto": PROTO_TCP}
            ).generate()
            host.inject_attack_batch(list(trace.keys), now=0.0)
            host.keepalive("v", 0.0)
            host.tick(0.0, 0.1)
            return host

        a, b = run("serial"), run(executor)
        try:
            assert b.victim_rate("v") == pytest.approx(a.victim_rate("v"), rel=1e-12)
            assert b.cpu_load_fraction == pytest.approx(a.cpu_load_fraction, rel=1e-12)
            assert b.per_core_load == pytest.approx(a.per_core_load, rel=1e-12)
        finally:
            b.datapath.close()


class TestShmTransport:
    """The zero-copy shared-memory data plane (repro.switch.shm_ring)."""

    def test_ring_roundtrip_and_wraparound(self):
        ring = ShmRing.create(4096)
        try:
            assert ring.try_read() is None
            assert ring.try_write([b"hello ", b"world"])
            assert ring.try_read() == b"hello world"
            assert ring.try_read() is None
            # Records eventually straddle the end of the buffer; payloads
            # must survive the split copy for many laps.
            rng = np.random.default_rng(3)
            for lap in range(64):
                blob = rng.integers(0, 256, size=int(rng.integers(1, 3000))).astype(
                    np.uint8
                ).tobytes()
                assert ring.try_write([blob]), lap
                assert ring.try_read() == blob, lap
        finally:
            ring.close()

    def test_ring_rejects_oversized_and_fills_up(self):
        ring = ShmRing.create(4096)
        try:
            assert not ring.try_write([b"x" * (ring.capacity + 1)])
            written = 0
            while ring.try_write([b"y" * 512]):
                written += 1
            assert written >= 3  # several records fit...
            assert ring.try_read() == b"y" * 512  # ...and drain FIFO
            assert ring.try_write([b"z" * 512])  # freed space is reusable
        finally:
            ring.close()

    def test_torn_batch_detected_by_sequence_number(self):
        ring = ShmRing.create(8192)
        try:
            keys = [FlowKey(ip_src=1, tp_dst=80, ip_proto=6)]
            assert encode_batch(ring, 7, [(0, keys)], 1.0)
            with pytest.raises(SwitchError, match="out of sequence"):
                decode_batch(ring.try_read(), 8)
            bv = Datapath(
                small_table(), DatapathConfig(microflow_capacity=0)
            ).process_batch(keys)
            assert encode_verdicts(ring, 9, [(0, bv)])
            with pytest.raises(SwitchError, match="out of sequence"):
                decode_verdicts(ring.try_read(), 10)
        finally:
            ring.close()

    def test_pipe_transport_equivalence(self):
        """transport="pipe" (the PR 5 path) stays verdict-identical."""
        table, keys = staircase_replay(extra=40)
        reference = build("serial", table, n_shards=2)
        expected = reference.process_batch(keys, now=1.0)
        other = build(
            "process",
            FlowTable(rules=list(table)),
            n_shards=2,
            executor_transport="pipe",
        )
        try:
            assert other.executor.transport == "pipe"
            assert other.executor_name.endswith("/pipe")
            got = other.process_batch(keys, now=1.0)
            assert_equivalent(reference, other, expected, got, "pipe-transport")
        finally:
            other.close()

    def test_oversized_batch_falls_back_to_pipe(self):
        """A batch too big for its ring ships over the pipe, same verdicts."""
        table, keys = staircase_replay(extra=40)
        reference = build("serial", table, n_shards=2)
        expected = reference.process_batch(keys, now=1.0)
        executor = ProcessShardExecutor(transport="shm", ring_bytes=4096)
        other = ShardedDatapath(
            FlowTable(rules=list(table)),
            DatapathConfig(microflow_capacity=0, executor="process"),
            n_shards=2,
            executor=executor,
        )
        try:
            # ~600 keys x 15 columns x 8 bytes per shard — far over 4 KiB
            # of ring, so every doorbell attempt must take the pipe path.
            got = other.process_batch(keys, now=1.0)
            assert_equivalent(reference, other, expected, got, "ring-overflow")
        finally:
            other.close()

    def test_worker_info_reports_transport_shards_and_pid(self):
        table = small_table()
        executor = ProcessShardExecutor(workers=2, transport="shm")
        datapath = ShardedDatapath(
            table,
            DatapathConfig(microflow_capacity=0, executor="process"),
            n_shards=2,
            executor=executor,
        )
        try:
            info = executor.worker_info()
            assert [w["shards"] for w in info] == [(0,), (1,)]
            assert all(w["transport"] == "shm" for w in info)
            assert len({w["pid"] for w in info}) == 2
        finally:
            datapath.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(SwitchError, match="unknown process transport"):
            ProcessShardExecutor(transport="carrier-pigeon")

    def test_dead_worker_raises_descriptive_executor_error(self):
        """A killed worker surfaces as ExecutorError naming shard and op,
        not as a raw pipe EOFError."""
        table = small_table()
        datapath = build("process", table, n_shards=2)
        try:
            datapath.process_batch([FlowKey(ip_src=9, tp_dst=80, ip_proto=6)])
            executor = datapath.executor
            executor._procs[1].kill()
            executor._procs[1].join(timeout=5.0)
            with pytest.raises(ExecutorError) as excinfo:
                # Drive both workers so the dead one must answer.
                datapath.process_batch(
                    [FlowKey(ip_src=i, tp_dst=80, ip_proto=6) for i in range(16)]
                )
            message = str(excinfo.value)
            assert "pmd worker 1" in message
            assert "shards [1]" in message
            assert "died during op" in message
            assert "last completed op" in message
        finally:
            datapath.close()
