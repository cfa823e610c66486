"""Unit tests for the OVS-like datapath pipeline."""

import pytest

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import Match
from repro.exceptions import SwitchError
from repro.packet.builder import PacketBuilder
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken
from tests.packet_oracle import flow_key


@pytest.fixture
def table() -> FlowTable:
    table = FlowTable()
    table.add_rule(Match(ip_proto=6, tp_dst=80), ALLOW, priority=10, name="allow-web")
    table.add_default_deny()
    return table


WEB = FlowKey(ip_proto=6, tp_dst=80, ip_src=1)
OTHER = FlowKey(ip_proto=6, tp_dst=81, ip_src=1)


class TestPipeline:
    def test_first_packet_takes_slow_path(self, table):
        datapath = Datapath(table)
        verdict = datapath.process(WEB)
        assert verdict.path is PathTaken.SLOW_PATH
        assert verdict.action == ALLOW
        assert verdict.installed is not None
        assert datapath.stats.upcalls == 1

    def test_second_packet_hits_microflow(self, table):
        datapath = Datapath(table)
        datapath.process(WEB)
        verdict = datapath.process(WEB)
        assert verdict.path is PathTaken.MICROFLOW
        assert verdict.action == ALLOW

    def test_same_megaflow_different_microflow(self, table):
        datapath = Datapath(table)
        datapath.process(WEB)
        # Different source port -> same megaflow, new microflow.
        verdict = datapath.process(WEB.replace(tp_src=999))
        assert verdict.path is PathTaken.MEGAFLOW

    def test_microflow_disabled(self, table):
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        datapath.process(WEB)
        assert datapath.process(WEB).path is PathTaken.MEGAFLOW

    def test_classification_matches_flow_table(self, table):
        """The caches are semantically transparent."""
        datapath = Datapath(table)
        for key in (WEB, OTHER, WEB.replace(ip_src=7), OTHER.replace(tp_src=3)):
            for _ in range(3):
                assert datapath.process(key).action == table.classify(key)

    def test_process_packet_wire_level(self, table):
        datapath = Datapath(table)
        packet = PacketBuilder().from_flow_key(FlowKey(ip_proto=PROTO_TCP, ip_src=1, ip_dst=2, tp_dst=80))
        verdict = datapath.process(flow_key(packet))
        assert verdict.action == ALLOW

    def test_time_cannot_go_backwards(self, table):
        datapath = Datapath(table)
        datapath.process(WEB, now=5.0)
        with pytest.raises(SwitchError, match="backwards"):
            datapath.process(WEB, now=4.0)

    def test_stats_accumulate(self, table):
        datapath = Datapath(table)
        datapath.process(WEB)
        datapath.process(WEB)
        datapath.process(OTHER)
        stats = datapath.stats
        assert stats.packets == 3
        assert stats.upcalls == 2
        assert stats.installs == 2
        assert stats.microflow_hits == 1


class TestFlowTableChanges:
    def test_rule_change_flushes_caches(self, table):
        datapath = Datapath(table)
        datapath.process(WEB)
        assert datapath.n_megaflows == 1
        table.add_rule(Match(tp_src=53), ALLOW, priority=5, name="dns")
        assert datapath.n_megaflows == 0
        assert datapath.stats.flushes >= 1

    def test_new_rule_takes_effect(self, table):
        datapath = Datapath(table)
        key = FlowKey(ip_proto=6, tp_dst=81, tp_src=53)
        assert datapath.process(key).action == DENY
        table.add_rule(Match(ip_proto=6, tp_src=53), ALLOW, priority=5, name="dns")
        assert datapath.process(key).action == ALLOW


class TestFlowLimit:
    def test_install_rejected_at_limit(self, table):
        datapath = Datapath(table, DatapathConfig(max_megaflows=2, microflow_capacity=0))
        datapath.process(WEB)
        datapath.process(OTHER)
        verdict = datapath.process(FlowKey(ip_proto=6, tp_dst=99))
        assert verdict.path is PathTaken.SLOW_PATH
        assert verdict.installed is None
        assert datapath.stats.install_rejected == 1
        assert datapath.n_megaflows == 2


class TestDeadEntries:
    def test_killed_entry_never_resparks(self, table):
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        verdict = datapath.process(OTHER)
        entry = verdict.installed
        assert datapath.kill_entries([entry]) == 1
        # Every replay goes to the slow path; nothing is installed.
        for _ in range(3):
            verdict = datapath.process(OTHER)
            assert verdict.path is PathTaken.SLOW_PATH
            assert verdict.installed is None
        assert datapath.stats.dead_entry_suppressed == 3
        assert datapath.n_megaflows == 0

    def test_reinject_restores(self, table):
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        entry = datapath.process(OTHER).installed
        datapath.kill_entries([entry])
        datapath.reinject(entry)
        verdict = datapath.process(OTHER)
        assert verdict.installed is not None
        assert datapath.process(OTHER).path is PathTaken.MEGAFLOW

    def test_non_permanent_kill_resparks(self, table):
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        entry = datapath.process(OTHER).installed
        datapath.kill_entries([entry], permanent=False)
        verdict = datapath.process(OTHER)
        assert verdict.installed is not None


class TestIdleEviction:
    def test_evict_idle_entries(self, table):
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        datapath.process(WEB, now=0.0)
        datapath.process(OTHER, now=5.0)
        datapath.process(WEB, now=9.0)  # refresh WEB megaflow
        evicted = datapath.evict_idle(now=15.5)
        assert len(evicted) == 1  # OTHER (idle since 5.0)
        assert datapath.n_megaflows == 1

    def test_microflow_invalidated_on_eviction(self, table):
        datapath = Datapath(table)
        datapath.process(WEB, now=0.0)
        datapath.process(WEB, now=0.5)  # in the microflow cache now
        datapath.evict_idle(now=20.0)
        verdict = datapath.process(WEB, now=20.0)
        assert verdict.path is PathTaken.SLOW_PATH  # no stale microflow hit

    @pytest.mark.parametrize("batched", [False, True], ids=["process", "process_batch"])
    @pytest.mark.parametrize("how", ["flush", "remove"])
    def test_stale_microflow_pointer_counts_as_a_miss(self, table, how, batched):
        """A megaflow removed behind the datapath's back (no microflow
        invalidation, as ``cold_detonation``'s direct flush) leaves a
        dangling microflow: the lookup that finds it is a miss, not a hit."""
        datapath = Datapath(table)

        def run(key):
            return datapath.process_batch([key]).verdicts[0] if batched else datapath.process(key)

        entry = run(WEB).installed
        assert run(WEB).path is PathTaken.MICROFLOW
        micro = datapath.microflows
        hits, misses = micro.stats_hits, micro.stats_misses
        if how == "flush":
            datapath.megaflows.flush()
        else:
            assert datapath.megaflows.remove_entries([entry]) == [entry]
        assert run(WEB).path is PathTaken.SLOW_PATH
        assert (micro.stats_hits, micro.stats_misses) == (hits, misses + 1)
        assert datapath.stats.microflow_hits == 1
        assert run(WEB).path is PathTaken.MICROFLOW  # re-installed, live again
        assert (micro.stats_hits, micro.stats_misses) == (hits + 1, misses + 1)


class TestMaskCachePath:
    def test_established_flow_hits_mask_cache(self, table):
        config = DatapathConfig(microflow_capacity=0, enable_mask_cache=True)
        datapath = Datapath(table, config)
        datapath.process(WEB)
        verdict = datapath.process(WEB)
        assert verdict.path is PathTaken.MASK_CACHE
        assert verdict.masks_inspected == 1

    def test_mask_cache_flushed_on_kill(self, table):
        config = DatapathConfig(microflow_capacity=0, enable_mask_cache=True)
        datapath = Datapath(table, config)
        entry = datapath.process(WEB).installed
        datapath.process(WEB)
        datapath.kill_entries([entry], permanent=False)
        assert datapath.process(WEB).path is PathTaken.SLOW_PATH
