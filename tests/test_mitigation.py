"""Unit tests for MFCGuard (Algorithm 2, §8)."""

import contextlib
from types import SimpleNamespace

import pytest

from repro.classifier.actions import ALLOW
from repro.core.decision import Decision
from repro.core.detector import find_tse_entries
from repro.core.mitigation import MFCGuard, MFCGuardConfig
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import ExperimentError
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.costmodel import slow_path_cpu_pct
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken


BENIGN = FlowKey(ip_proto=PROTO_TCP, ip_src=0xC0A80001, tp_src=40000, tp_dst=80)


def deleted(decisions) -> int:
    return sum(decision.changed for decision in decisions)


def cleaned(decisions) -> list:
    return [decision.subject for decision in decisions if decision.action == "clean"]


def attacked_setup(mask_threshold=100, cpu_threshold=1000.0):
    table = SIPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    datapath.process(BENIGN, now=0.0)
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    for key in trace.keys:
        datapath.process(key, now=1.0)
    guard = MFCGuard(
        datapath,
        MFCGuardConfig(mask_threshold=mask_threshold, cpu_threshold_pct=cpu_threshold),
    )
    return table, datapath, trace, guard


class TestAlgorithm2:
    def test_cleanup_restores_small_tuple_space(self):
        _table, datapath, _trace, guard = attacked_setup()
        masks_before = datapath.n_masks
        decisions = guard.run(now=10.0)
        assert {decision.action for decision in decisions} == {"clean"}
        assert all(decision.signals["masks"] == masks_before > 500 for decision in decisions)
        assert datapath.n_masks < 25
        assert deleted(decisions) > 400

    def test_benign_entries_survive(self):
        _table, datapath, _trace, guard = attacked_setup()
        guard.run(now=10.0)
        verdict = datapath.process(BENIGN, now=11.0)
        assert verdict.path is not PathTaken.SLOW_PATH
        assert verdict.action == ALLOW

    def test_below_threshold_noop(self):
        table = SIPDP.build_table()
        datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
        datapath.process(BENIGN)
        guard = MFCGuard(datapath, MFCGuardConfig(mask_threshold=100))
        (decision,) = guard.run(now=10.0)
        assert decision.action == "hold"
        assert decision.changed == 0
        assert decision.signals["masks"] == datapath.n_masks

    def test_deleted_traffic_pinned_to_slow_path(self):
        _table, datapath, trace, guard = attacked_setup()
        guard.run(now=10.0)
        attack_key = next(k for k in trace.keys if datapath.flow_table.classify(k).is_drop)
        for _ in range(3):
            verdict = datapath.process(attack_key, now=12.0)
            assert verdict.path is PathTaken.SLOW_PATH
            assert verdict.installed is None

    def test_cpu_threshold_stops_deletion(self):
        # With an absurdly low CPU budget, the guard stops after one rule.
        _table, datapath, _trace, guard = attacked_setup(cpu_threshold=1.0)
        decisions = guard.run(now=10.0)
        assert [decision.action for decision in decisions] == ["clean", "stop_cpu"]
        assert decisions[-1].signals["cpu_pct"] >= 1.0

    def test_overlapping_patterns_counted_once(self):
        """SipDp's ``allow-tp_dst`` and ``allow-ip_src`` patterns share 512
        entries: each is deleted, and its hit rate demoted, once."""
        _table, datapath, trace, guard = attacked_setup()
        for key in trace.keys:  # one hit per attack megaflow
            datapath.process(key, now=2.0)
        patterns = find_tse_entries(datapath.megaflows, datapath.flow_table)
        installed = {(entry.mask, entry.key): entry for pattern in patterns for entry in pattern.entries}
        before = datapath.n_megaflows
        decisions = guard.run(now=10.0)
        removed = before - datapath.n_megaflows
        assert deleted(decisions) == removed == len(installed)
        assert sum(len(pattern.entries) for pattern in patterns) - removed == 512
        rate = sum(entry.hits / max(10.0 - entry.created_at, 10.0) for entry in installed.values())
        assert guard.projected_cpu_pct() == pytest.approx(slow_path_cpu_pct(rate))

    def test_rules_cleaned_reported(self):
        _table, _datapath, _trace, guard = attacked_setup()
        assert "allow-tp_dst" in cleaned(guard.run(now=10.0))


class TestScheduling:
    def test_tick_honours_period(self):
        _table, _datapath, _trace, guard = attacked_setup()
        assert guard.tick(now=5.0) == ()  # period is 10 s
        assert guard.tick(now=10.0)
        assert guard.tick(now=15.0) == ()
        assert guard.tick(now=20.0)

    def test_off_cadence_tick_reads_nothing(self):
        """``n_masks`` is a every-shard fan-out on a sharded datapath; the
        hypervisor ticks the guard every 0.1 s.  Off cadence a tick answers
        ``()`` and reads nothing; on cadence a pass that changes nothing
        answers exactly one decision, built from the two reads it made."""

        class CountingDatapath:
            reads = 0
            shards = (SimpleNamespace(megaflows=SimpleNamespace(expected_scan_cost=lambda: 7.0)),)

            @property
            def n_masks(self):
                self.reads += 1
                return 0

            def maintenance(self):
                return contextlib.nullcontext()

        datapath = CountingDatapath()
        guard = MFCGuard(datapath, MFCGuardConfig(period=10.0))
        for tick in range(1, 100):
            assert guard.tick(now=tick * 0.1) == ()
        assert datapath.reads == 0
        (decision,) = guard.tick(now=10.0)
        assert decision == Decision(10.0, "mfcguard", "hold", None, {"masks": 0, "probe_cost": 7.0})
        assert datapath.reads == 1

    def test_runs_counted(self):
        _table, _datapath, _trace, guard = attacked_setup()
        first, second = guard.run(now=10.0), guard.run(now=20.0)
        assert first and {decision.at for decision in first} == {10.0}
        # Everything the first pass cleaned stays dead: the second holds.
        assert [decision.action for decision in second] == ["hold"]
        assert second[0].at == 20.0


class TestCpuAccounting:
    def test_projected_cpu_uses_model(self):
        _table, _datapath, _trace, guard = attacked_setup()
        guard.note_attack_rate(10000)
        assert guard.projected_cpu_pct() == pytest.approx(80.0, abs=1.0)

    def test_note_attack_rate_validation(self):
        _table, _datapath, _trace, guard = attacked_setup()
        with pytest.raises(ExperimentError):
            guard.note_attack_rate(-5)


class TestConfigValidation:
    def test_bad_thresholds(self):
        with pytest.raises(ExperimentError):
            MFCGuardConfig(mask_threshold=-1)
        with pytest.raises(ExperimentError):
            MFCGuardConfig(cpu_threshold_pct=0)
        with pytest.raises(ExperimentError):
            MFCGuardConfig(period=0)
