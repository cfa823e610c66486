"""Unit tests for MFCGuard (Algorithm 2, §8)."""

import pytest

from repro.classifier.actions import ALLOW
from repro.core.mitigation import GuardReport, MFCGuard, MFCGuardConfig
from repro.core.tracegen import ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import ExperimentError
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig, PathTaken


BENIGN = FlowKey(ip_proto=PROTO_TCP, ip_src=0xC0A80001, tp_src=40000, tp_dst=80)


def attacked_setup(mask_threshold=100, cpu_threshold=1000.0, permanent=True):
    table = SIPDP.build_table()
    datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
    datapath.process(BENIGN, now=0.0)
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    for key in trace.keys:
        datapath.process(key, now=1.0)
    guard = MFCGuard(
        datapath,
        MFCGuardConfig(
            mask_threshold=mask_threshold,
            cpu_threshold_pct=cpu_threshold,
            permanent_delete=permanent,
        ),
    )
    return table, datapath, trace, guard


class TestAlgorithm2:
    def test_cleanup_restores_small_tuple_space(self):
        _table, datapath, _trace, guard = attacked_setup()
        masks_before = datapath.n_masks
        report = guard.run(now=10.0)
        assert report.ran
        assert report.masks_before == masks_before > 500
        assert report.masks_after < 25
        assert report.entries_deleted > 400

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
        report = guard.run(now=10.0)
        assert report.ran
        assert report.entries_deleted == 0

    def test_deleted_traffic_pinned_to_slow_path(self):
        _table, datapath, trace, guard = attacked_setup()
        guard.run(now=10.0)
        attack_key = next(k for k in trace.keys if datapath.flow_table.classify(k).is_drop)
        for _ in range(3):
            verdict = datapath.process(attack_key, now=12.0)
            assert verdict.path is PathTaken.SLOW_PATH
            assert verdict.installed is None

    def test_non_permanent_mode_resparks(self):
        _table, datapath, trace, guard = attacked_setup(permanent=False)
        guard.run(now=10.0)
        attack_key = next(k for k in trace.keys if datapath.flow_table.classify(k).is_drop)
        verdict = datapath.process(attack_key, now=12.0)
        assert verdict.installed is not None

    def test_cpu_threshold_stops_deletion(self):
        # With an absurdly low CPU budget, the guard stops after one rule.
        _table, datapath, _trace, guard = attacked_setup(cpu_threshold=1.0)
        report = guard.run(now=10.0)
        assert report.stopped_by_cpu
        assert len(report.rules_cleaned) == 1

    def test_rules_cleaned_reported(self):
        _table, _datapath, _trace, guard = attacked_setup()
        report = guard.run(now=10.0)
        assert "allow-tp_dst" in report.rules_cleaned


class TestScheduling:
    def test_tick_honours_period(self):
        _table, _datapath, _trace, guard = attacked_setup()
        assert not guard.tick(now=5.0).ran  # period is 10 s
        assert guard.tick(now=10.0).ran
        assert not guard.tick(now=15.0).ran
        assert guard.tick(now=20.0).ran

    def test_off_cadence_tick_reads_nothing(self):
        """``n_masks`` is a every-shard fan-out on a sharded datapath; the
        hypervisor ticks the guard every 0.1 s and discards the report."""

        class CountingDatapath:
            reads = 0

            @property
            def n_masks(self):
                self.reads += 1
                return 0

        datapath = CountingDatapath()
        guard = MFCGuard(datapath, MFCGuardConfig(period=10.0))
        for tick in range(1, 100):
            assert guard.tick(now=tick * 0.1) == GuardReport(ran=False)
        assert datapath.reads == 0

    def test_runs_counted(self):
        _table, _datapath, _trace, guard = attacked_setup()
        guard.run(now=10.0)
        guard.run(now=20.0)
        assert guard.runs == 2


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

    def test_report_defaults(self):
        report = GuardReport()
        assert not report.ran
        assert report.entries_deleted == 0
